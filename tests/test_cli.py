import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import clustercap
from clustercap import read_instance, read_matrix_csv
from clustercap.cli import VERIFY_TOL, cli, run_bench, verify_instance
from clustercap.instances import GenParams, generate
from clustercap.models import solve_capacity
from clustercap.errors import DomainError

from conftest import DATA
from lp_oracles import read_lp_text


@pytest.fixture()
def env_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CLUSTERCAP_CACHE", str(tmp_path / "cache"))
    return tmp_path


# instance files that are not JSON text: bytes that are not UTF-8, and
# arrays nested deeper than the decoder's recursion limit
UNREADABLE = [b"\xff\xfe{", b"[" * 100000]
UNREADABLE_IDS = ["not-utf8", "too-deep"]


def gen_instance(tmp_path, seed=7, **kw):
    path = tmp_path / f"inst{seed}.json"
    args = dict(sizecat=0, shape="1:1", locked=0, density=2, chambers=3, seed=seed)
    args.update(kw)
    rc = cli(
        [
            "gen",
            "--sizecat", str(args["sizecat"]),
            "--shape", args["shape"],
            "--locked", str(args["locked"]),
            "--density", str(args["density"]),
            "--chambers", str(args["chambers"]),
            "--seed", str(args["seed"]),
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestCuts:
    def test_three_chambers_matches_reference(self, env_cache, tmp_path):
        out = tmp_path / "m3.csv"
        assert cli(["cuts", "--chambers", "3", "--out", str(out)]) == 0
        got = set(out.read_text().splitlines())
        want = set(open(f"{DATA}/cuts_n3_reference.csv").read().splitlines())
        assert got == want

    def test_stdout_output(self, env_cache, capsys):
        assert cli(["cuts", "--chambers", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A,B,AB"
        assert len(lines) == 3

    def test_raw_flag(self, env_cache, capsys):
        assert cli(["cuts", "--chambers", "2", "--raw"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # header + 3 raw rows

    def test_graph_dump(self, env_cache, tmp_path):
        gout = tmp_path / "g.csv"
        assert cli(["cuts", "--chambers", "2", "--graph-out", str(gout), "--out", str(tmp_path / "m.csv")]) == 0
        lines = gout.read_text().splitlines()
        assert lines[0] == "kind,first,second"
        assert "recipe,AB," in lines
        assert "edge,A,B" in lines

    def test_out_of_range_is_domain_error(self, env_cache):
        assert cli(["cuts", "--chambers", "12"]) == 1


class TestGenSolve:
    def test_generated_instance_solves_optimal(self, env_cache, tmp_path):
        inst = gen_instance(tmp_path)
        out = tmp_path / "sol.json"
        rc = cli(["solve", "--model", "generalized", str(inst), "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())
        assert sol["status"] == "Optimal"
        assert sol["rho"] > 0
        assert sol["model"] == "generalized"

    def test_all_models_run(self, env_cache, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        for model in ("basic", "serial", "generalized", "alternative"):
            assert cli(["solve", "--model", model, str(inst)]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == "Optimal"

    def test_reference_instance_rho(self, env_cache, capsys):
        rc = cli(["solve", "--model", "alternative", f"{DATA}/example1.json"])
        assert rc == 0
        sol = json.loads(capsys.readouterr().out)
        assert sol["rho"] == pytest.approx(330.0, abs=1e-6)

    def test_missing_file(self, env_cache, capsys):
        assert cli(["solve", "--model", "basic", "nope.json"]) == 1

    def test_negative_seed_is_an_error(self, env_cache, tmp_path, capsys):
        # numpy's generator refuses it with a ValueError, which was a traceback
        argv = ["gen", "--sizecat", "0", "--shape", "1:1", "--locked", "0",
                "--density", "1", "--chambers", "3", "--seed", "-5"]
        assert cli(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        with pytest.raises(DomainError, match="seed must be >= 0"):
            GenParams(0, "1:1", 0, 1, 3, -1)

    @pytest.mark.parametrize("bad", ['"demand": Infinity', '"demand": "lots"'])
    def test_malformed_instance_exits_1(self, env_cache, tmp_path, capsys, bad):
        text = (Path(DATA) / "example1.json").read_text()
        path = tmp_path / "bad.json"
        path.write_text(re.sub(r'"demand": [0-9.]+', bad, text, count=1))
        assert cli(["solve", "--model", "basic", str(path)]) == 1
        assert "jobs[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
    def test_unreadable_instance_exits_1(self, env_cache, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        for command in (
            ["solve", "--model", "basic"],
            ["verify", "--samples", "1"],
            ["export-lp", "--model", "basic", "--out", str(tmp_path / "bad.lp")],
        ):
            assert cli([*command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "bad.lp").exists()

    @pytest.mark.parametrize(
        "keep, why",
        [
            (1, "no cut rows"),
            (2, "not the reduced cut matrix of 3 chambers"),
            (None, "expected 7 cells"),
        ],
        ids=["header-only", "one-row", "mid-row"],
    )
    def test_truncated_cut_cache_is_rebuilt(self, tmp_path, monkeypatch, capsys, keep, why):
        """A cut cache cut short is rebuilt with a warning, never read as a
        matrix with fewer rows (which gave rho 0.0 on this instance)."""
        cache = tmp_path / "truncated"
        cache.mkdir()
        reference = Path(f"{DATA}/cuts_n3_reference.csv").read_text()
        lines = reference.splitlines(keepends=True)
        cut = "".join(lines[:keep]) if keep else reference[: len(lines[0]) + 5]
        (cache / "cuts_n3.csv").write_text(cut)
        monkeypatch.setenv("CLUSTERCAP_CACHE", str(cache))
        args = ["solve", "--model", "generalized", f"{DATA}/example1.json"]
        with pytest.warns(UserWarning, match=f"cuts_n3.csv.*{why}"):
            assert cli(args) == 0
        assert json.loads(capsys.readouterr().out)["rho"] == pytest.approx(330.0, abs=1e-6)
        assert sorted(cache.iterdir()) == [cache / "cuts_n3.csv"]
        rebuilt = read_matrix_csv(cache / "cuts_n3.csv", reduced=True)
        assert set(rebuilt.rows) == set(read_matrix_csv(f"{DATA}/cuts_n3_reference.csv", reduced=True).rows)

    def test_bad_model_is_usage_error(self, env_cache, tmp_path):
        inst = gen_instance(tmp_path)
        assert cli(["solve", "--model", "quantum", str(inst)]) == 2


class TestVerify:
    def test_verify_passes_on_generated(self, env_cache, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        rc = cli(["verify", str(inst), "--samples", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out

    def test_verify_reference_instance(self, env_cache, capsys):
        rc = cli(["verify", f"{DATA}/example1.json", "--samples", "20"])
        assert rc == 0

    def test_agreement_is_relative_to_rho(self, env_cache):
        """Rates x2^20 and demands x2^-20 put rho near 8e-11, where a gap
        divided by max(1, |rho|) passes any two answers: the check passes
        exactly when the two solved rhos agree within VERIFY_TOL relative."""
        inst = generate(GenParams(1, "1:4", 3, 2, 4, 1))
        rate, demand = 2.0**20, 2.0**-20
        inst = replace(
            inst,
            jobs=tuple(replace(j, demand=j.demand * demand) for j in inst.jobs),
            qualifications=tuple(
                replace(q, chamber_rates=tuple((c, r * rate) for c, r in q.chamber_rates))
                for q in inst.qualifications
            ),
            rate_overrides=tuple(replace(o, rate=o.rate * rate) for o in inst.rate_overrides),
        )
        gen = solve_capacity(inst, "generalized").rho
        alt = solve_capacity(inst, "alternative").rho
        agree = abs(gen - alt) <= VERIFY_TOL * max(abs(gen), abs(alt))
        checks = {name: ok for name, ok, _ in verify_instance(inst, samples=5)}
        assert checks["generalized and alternative agree"] == agree

    def test_negative_seed_is_an_error(self, env_cache, capsys):
        assert cli(["verify", f"{DATA}/example1.json", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        with pytest.raises(DomainError, match="seed must be >= 0"):
            verify_instance(read_instance(f"{DATA}/example1.json"), samples=1, seed=-1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_an_error(self, env_cache, capsys, samples):
        rc = cli(["verify", f"{DATA}/example1.json", "--samples", str(samples)])
        assert rc == 1
        assert "samples must be >= 1" in capsys.readouterr().err
        with pytest.raises(DomainError, match="samples"):
            verify_instance(read_instance(f"{DATA}/example1.json"), samples=samples)


class TestExportLp:
    def test_export_and_reparse(self, env_cache, tmp_path):
        from clustercap import lp

        inst = gen_instance(tmp_path)
        out = tmp_path / "model.lp"
        rc = cli(["export-lp", "--model", "generalized", str(inst), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("\\")
        sol = lp.solve(read_lp_text(text).problem())
        assert sol.status == lp.OPTIMAL


class TestBench:
    def test_report_schema(self, env_cache, tmp_path):
        a = gen_instance(tmp_path, seed=1)
        b = gen_instance(tmp_path, seed=2)
        out = tmp_path / "report.csv"
        rc = cli(["bench", str(a), str(b), "--reps", "2", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        bench_rows = [r for r in rows if r["record_type"] == "bench"]
        summary_rows = [r for r in rows if r["record_type"] == "summary"]
        assert len(bench_rows) == 2 * 2 * 2  # instances x models x reps
        assert len(summary_rows) == 2
        for r in bench_rows:
            assert r["status"] == "Optimal"
            assert float(r["solve_ms"]) >= 0
            assert int(r["nonzeros"]) > 0
            assert int(r["iterations"]) >= 0
            # the generalized model adds cut rows over rounds, the other runs once
            assert int(r["rounds"]) >= 1 if r["model"] == "generalized" else r["rounds"] == "1"
        assert out.read_text().splitlines()[0].endswith(",iterations,rounds")
        for r in summary_rows:
            assert float(r["speedup_gen_over_alt"]) > 0
            assert 0.5 < float(r["nonzeros_gen_over_alt"]) < 50

    def test_rhos_agree_across_models(self, env_cache, tmp_path):
        inst = gen_instance(tmp_path, seed=3)
        records, _ = run_bench([str(inst)], ["generalized", "alternative"], reps=1)
        rhos = {r.model: r.result.rho for r in records}
        assert rhos["generalized"] == pytest.approx(rhos["alternative"], rel=1e-6)

    def test_records_hold_the_solve_result(self, env_cache, tmp_path):
        """Each record holds the `CapacityResult` of its solve: equal, but for
        its timings, to the result of solving the instance directly."""
        path = gen_instance(tmp_path, seed=3)
        kinds = list(clustercap.models.MODEL_KINDS)
        records, _ = run_bench([str(path)], kinds, reps=2)
        inst = read_instance(path)
        untimed = {"build_ms": 0.0, "solve_ms": 0.0}
        want = {kind: replace(solve_capacity(inst, kind), **untimed) for kind in kinds}
        assert [(r.model, r.rep) for r in records] == [(k, rep) for k in kinds for rep in (0, 1)]
        for r in records:
            assert r.error == "" and r.status == r.result.status == "Optimal"
            assert replace(r.result, **untimed) == want[r.model]

    def test_missing_instance_recorded_not_fatal(self, env_cache, tmp_path):
        good = gen_instance(tmp_path, seed=4)
        out = tmp_path / "report.csv"
        rc = cli(["bench", "missing.json", str(good), "--reps", "1", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        statuses = {r["instance"]: r["status"] for r in rows if r["record_type"] == "bench"}
        assert any(s.startswith("Error") for s in statuses.values())
        # an instance that never reached HiGHS ran no rounds
        assert {r["rounds"] for r in rows if r["status"].startswith("Error")} == {"0"}
        assert any(s == "Optimal" for s in statuses.values())

    @pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
    def test_unreadable_instance_recorded_not_fatal(self, env_cache, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        records, _ = run_bench([str(path)], ["basic"], reps=1)
        assert len(records) == 1 and records[0].status.startswith(f"Error: {path}: ")

    def test_instance_without_cut_matrix_recorded_not_fatal(self, env_cache, tmp_path):
        """A 6-chamber instance is valid but has no cut matrix: its
        generalized records are errors, and everything else still runs."""
        good = gen_instance(tmp_path, seed=4)
        six = {**json.loads(good.read_text()), "chambers": 6, "name": "six"}
        path = tmp_path / "six.json"
        path.write_text(json.dumps(six))
        out = tmp_path / "report.csv"
        rc = cli(["bench", str(good), str(path), "--reps", "2", "--out", str(out)])
        assert rc == 0
        rows = csv.DictReader(out.read_text().splitlines())
        bench = [r for r in rows if r["record_type"] == "bench"]
        got = [(r["instance"], r["model"], r["status"]) for r in bench]
        name = read_instance(good).name
        why = "Error: no reduced cut matrix for 6 chambers, only for 1..5"
        assert got == [
            *[(name, "generalized", "Optimal")] * 2,
            *[(name, "alternative", "Optimal")] * 2,
            *[("six", "generalized", why)] * 2,
            *[("six", "alternative", "Optimal")] * 2,
        ]

    def test_workers_give_same_records(self, env_cache, tmp_path):
        paths = [str(gen_instance(tmp_path, seed=s)) for s in (5, 6)]
        seq_records, seq_sum = run_bench(paths, ["alternative"], reps=1, workers=1)
        par_records, par_sum = run_bench(paths, ["alternative"], reps=1, workers=2)
        assert [(r.instance, r.model, r.result.rho) for r in seq_records] == [
            (r.instance, r.model, r.result.rho) for r in par_records
        ]

    def test_workers_change_only_the_timings(self, env_cache, tmp_path):
        """The report of `bench --workers 2` is that of one worker, but for
        the columns that hold times."""
        paths = [str(gen_instance(tmp_path, seed=s)) for s in (5, 6)]
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.csv"
            argv = ["bench", *paths, "--reps", "2", "--workers", workers, "--out", str(out)]
            assert cli(argv) == 0
            rows = list(csv.DictReader(out.read_text().splitlines()))
            for row in rows:
                for timed in ("build_ms", "solve_ms", "speedup_gen_over_alt"):
                    row.pop(timed)
            reports.append(rows)
        assert len(reports[0]) == 10 and reports[0] == reports[1]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_no_workers_is_an_error(self, env_cache, tmp_path, workers):
        inst = str(gen_instance(tmp_path, seed=9))
        with pytest.raises(DomainError, match="workers must be >= 1"):
            run_bench([inst], ["alternative"], reps=1, workers=workers)
        assert cli(["bench", inst, "--workers", str(workers), "--out", "/dev/null"]) == 1

    def test_no_models_is_an_error(self, env_cache, capsys):
        # a list of blanks used to print only the CSV header and exit 0
        inst = f"{DATA}/example1.json"
        with pytest.raises(DomainError, match="no model kinds"):
            run_bench([inst], [], reps=1)
        assert cli(["bench", inst, "--models", " , ", "--out", "/dev/null"]) == 1
        assert "no model kinds" in capsys.readouterr().err

    def test_empty_models_list_is_error(self, env_cache, tmp_path):
        inst = gen_instance(tmp_path, seed=8)
        assert cli(["bench", str(inst), "--models", "warp", "--out", "/dev/null"]) == 1


EXAMPLE1 = f"{DATA}/example1.json"

# each subcommand that needs the n = 3 cut matrix, on the shipped instance
# (its output files under the test's directory)
CACHE_COMMANDS = {
    "cuts": lambda out: ["cuts", "--chambers", "3", "--out", str(out / "m3.csv")],
    "solve": lambda out: ["solve", "--model", "generalized", EXAMPLE1,
                          "--out", str(out / "s.json")],
    "verify": lambda out: ["verify", "--samples", "5", EXAMPLE1],
    "bench": lambda out: ["bench", "--models", "generalized", "--reps", "1", EXAMPLE1,
                          "--out", str(out / "b.csv")],
    "export-lp": lambda out: ["export-lp", "--model", "generalized", EXAMPLE1,
                              "--out", str(out / "m.lp")],
}


class TestCacheLocation:
    """CLUSTERCAP_CACHE, or else ~/.cache/clustercap, is the one place the
    cut matrices are cached; no subcommand takes a location of its own."""

    @pytest.mark.parametrize("command", CACHE_COMMANDS)
    def test_the_variable_places_the_cache(self, tmp_path, monkeypatch, capsys, command):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("CLUSTERCAP_CACHE", str(tmp_path / "cache"))
        assert cli(CACHE_COMMANDS[command](tmp_path)) == 0
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["cuts_n3.csv"]
        assert not list(home.iterdir())

    @pytest.mark.parametrize("command", CACHE_COMMANDS)
    def test_the_cache_flag_is_gone(self, tmp_path, capsys, command):
        assert cli([*CACHE_COMMANDS[command](tmp_path), "--cache", str(tmp_path / "d")]) == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("where", ["under-a-file", "home-is-dev-null"])
    def test_an_unwritable_cache_only_warns(self, tmp_path, monkeypatch, capsys, where):
        """`clustercap solve` gives the same JSON as with a writable cache and
        exits 0, with a warning naming the path and the error; it used to
        exit 1 after the matrix was built."""
        monkeypatch.setenv("CLUSTERCAP_CACHE", str(tmp_path / "writable"))
        assert cli(["solve", "--model", "generalized", EXAMPLE1]) == 0
        want = capsys.readouterr().out
        env = {**os.environ, "PYTHONPATH": str(Path(clustercap.__file__).parents[1])}
        if where == "under-a-file":
            (tmp_path / "file").write_text("")
            env["CLUSTERCAP_CACHE"] = str(tmp_path / "file" / "cache")
            path = tmp_path / "file" / "cache" / "cuts_n3.csv"
        else:
            env["HOME"] = "/dev/null"
            del env["CLUSTERCAP_CACHE"]
            path = Path("/dev/null/.cache/clustercap/cuts_n3.csv")
        done = subprocess.run(
            [sys.executable, "-m", "clustercap.cli", "solve", "--model", "generalized", EXAMPLE1],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == want
        warning = f"UserWarning: cut cache not written to {path}: [Errno 20] Not a directory"
        assert warning in done.stderr


class TestUsage:
    def test_unknown_subcommand(self):
        assert cli(["teleport"]) == 2

    def test_no_arguments(self):
        assert cli([]) == 2

    def test_help_exits_zero(self):
        assert cli(["--help"]) == 0
