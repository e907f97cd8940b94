"""Smoke tests of the scripts under `scripts/`."""

import csv
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import clustercap
from clustercap import GenParams
from clustercap.cli import BENCH_HEADER
from clustercap.cuts import DATA_DIR

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "bench_layers.py"


def bench_layers(*args, env=None):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, env=env
    )


def test_bench_layers_adds_an_oracles_run_to_the_stored_ones(tmp_path):
    out = tmp_path / "BENCH_oracles.json"
    out.write_text(json.dumps({"runs": {"earlier": {"tree": "abc1234", "chambers": {}}}}))
    done = bench_layers("oracles", "--label", "now", "--repeats", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert set(doc["runs"]) == {"earlier", "now"}
    chambers = doc["runs"]["now"]["chambers"]
    assert set(chambers) == {"n=3", "n=4", "n=5"}
    for entry in chambers.values():
        assert entry["draws"] == 64
        assert entry["max_dev"] <= 1e-6

    unknown = bench_layers("nosuchlayer", "--label", "now", "--out", str(tmp_path / "x.json"))
    assert unknown.returncode == 2
    assert not (tmp_path / "x.json").exists()


def test_bench_layers_reduce_runs_the_stages(tmp_path):
    out = tmp_path / "BENCH_reduce.json"
    done = bench_layers("reduce", "--label", "now", "--repeats", "3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    run = json.loads(out.read_text())["runs"]["now"]
    stages = {"enumerate", "collapse", "orbits", "perceptron", "lps"}
    assert set(run["stage_s"]) == set(run["stage_best_s"]) == stages
    assert all(run["stage_best_s"][k] <= run["stage_s"][k] for k in stages)
    assert run["counts"] == {
        "covers": 7579,
        "raw_rows": 2645,
        "orbits": 86,
        "certified": 29,
        "dropped": 57,
        "lps": 0,
        "kept": 590,
    }
    assert run["matches_reference"] is True


def test_bench_layers_startup_times_fresh_interpreters(tmp_path):
    """The solve child reads the shipped cut matrix and writes nothing
    under HOME; only the children that solve an LP import scipy.  The plan
    instances are at sizecat 0, which the run records, so that the plan
    child takes well under a second."""
    out = tmp_path / "BENCH_startup.json"
    home = tmp_path / "home"
    home.mkdir()
    env = {**os.environ, "HOME": str(home)}
    args = ("startup", "--label", "now", "--repeats", "1", "--sizecat", "0", "--out", str(out))
    done = bench_layers(*args, env=env)
    assert done.returncode == 0, done.stderr
    assert not list(home.iterdir())
    run = json.loads(out.read_text())["runs"]["now"]
    assert run["sizecat"] == 0
    commands = run["commands"]
    assert set(commands) == {"import", "solve", "gen", "plan", "cuts"}
    for entry in commands.values():
        assert entry["wall_s"] > 0 and entry["max_rss_mb"] > 0
        assert entry["scipy_optimize"] is False
        assert entry["scipy_sparse"] is False
    assert {name: entry["scipy"] for name, entry in commands.items()} == {
        "import": False, "solve": True, "gen": False, "plan": True, "cuts": False
    }


def test_bench_layers_instances_times_each_step(tmp_path):
    out = tmp_path / "BENCH_instances.json"
    done = bench_layers("instances", "--label", "now", "--repeats", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    sizecats = json.loads(out.read_text())["runs"]["now"]["sizecats"]
    assert list(sizecats) == ["sizecat=0", "sizecat=1", "sizecat=2", "sizecat=3"]
    for entry in sizecats.values():
        assert all(entry[k] > 0 for k in ("generate_ms", "validate_ms", "render_ms", "read_ms"))
    assert [entry["tools"] * entry["jobs"] for entry in sizecats.values()] == [100, 400, 1600, 6400]


def test_bench_layers_reads_each_childs_own_peak():
    """A small child that runs after a large one reads its own peak, not
    the largest of all children so far."""
    code = """if True:
        import sys, bench_layers
        big = [sys.executable, "-c", "block = bytearray(64 << 20)"]
        small = [sys.executable, "-c", "pass"]
        print(bench_layers.run_child(big, None)[1], bench_layers.run_child(small, None)[1])
    """
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SCRIPT.parent, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    big, small = map(float, done.stdout.split())
    assert big > 64 > small


def test_a_rewritten_bench_file_does_not_mark_the_tree_dirty(tmp_path):
    def git(*words):
        subprocess.run(["git", "-C", str(tmp_path), *words], check=True, capture_output=True)

    def label():  # the script's directory is the working one, so `-c` imports it
        code = "import sys, bench_layers; print(bench_layers.tree_label(sys.argv[1]))"
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "src")],
            cwd=SCRIPT.parent,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_reduce.json").write_text("{}\n")
    git("init", "-q")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    clean = label()
    assert clean and not clean.endswith("-dirty")
    (tmp_path / "BENCH_reduce.json").write_text('{"runs": {}}\n')
    assert label() == clean
    (tmp_path / "src" / "code.py").write_text("x = 2\n")
    assert label() == clean + "-dirty"


def run_script(name, monkeypatch, tmp_path, *args):
    """Run `scripts/<name>` in this process, its temporary files under `tmp_path`."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [name, *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts `src` in front
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_make_cut_tables_writes_the_shipped_tables(monkeypatch, tmp_path):
    out = tmp_path / "tables"
    args = ["--max-chambers", "3", "--out-dir", str(out)]
    with pytest.raises(SystemExit) as done:
        run_script("make_cut_tables.py", monkeypatch, tmp_path, *args)
    assert done.value.code == 0
    assert sorted(p.name for p in out.iterdir()) == ["cuts_n1.csv", "cuts_n2.csv", "cuts_n3.csv"]
    for n in (1, 2, 3):
        assert (out / f"cuts_n{n}.csv").read_bytes() == (DATA_DIR / f"cuts_n{n}.csv").read_bytes()


def test_make_cut_tables_past_five_chambers_is_an_error(monkeypatch, tmp_path, capsys):
    out = tmp_path / "tables"
    args = ["--max-chambers", "6", "--out-dir", str(out)]
    with pytest.raises(SystemExit) as done:
        run_script("make_cut_tables.py", monkeypatch, tmp_path, *args)
    assert done.value.code == 1
    err = capsys.readouterr().err
    assert err == "error: no reduced cut matrix for 6 chambers, only for 1..5\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "factor, why",
    [
        (["--seeds", "-1"], "seed must be >= 0"),
        (["--sizecats", "4"], "sizecat must be one of"),
        (["--sizecats", "0", "-1"], "sizecat must be one of"),
    ],
    ids=["negative-seed", "sizecat-4", "one-bad-sizecat"],
)
def test_bench_grid_bad_factor_is_an_error(monkeypatch, tmp_path, capsys, factor, why):
    """A factor value the generator refuses gives one `error:` line and exit
    1, before the instance directory is made."""
    out = tmp_path / "grid.csv"
    args = ["--sizecats", "0", "--shapes", "1:1", "--densities", "1", "--chambers", "3"]
    args += [*factor, "--reps", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as done:
        run_script("bench_grid.py", monkeypatch, tmp_path, *args)
    assert done.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {why}") and len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_bench_grid_smallest_grid_is_optimal(monkeypatch, tmp_path):
    out = tmp_path / "grid.csv"
    args = ["--sizecats", "0", "--shapes", "1:1", "--densities", "1", "--chambers", "3"]
    args += ["--reps", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as done:
        run_script("bench_grid.py", monkeypatch, tmp_path, *args)
    assert done.value.code == 0
    lines = out.read_text().splitlines()
    assert tuple(lines[0].split(",")) == BENCH_HEADER
    bench = [r for r in csv.DictReader(lines) if r["record_type"] == "bench"]
    assert sorted(r["model"] for r in bench) == ["alternative", "generalized"]
    assert {r["status"] for r in bench} == {"Optimal"}
    made = [p.name for p in tmp_path.glob("bench_instances_*/*.json")]
    assert made == [f"{GenParams(0, '1:1', 0, 1, 3, 1).name}.json"]


def test_traced_build_reports_the_held_size_and_the_peak():
    """`bench_layers.traced_build` on the shipped instance, in a fresh
    interpreter, as the script itself runs."""
    code = (
        "import json, sys, bench_layers\n"
        "from clustercap import cuts, instances, models\n"
        "inst = instances.read_instance(sys.argv[1])\n"
        "matrix = cuts.read_matrix_csv(sys.argv[2], reduced=True)\n"
        "sizes = {k: bench_layers.traced_build(inst, k, matrix) for k in models.MODEL_KINDS}\n"
        "print(json.dumps(sizes))"
    )
    data = SCRIPTS.parent / "tests" / "data"
    files = [str(data / "example1.json"), str(data / "cuts_n3_reference.csv")]
    done = subprocess.run(
        [sys.executable, "-c", code, *files],
        cwd=SCRIPT.parent,
        env={**os.environ, "PYTHONPATH": str(Path(clustercap.__file__).parents[1])},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    assert set(sizes) == {"basic", "serial", "generalized", "alternative"}
    for held, peak in sizes.values():
        assert 0 < held <= peak < 1
