#!/usr/bin/env python3
"""Time the HiGHS solves of the cut models on the benchmark's instances; write BENCH_solve.json.

Instances: the three plan-n5 instances (sizecat 2, n = 5: shapes 1:4, 1:1
with 3 locked chambers, 4:1) and the two verify-n5 ones (sizecat 0 1:1 and
sizecat 1 1:4, 3 locked), all from generator seed 1, as in
`perfbench/workloads.py`.  The n = 5 matrix is the checked-in copy.

Variants, each timed `--repeats` times from model build to checked answer:

* gen_full     the full generalized LP in one dual-simplex run;
* gen_rows     the generalized model by row generation (`solve_capacity`);
* alt_simplex  the alternative model in one dual-simplex run;
* alt_ipm      the alternative model under IPM with crossover.

For each: build_s, solve_s (everything after the build: HiGHS, separation,
contract check), highs_s (inside HiGHS alone), iterations, rounds, rows
added by row generation, and rho.  Times are medians; counts repeat exactly.
rho of gen_rows must match gen_full, and alt_ipm alt_simplex, within 1e-9
relative, or the script exits non-zero.

    python scripts/bench_solve.py --label after --repeats 3

`--src` times the package of another checkout under the same script, e.g.
an older commit; variants that tree cannot run are left out.  BLAS threads
are capped at one, as in the benchmark.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
N5_COPY = ROOT / "perfbench" / "data" / "cuts_n5.csv"
# name -> (sizecat, shape, locked); density 2, five chambers, seed 1
INSTANCES = {
    "plan_1:4": (2, "1:4", 0),
    "plan_1:1_L3": (2, "1:1", 3),
    "plan_4:1": (2, "4:1", 0),
    "verify_s0_1:1_L3": (0, "1:1", 3),
    "verify_s1_1:4_L3": (1, "1:4", 3),
}
TOL = 1e-9


class HighsClock:
    """Wraps the function through which the timed tree runs HiGHS (`lp._run`,
    or `lp.linprog` in a tree without it) to sum its time and record the
    rows held at each run."""

    def __init__(self, lp):
        self.name = "_run" if hasattr(lp, "_run") else "linprog"
        inner = getattr(lp, self.name)

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t
                if self.name == "_run":
                    self.rows.append(len(args[0].rows))

        setattr(lp, self.name, timed)
        self.reset()

    def reset(self):
        self.seconds, self.rows = 0.0, []


def variants(lp, models):
    """name -> fn(inst, matrix) returning (build_s, solve_s, rho, iterations,
    rounds), for the variants this tree can run."""

    def single(kind, method=None):
        def run(inst, matrix):
            t = time.perf_counter()
            built = models.build_model(inst, kind, matrix=matrix)
            t1 = time.perf_counter()
            sol = lp.solve(built.problem) if method is None else lp.solve(built.problem, method)
            return t1 - t, time.perf_counter() - t1, sol.objective, sol.iterations, 1

        return run

    def rows(inst, matrix):
        res = models.solve_capacity(inst, "generalized", matrix=matrix)
        return res.build_ms / 1e3, res.solve_ms / 1e3, res.rho, res.iterations, res.rounds

    out = {"gen_full": single("generalized")}
    if hasattr(lp, "Handle"):
        out["gen_rows"] = rows
    out["alt_simplex"] = single("alternative", getattr(lp, "SIMPLEX", None))
    if hasattr(lp, "IPM"):
        out["alt_ipm"] = single("alternative", lp.IPM)
    return out


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the JSON file")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_solve.json"))
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    import scipy
    from clustercap import cuts, instances, lp, models

    matrix = cuts.read_matrix_csv(N5_COPY, reduced=True)
    clock = HighsClock(lp)
    todo = variants(lp, models)
    results = {}
    for name, (sizecat, shape, locked) in INSTANCES.items():
        inst = instances.generate(instances.GenParams(sizecat, shape, locked, 2, 5, 1))
        results[name] = {}
        for variant, run in todo.items():
            samples = []
            for _ in range(args.repeats):
                clock.reset()
                build_s, solve_s, rho, iterations, rounds = run(inst, matrix)
                samples.append((build_s, solve_s, clock.seconds))
            added = clock.rows[-1] - clock.rows[0] if clock.rows else 0
            entry = {
                key: round(statistics.median(s[k] for s in samples), 4)
                for k, key in enumerate(("build_s", "solve_s", "highs_s"))
            }
            entry.update(iterations=iterations, rounds=rounds, rows_added=added, rho=rho)
            results[name][variant] = entry
            print(name, variant, json.dumps(entry), flush=True)
        got = results[name]
        for fast, slow in (("gen_rows", "gen_full"), ("alt_ipm", "alt_simplex")):
            if fast in got:
                a, b = got[fast]["rho"], got[slow]["rho"]
                gap = abs(a - b) / max(1.0, abs(b))
                got[fast]["rho_gap"] = gap
                if not gap <= TOL:
                    sys.exit(f"{name}: {fast} rho {a!r} vs {slow} {b!r} (rel gap {gap:.2e})")

    tree = subprocess.run(
        ["git", "-C", args.src, "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    entry = {"tree": tree, "repeats": args.repeats, "instances": results}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["what"] = __doc__.split("\n")[0]
    doc.setdefault("host", {}).update(
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        cpu=cpu_model(),
        nproc=os.cpu_count(),
        blas_threads=os.environ["OPENBLAS_NUM_THREADS"],
    )
    doc.setdefault("runs", {})[args.label] = entry
    out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
