#!/usr/bin/env python3
"""Time one call of each pairing oracle at three to five chambers; write BENCH_oracles.json.

Oracles: `solve_maxflow` (augmenting paths), `solve_parallelization_lp`
(the pairing LP on HiGHS) and `makespan_via_cuts` (the worst row of the
reduced cut matrix).  Allocations are drawn as `clustercap verify` draws
them: uniform on [0, 10] with about 30 % of the entries zeroed, from a fixed
seed per chamber count.  Every call is timed on its own, `--repeats` times
over the same draws; the per-call medians in ms go into the JSON file under
`--label`, next to the runs stored under other labels.  The matrices are the
checked-in reduced ones (`tests/data` for n = 3, 4, `perfbench/data` for
n = 5).  The script exits non-zero if, on any draw, sum(x) minus the flow
value differs from the cut-row makespan, or the pairing LP from the flow
value, by more than 1e-6.

    python scripts/bench_oracles.py --label after --repeats 5

`--src` times the package of another checkout under the same script, e.g.
an older commit.  BLAS threads are capped at one, as in the benchmark.
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
MATRICES = {
    3: ROOT / "tests" / "data" / "cuts_n3_reference.csv",
    4: ROOT / "tests" / "data" / "cuts_n4_reference.csv",
    5: ROOT / "perfbench" / "data" / "cuts_n5.csv",
}
DRAWS = 64  # allocations per chamber count, as many as verify-n5 draws per pass
TOL = 1e-6


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), "")


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the JSON file")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_oracles.json"))
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    import scipy
    from clustercap import build_parallel_graph, cuts, flows

    results = {}
    for n, path in MATRICES.items():
        g = build_parallel_graph(n)
        matrix = cuts.read_matrix_csv(path, reduced=True)
        m = len(g.recipes)
        rng = np.random.default_rng(1000 + n)
        xs = rng.uniform(0.0, 10.0, (DRAWS, m)) * (rng.random((DRAWS, m)) < 0.7)
        ms = {"maxflow_ms": [], "pairing_lp_ms": [], "cut_rows_ms": []}
        max_dev = 0.0
        for _ in range(args.repeats):
            for x in xs:
                flow, t_flow = timed(flows.solve_maxflow, x, g)
                (_, paired), t_lp = timed(flows.solve_parallelization_lp, x, g)
                span, t_cuts = timed(flows.makespan_via_cuts, x, matrix)
                for key, t in zip(ms, (t_flow, t_lp, t_cuts)):
                    ms[key].append(t)
                dev = max(abs((x.sum() - flow.value) - span), abs(paired - flow.value))
                max_dev = max(max_dev, dev)
        entry = {key: round(statistics.median(v), 4) for key, v in ms.items()}
        entry.update(draws=DRAWS, max_dev=max_dev)
        results[f"n={n}"] = entry
        print(f"n={n}", json.dumps(entry), flush=True)
        if not max_dev <= TOL:
            sys.exit(f"n={n}: the oracles differ by {max_dev:.2e} (more than {TOL:g})")

    tree = subprocess.run(
        ["git", "-C", args.src, "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    entry = {"tree": tree, "repeats": args.repeats, "chambers": results}
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
