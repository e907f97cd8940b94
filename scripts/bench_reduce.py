#!/usr/bin/env python3
"""Time each stage of the cold five-chamber cut reduction; write BENCH_reduce.json.

Stages: enumerate (minimal covers), collapse (distinct weight rows),
prefilter (pair test), certify (direction certificates) and lps (separation
LPs on the rest).  Counts: covers, raw rows, rows dropped, certified, LPs run
and rows kept.  Each stage is timed `--repeats` times; the medians go into
the JSON file under `--label`, next to the runs stored under other labels.
The kept rows are checked against the checked-in five-chamber matrix.

    python scripts/bench_reduce.py --label after --repeats 5

`--src` times the package of another checkout under the same script, e.g.
an older commit; a tree without the staged reduction is timed as one LP
stage over every raw weight row, which is what it ran.  BLAS threads are
capped at one, as in the benchmark.
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
STAGES = ("enumerate", "collapse", "prefilter", "certify", "lps")


def one_run(np, cuts, redundancy):
    """Stage seconds, counts and kept coefficient rows of one cold n = 5
    reduction."""
    secs = dict.fromkeys(STAGES, 0.0)
    t = time.perf_counter()
    g = cuts.build_parallel_graph(5)
    covers = cuts.enumerate_minimal_cuts(cuts.double_graph(g))
    secs["enumerate"] = time.perf_counter() - t
    t = time.perf_counter()
    raw = cuts.cuts_to_matrix(g, covers)
    secs["collapse"] = time.perf_counter() - t
    counts = {"covers": len(covers), "raw_rows": len(raw.rows)}
    if not hasattr(redundancy, "pair_dominated"):
        t = time.perf_counter()
        kept = redundancy.reduce_to_minimal([list(r) for r in raw.rows])
        secs["lps"] = time.perf_counter() - t
        counts.update(dropped=0, certified=0, lps=len(raw.rows), kept=len(kept))
        return secs, counts, {tuple(1.0 - v for v in w) for w in kept}
    rows = sorted(set(map(tuple, raw.coeffs.tolist())))
    arr = np.asarray(rows)
    t = time.perf_counter()
    alive = ~redundancy.pair_dominated(arr)
    secs["prefilter"] = time.perf_counter() - t
    counts["dropped"] = len(rows) - int(alive.sum())
    t = time.perf_counter()
    settled = np.zeros(len(rows), dtype=bool)
    settled[alive] = redundancy.direction_certified(arr[alive])
    secs["certify"] = time.perf_counter() - t
    counts["certified"] = int(settled.sum())
    t = time.perf_counter()
    counts["lps"] = redundancy.separate_remaining(arr, alive, settled)
    secs["lps"] = time.perf_counter() - t
    counts["kept"] = int(alive.sum())
    return secs, counts, {rows[i] for i in np.flatnonzero(alive)}


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
    parser.add_argument("--out", default=str(ROOT / "BENCH_reduce.json"))
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    import scipy
    from clustercap import cuts, redundancy

    reference = {r for r in cuts.read_matrix_csv(N5_COPY, reduced=True).coeff_rows()}
    runs = []
    for _ in range(args.repeats):
        secs, counts, kept = one_run(np, cuts, redundancy)
        if kept != reference:
            sys.exit(f"kept rows differ from {N5_COPY.name}: {len(kept)} vs {len(reference)}")
        runs.append(secs)
        print(" ".join(f"{k}={v:.3f}" for k, v in secs.items()), counts, flush=True)

    stage_s = {k: round(statistics.median(r[k] for r in runs), 4) for k in STAGES}
    tree = subprocess.run(
        ["git", "-C", args.src, "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    entry = {
        "tree": tree,
        "repeats": args.repeats,
        "stage_s": stage_s,
        "reduce_s": round(sum(stage_s[k] for k in STAGES[2:]), 4),
        "total_s": round(sum(stage_s.values()), 4),
        "counts": counts,
        "matches_reference": True,
    }
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
    print(json.dumps(entry))


if __name__ == "__main__":
    main()
