#!/usr/bin/env python3
"""Run the generalized-vs-alternative benchmark over a factor grid.

Generates instances for every combination of the requested factors, solves
both models with repetitions, writes the full CSV report, and prints a
per-(chambers, density) summary of median speedups and nonzero ratios.
"""

import argparse
import itertools
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clustercap.cli import render_bench_csv, run_bench
from clustercap.errors import ClusterCapError
from clustercap.instances import GenParams, generate, write_instance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizecats", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--shapes", nargs="+", default=["1:4", "1:1"])
    parser.add_argument("--locked", type=int, nargs="+", default=[0])
    parser.add_argument("--densities", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--chambers", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="bench_report.csv")
    args = parser.parse_args()
    try:
        return run(args)
    except ClusterCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    # every factor value is checked before the instance directory is made
    grid = [
        GenParams(*factors)
        for factors in itertools.product(
            args.sizecats, args.shapes, args.locked, args.densities, args.chambers, args.seeds
        )
    ]
    tmp = Path(tempfile.mkdtemp(prefix="bench_instances_"))
    paths = []
    for params in grid:
        path = tmp / f"{params.name}.json"
        write_instance(generate(params), path)
        paths.append(str(path))
    print(f"{len(paths)} instances generated under {tmp}")

    records, summaries = run_bench(
        paths, ["generalized", "alternative"], reps=args.reps, workers=args.workers
    )
    Path(args.out).write_text(render_bench_csv(records, summaries))
    print(f"report written to {args.out}")

    groups = {}
    for s in summaries:
        key = (s["params"].get("chambers"), s["params"].get("density"))
        groups.setdefault(key, []).append(s)
    print(f"{'chambers':>8} {'density':>8} {'med speedup':>12} {'med nz ratio':>13}")
    for (n, density), rows in sorted(groups.items()):
        speed = statistics.median(r["speedup_gen_over_alt"] for r in rows)
        ratio = statistics.median(r["nonzeros_gen_over_alt"] for r in rows)
        print(f"{n:>8} {density:>8} {speed:>12.3f} {ratio:>13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
