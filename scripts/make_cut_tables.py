#!/usr/bin/env python3
"""Build the reduced cut matrices cold and print a size audit table.

Writes cuts_n<k>.csv for each chamber count 1..--max-chambers (at most 5)
and prints, per count: row count, nonzeros of the coefficient rows, the
derived size constants used by the capacity-model nonzero formulas, and the
build time (five chambers take about 0.2 s).  The tables that ship with the
package are this script's output:

    python scripts/make_cut_tables.py --out-dir src/clustercap/data
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clustercap import ClusterCapError, build_cut_matrix, write_matrix_csv
from clustercap.models import gamma_formula


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="cut_tables")
    parser.add_argument("--max-chambers", type=int, default=5)
    args = parser.parse_args()

    built = []
    try:
        for n in range(1, args.max_chambers + 1):
            start = time.perf_counter()
            built.append((n, build_cut_matrix(n), time.perf_counter() - start))
    except ClusterCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'n':>2} {'rows':>6} {'nonzeros':>9} {'delta_n':>8} {'gamma_n':>8} {'seconds':>8}")
    for n, matrix, elapsed in built:
        write_matrix_csv(matrix, out_dir / f"cuts_n{n}.csv")
        delta = 1 + len(matrix.rows) + matrix.nonzeros() - 3**n
        print(
            f"{n:>2} {len(matrix.rows):>6} {matrix.nonzeros():>9} "
            f"{delta:>8} {gamma_formula(n):>8} {elapsed:>8.2f}"
        )
    print(f"matrices written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
