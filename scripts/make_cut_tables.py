#!/usr/bin/env python3
"""Emit the reduced cut matrices and a size audit table.

Writes cuts_n<k>.csv for each requested chamber count and prints, per count:
row count, nonzeros of the coefficient rows, and the derived size constants
used by the capacity-model nonzero formulas.  Five chambers takes a few
seconds on first run; results are cached.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clustercap import build_cut_matrix, write_matrix_csv
from clustercap.models import gamma_formula


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="cut_tables")
    parser.add_argument("--max-chambers", type=int, default=5)
    parser.add_argument("--cache", default=None, help="cut-matrix cache directory")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'n':>2} {'rows':>6} {'nonzeros':>9} {'delta_n':>8} {'gamma_n':>8} {'seconds':>8}")
    for n in range(1, args.max_chambers + 1):
        start = time.perf_counter()
        matrix = build_cut_matrix(n, reduce=True, cache_dir=args.cache)
        elapsed = time.perf_counter() - start
        write_matrix_csv(matrix, out_dir / f"cuts_n{n}.csv")
        delta = 1 + len(matrix.rows) + matrix.nonzeros() - 3**n
        print(
            f"{n:>2} {len(matrix.rows):>6} {matrix.nonzeros():>9} "
            f"{delta:>8} {gamma_formula(n):>8} {elapsed:>8.2f}"
        )
    print(f"matrices written to {out_dir}/")


if __name__ == "__main__":
    main()
