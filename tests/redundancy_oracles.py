"""Slow references for the redundancy layer, used only by the tests."""

import numpy as np

from clustercap import is_redundant_lp, lp


def lp_problem_for(b, a_set) -> lp.LpProblem:
    """The separation LP as a full problem object (for export/cross-checks)."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a_set, dtype=float)
    build = lp.LpBuilder("redundancy_separation", lp.MINIMIZE)
    for j in range(b.shape[0]):
        build.add_var(f"x{j}")
    build.set_objective((j, 1.0) for j in range(b.shape[0]))
    for i in range(a.shape[0]):
        row = b - a[i]
        build.add_constraint(
            f"sep{i}", [(j, float(v)) for j, v in enumerate(row) if v != 0.0], lp.GE, 1.0
        )
    return build.problem()


def one_pass_lp_reduction(a_set) -> list[tuple[float, ...]]:
    """The plain reduction: one separation LP per member, in sorted order,
    against every member still retained."""
    rows = sorted(tuple(float(v) for v in row) for row in a_set)
    arr = np.asarray(rows, dtype=float)
    alive = np.ones(len(rows), dtype=bool)
    idx = np.arange(len(rows))
    for i in range(len(rows)):
        others = arr[alive & (idx != i)]
        if others.shape[0] and is_redundant_lp(arr[i], others).redundant:
            alive[i] = False
    return [rows[i] for i in range(len(rows)) if alive[i]]
