"""Slow references for the redundancy layer, used only by the tests."""

import numpy as np

from clustercap import is_redundant_lp, lp
from clustercap.errors import LpSolverError
from clustercap.redundancy import (
    BLOCK,
    PERCEPTRON_STEPS,
    RedundancyVerdict,
    _half_integral_rows,
    _validate_inputs,
)

_BITS = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))  # an int64 mask's bits
PIVOT_TOL = 1e-10  # the phase-1 simplex's pivot and ratio-test tolerance
WITNESS_SLACK = 1e-7  # how far a witness may miss, in the hull oracle's checks


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


def _pack(flags: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as one int64 bit mask."""
    return flags.astype(np.int64) @ _BITS[: flags.shape[1]]


def _some_pair_fits(zero: np.ndarray, below: np.ndarray) -> bool:
    """Whether zero[i] & below[j] == zero[j] & below[i] == 0 for some i, j
    (i = j allowed), testing at most BLOCK rows against BLOCK."""
    for p in range(0, len(zero), BLOCK):
        zp, bp = zero[p : p + BLOCK, None], below[p : p + BLOCK, None]
        for q in range(p, len(zero), BLOCK):
            zq, bq = zero[q : q + BLOCK], below[q : q + BLOCK]
            if not ((zp & bq) | (zq & bp)).all():
                return True
    return False


def pair_dominated(rows, todo=None) -> np.ndarray:
    """The pair test: mask of the rows b with a_i + a_j >= 2b entrywise for
    two other rows (i = j allowed).  Each such row lies below their
    midpoint, so it is redundant; the perceptron's midpoint exits drop a
    subset of these rows.

    Only the rows in the mask `todo` (by default every row) are tested, each
    against all the other rows.  Rows are int64 bit masks (entry below 1,
    zero, half): a candidate a_i must be 1 wherever b is 1, and on the half
    entries of b no pair may put a 0 against an entry below 1.  `rows` must
    be distinct and half-integral, at most KEY_WIDTH wide.
    """
    arr = _half_integral_rows(rows, "the pair test")
    out = np.zeros(len(arr), dtype=bool)
    todo = np.ones(len(arr), dtype=bool) if todo is None else np.asarray(todo, dtype=bool)
    below, zero, half = (_pack(f) for f in (arr < 1.0, arr == 0.0, arr == 0.5))
    for k in np.flatnonzero(todo):
        cand = (below & ~below[k]) == 0  # 1 wherever b is 1
        cand[k] = False
        out[k] = _some_pair_fits(zero[cand] & half[k], below[cand] & half[k])
    return out


def perceptron_certified_int(rows, todo=None) -> np.ndarray:
    """The perceptron of `redundancy.perceptron_certified` on the rows in the
    mask `todo` (by default every row), one row at a time in int64 on the
    doubled rows, scoring each row against every other row in index order
    (the first best row moves d)."""
    twice = (2 * np.asarray(rows, dtype=float)).astype(np.int64)
    todo = np.ones(len(twice), dtype=bool) if todo is None else np.asarray(todo, dtype=bool)
    out = np.zeros(len(twice), dtype=bool)
    for i in np.flatnonzero(todo):
        rivals = np.delete(twice, i, axis=0)
        d = twice[i].copy()
        for _ in range(PERCEPTRON_STEPS):
            scores = rivals @ d
            if not len(rivals) or scores.max() < twice[i] @ d:
                out[i] = True
                break
            d = np.maximum(d + twice[i] - rivals[scores.argmax()], 0)
    return out


def _check_direction(b: np.ndarray, a: np.ndarray, x: np.ndarray):
    if np.any(x < -WITNESS_SLACK):
        raise LpSolverError("separating direction has negative entries")
    gaps = (b - a) @ x
    if np.any(gaps < 1.0 - WITNESS_SLACK):
        raise LpSolverError("separating direction does not separate")


def _check_combination(b: np.ndarray, a: np.ndarray, lam: np.ndarray):
    if np.any(lam < -WITNESS_SLACK):
        raise LpSolverError("combination weights have negative entries")
    if abs(lam.sum() - 1.0) > WITNESS_SLACK:
        raise LpSolverError("combination weights do not sum to one")
    if np.any(lam @ a < b - WITNESS_SLACK):
        raise LpSolverError("combination does not dominate the candidate")


def is_redundant_hull(b, a_set) -> RedundancyVerdict:
    """Decide redundancy by convex-combination dominance, without the LP backend.

    Feasibility of  {lam >= 0, sum lam = 1, lam @ A >= b}  is decided by a
    self-contained phase-1 simplex with Bland's rule.  Feasible yields the
    weights; infeasible yields a separating direction recovered from the
    phase-1 duals.
    """
    b, a = _validate_inputs(b, a_set)
    feasible, lam, direction = _hull_phase1(b, a)
    if feasible:
        _check_combination(b, a, lam)
        return RedundancyVerdict(redundant=True, witness=tuple(map(float, lam)), criterion="hull")
    gaps = (b - a) @ direction
    scale = gaps.min()
    if scale <= 0:
        raise LpSolverError("phase-1 certificate failed to separate")
    x = direction / scale
    _check_direction(b, a, x)
    return RedundancyVerdict(redundant=False, witness=tuple(map(float, x)), criterion="hull")


def _hull_phase1(b: np.ndarray, a: np.ndarray):
    """Phase-1 simplex for {lam >= 0, sum lam = 1, lam @ A - s = b, s >= 0}.

    Returns (feasible, lam, direction): lam when feasible, otherwise the
    nonnegative coordinate part of the Farkas dual certificate.
    """
    m, d = a.shape
    rows = d + 1
    ncols = m + d + rows  # lam, surplus, artificials
    t = np.zeros((rows, ncols + 1))
    t[0, :m] = 1.0
    t[0, ncols] = 1.0
    t[1:, :m] = a.T
    for c in range(d):
        t[1 + c, m + c] = -1.0
        t[1 + c, ncols] = b[c]
    for j in range(rows):
        t[j, m + d + j] = 1.0
    basis = list(range(m + d, m + d + rows))
    # phase-1 reduced costs: c=1 on artificials, basis all-artificial
    z = -t.sum(axis=0)
    z[m + d : m + d + rows] = 0.0
    max_iter = 1000 + 50 * ncols
    for _ in range(max_iter):
        enter = -1
        for col in range(m + d):  # artificials never re-enter
            if z[col] < -PIVOT_TOL:
                enter = col
                break
        if enter < 0:
            break
        leave, best = -1, np.inf
        for r in range(rows):
            coef = t[r, enter]
            if coef > PIVOT_TOL:
                ratio = t[r, ncols] / coef
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL and (leave < 0 or basis[r] < basis[leave])
                ):
                    leave, best = r, ratio
        if leave < 0:
            raise LpSolverError("phase-1 simplex lost boundedness (numerical)")
        piv = t[leave, enter]
        t[leave] /= piv
        for r in range(rows):
            if r != leave and t[r, enter] != 0.0:
                t[r] -= t[r, enter] * t[leave]
        z -= z[enter] * t[leave]
        basis[leave] = enter
    else:
        raise LpSolverError("phase-1 simplex iteration limit reached")
    infeas = sum(t[r, ncols] for r in range(rows) if basis[r] >= m + d)
    if infeas <= WITNESS_SLACK:
        lam = np.zeros(m)
        for r, col in enumerate(basis):
            if col < m:
                lam[col] = max(t[r, ncols], 0.0)
        total = lam.sum()
        if total > 0:
            lam = lam / total
        return True, lam, None
    duals = 1.0 - z[m + d : m + d + rows]
    direction = np.maximum(duals[1:], 0.0)
    return False, None, direction
