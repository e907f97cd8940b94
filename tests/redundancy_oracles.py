"""Slow references for the redundancy layer, used only by the tests."""

import numpy as np

from clustercap import is_redundant_lp, lp
from clustercap.errors import LpSolverError
from clustercap.redundancy import (
    CERT_BATCH_SIZE,
    CERT_BATCHES,
    CERT_BOUND,
    CERT_SEED,
    PERCEPTRON_STEPS,
    WITNESS_SLACK,
    RedundancyVerdict,
    _check_direction,
    _validate_inputs,
)

PIVOT_TOL = 1e-10  # the phase-1 simplex's pivot and ratio-test tolerance


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


def direction_certified_f64(rows) -> np.ndarray:
    """The direction certificates on the same directions as
    `redundancy.direction_certified`, scored as one (rows x directions)
    float64 block per draw, with uniqueness by counting the rows at the max."""
    arr = np.asarray(rows, dtype=float)
    rng = np.random.default_rng(CERT_SEED)
    out = np.zeros(len(arr), dtype=bool)
    for _ in range(CERT_BATCHES):
        x = rng.integers(0, CERT_BOUND + 1, size=(arr.shape[1], CERT_BATCH_SIZE))
        scores = arr @ x.astype(float)
        top = scores.max(axis=0)
        unique = (scores == top).sum(axis=0) == 1
        out[scores.argmax(axis=0)[unique]] = True
        if out.all():
            break
    return out


def perceptron_certified_int(rows, alive, todo) -> np.ndarray:
    """The perceptron of `redundancy.perceptron_certified`, one row at a
    time in int64 on the doubled rows, scoring each row against the other
    alive rows in index order (the first best row moves d)."""
    twice = (2 * np.asarray(rows, dtype=float)).astype(np.int64)
    alive = np.asarray(alive, dtype=bool)
    out = np.zeros(len(twice), dtype=bool)
    for i in np.flatnonzero(alive & np.asarray(todo, dtype=bool)):
        rivals = np.flatnonzero(alive)
        rivals = rivals[rivals != i]
        d = twice[i].copy()
        for _ in range(PERCEPTRON_STEPS):
            scores = twice[rivals] @ d
            if not rivals.size or scores.max() < twice[i] @ d:
                out[i] = True
                break
            d = np.maximum(d + twice[i] - twice[rivals[scores.argmax()]], 0)
    return out


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
