"""Redundancy tests for nonnegative constraint vectors and set reduction.

A vector b is redundant with respect to a set A when, for every x >= 0,
<b, x> >= min_i <a_i, x>; its constraint row then never changes the optimum
and can be dropped.  Two equivalent criteria are implemented:

* the separation LP  min 1'x  s.t. (b - a_i)'x >= 1, x >= 0  is infeasible
  exactly when b is redundant (solved through the shared LP backend);
* b is dominated componentwise by a convex combination of the a_i, decided
  by a dedicated phase-1 simplex (independent of the LP backend), which also
  produces the combination weights as a certificate.

The two criteria are duals of each other and must always agree; the second
serves as the oracle for the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DomainError, LpSolverError

WITNESS_SLACK = 1e-7

_PIV_TOL = lp.TOL.pivot


@dataclass(frozen=True)
class RedundancyVerdict:
    """Outcome of one redundancy test.

    witness is a separating direction x (not redundant, criterion "lp" or
    "hull") or a convex-combination weight vector (redundant, criterion
    "hull"); None when the criterion produces no certificate.
    """

    redundant: bool
    witness: tuple[float, ...] | None
    criterion: str


def _validate_inputs(b, a_set) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(b, dtype=float)
    a = np.asarray(a_set, dtype=float)
    if b.ndim != 1 or a.ndim != 2:
        raise DomainError("expected a vector and a nonempty set of vectors")
    if a.shape[0] == 0:
        raise DomainError("reference set must be nonempty")
    if a.shape[1] != b.shape[0]:
        raise DomainError(f"dimension mismatch: {b.shape[0]} vs {a.shape[1]}")
    if np.any(b < 0) or np.any(a < 0):
        raise DomainError("redundancy tests are defined for nonnegative vectors")
    return b, a


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


def lp_problem_for(b, a_set) -> lp.LpProblem:
    """The separation LP as a full problem object (for export/cross-checks)."""
    b, a = _validate_inputs(b, a_set)
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


def is_redundant_lp(b, a_set) -> RedundancyVerdict:
    """Decide redundancy by (in)feasibility of the separation LP.

    Infeasible means redundant.  A feasible solve yields the separating
    direction as witness.  Solver breakdown propagates; it is never mapped
    onto "infeasible".
    """
    b, a = _validate_inputs(b, a_set)
    sol = lp.solve_geq_dense(
        np.ones(b.shape[0]), b[None, :] - a, np.ones(a.shape[0]), name="redundancy_separation"
    )
    if sol.status == lp.INFEASIBLE:
        return RedundancyVerdict(redundant=True, witness=None, criterion="lp")
    if sol.status != lp.OPTIMAL:
        raise LpSolverError(f"separation LP unexpectedly {sol.status}")
    x = np.asarray(sol.x)
    _check_direction(b, a, x)
    return RedundancyVerdict(redundant=False, witness=tuple(map(float, x)), criterion="lp")


def is_redundant_hull(b, a_set) -> RedundancyVerdict:
    """Decide redundancy by convex-combination dominance (the oracle path).

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
            if z[col] < -_PIV_TOL:
                enter = col
                break
        if enter < 0:
            break
        leave, best = -1, np.inf
        for r in range(rows):
            coef = t[r, enter]
            if coef > _PIV_TOL:
                ratio = t[r, ncols] / coef
                if ratio < best - _PIV_TOL or (
                    abs(ratio - best) <= _PIV_TOL and (leave < 0 or basis[r] < basis[leave])
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


def reduce_to_minimal(a_set) -> list[tuple[float, ...]]:
    """Strip redundant members in one deterministic pass.

    Candidates are visited in lexicographic order; each is tested against all
    vectors still retained.  One pass suffices: removing a redundant vector
    leaves conv(set) + R+^n unchanged, and a vector that is not redundant
    against a set is not redundant against any subset of it, so every
    survivor is non-redundant against the final set.  The minimum of <a, x>
    over the set is preserved for every x >= 0.
    """
    rows = sorted(tuple(float(v) for v in row) for row in a_set)
    try:
        arr = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise DomainError("expected a set of equal-length vectors") from exc
    if arr.ndim != 2:
        raise DomainError("expected a set of equal-length vectors")
    alive = np.ones(len(rows), dtype=bool)
    idx = np.arange(len(rows))
    for i in range(len(rows)):
        others = arr[alive & (idx != i)]
        if others.shape[0] and is_redundant_lp(arr[i], others).redundant:
            alive[i] = False
    return [rows[i] for i in range(len(rows)) if alive[i]]
