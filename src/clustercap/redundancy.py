"""Redundancy tests for nonnegative constraint vectors and set reduction.

A vector b is redundant with respect to a set A when, for every x >= 0,
<b, x> <= max_i <a_i, x>; as a row of a max-type bound (the makespan is the
largest <c, x> over the cut coefficient rows c) it then never changes the
optimum and can be dropped.  It is decided here by the separation LP
min 1'x  s.t. (b - a_i)'x >= 1, x >= 0, which is infeasible exactly when b
is redundant (solved through the shared LP backend).  Its dual, b covered
componentwise by a convex combination of the a_i, is decided by a
self-contained phase-1 simplex in the tests, as the oracle for this module.

`reduce_to_minimal` keeps exactly the vertices of conv(set) - R+^n, the
members that are redundant against no other member.  On half-integral sets
(entries in {0, 1/2, 1}, at most MASK_WIDTH columns) two stages decide the
rows, each by a proof rather than a guess:

1. Perceptron certificates and midpoint exits, on every row.  For each row
   b an integer direction d >= 0 starts at 2b; while some other row scores
   at least <b, d>, the best such a_j (the first, on a tie) moves it to
   max(0, d + 2b - 2a_j).  A row that becomes the strict unique argmax of
   <a, d> over the whole set is a vertex: the face that d exposes has a
   vertex, every vertex is a row, and only this row attains the maximum.
   At each step that leaves b uncertified, b is also tested against the
   midpoints of its best competitor a_j and every best competitor a_i it
   has met so far (a_j itself included): if a_i + a_j >= 2b entrywise, b
   lies below the midpoint of two other rows, so it is redundant; it is
   dropped and no longer scored.  A certified row is never below such a
   midpoint: on its certifying direction it would score at most the mean
   of the scores of a_i and a_j, so it would not be the unique argmax.  So
   the midpoint exits change no certificate, and every row is still scored
   against the whole set.  All dropped rows go at once: each lies in
   conv(others) - R+^n, so neither the polyhedron nor its vertex set
   changes.  A row neither certified nor dropped within PERCEPTRON_STEPS
   scorings goes on to stage 2.
   Each step scores up to BLOCK rows at once against every row, as one
   (block x rows) float32 product into a buffer that every step reuses.
   An update adds at most 2 to an entry, so d stays in
   [0, 2 + 2 * PERCEPTRON_STEPS]^n; every score is then a multiple of 1/2
   and at most (2 + 2 * PERCEPTRON_STEPS) * MASK_WIDTH, so its partial sums
   are whole numbers of halves below 2^24, which float32 (a 24-bit
   significand) holds exactly in any summation order: a tie is a real tie.
   The midpoint sums a_i + a_j lie in {0, 1/2, 1, 3/2, 2}, also exact.
2. Separation LPs.  The rows neither dropped nor certified are tested one
   by one by `is_redundant_lp`, in lexicographic order, against the rows
   still alive, and dropped when redundant.  On the cut rows of 1..5
   chambers stage 1 settles every row, so no LP runs.

The perceptron refuses a set with a repeated row: a copy of b would be
b's own midpoint competitor, and both copies would go.

Any other input goes through stage 2 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DomainError, LpSolverError

HALF_INTEGRAL = (0.0, 0.5, 1.0)
MASK_WIDTH = 63  # columns an int64 bit mask holds
BLOCK = 256  # rows per block of perceptron scorings
PERCEPTRON_STEPS = 24  # scorings per row before the separation LPs take it

_BITS = np.left_shift(np.int64(1), np.arange(MASK_WIDTH, dtype=np.int64))


@dataclass(frozen=True)
class RedundancyVerdict:
    """Outcome of one redundancy test.

    witness is a separating direction x when b is not redundant, or a
    certificate of redundancy from a criterion that produces one (None for
    the separation LP, criterion "lp").
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


def is_redundant_lp(b, a_set) -> RedundancyVerdict:
    """Decide redundancy by (in)feasibility of the separation LP.

    Infeasible means redundant.  A feasible solve yields the separating
    direction as witness.  Solver breakdown propagates; it is never mapped
    onto "infeasible".
    """
    b, a = _validate_inputs(b, a_set)
    build = lp.LpBuilder("redundancy_separation", lp.MINIMIZE)
    x = build.add_cols([f"x{j}" for j in range(b.shape[0])])
    build.set_objective([(j, 1.0) for j in x])
    diff = b - a  # row i holds b - a_i; its nonzeros go in row by row
    kept = diff != 0.0
    build.add_rows(
        [str(i) for i in range(len(a))], kept.sum(axis=1), np.nonzero(kept)[1], diff[kept], lp.GE, 1.0
    )
    sol = lp.solve(build.problem())
    if sol.status == lp.INFEASIBLE:
        return RedundancyVerdict(redundant=True, witness=None, criterion="lp")
    if sol.status != lp.OPTIMAL:
        raise LpSolverError(f"separation LP unexpectedly {sol.status}")
    return RedundancyVerdict(redundant=False, witness=tuple(map(float, sol.x)), criterion="lp")


def _pack(flags: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as one int64 bit mask."""
    return flags.astype(np.int64) @ _BITS[: flags.shape[1]]


def _is_half_integral(arr: np.ndarray) -> bool:
    return arr.ndim == 2 and arr.shape[1] <= MASK_WIDTH and bool(np.isin(arr, HALF_INTEGRAL).all())


def _half_integral_rows(rows, stage: str) -> np.ndarray:
    """The rows as a float array, refused unless they are distinct and
    half-integral, at most MASK_WIDTH wide: a row with a copy would be its
    copy's midpoint competitor.  `stage` names the caller in the errors."""
    arr = np.asarray(rows, dtype=float)
    if not _is_half_integral(arr):
        raise DomainError(
            f"{stage} takes a set of rows with entries in {{0, 1/2, 1}}, at most {MASK_WIDTH} wide"
        )
    zero, half = _pack(arr == 0.0), _pack(arr == 0.5)  # together they name the row
    order = np.lexsort((half, zero))
    zero, half = zero[order], half[order]
    if ((zero[1:] == zero[:-1]) & (half[1:] == half[:-1])).any():
        raise DomainError(f"{stage} takes distinct rows")
    return arr


def perceptron_certified(rows) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1: the masks (certified, dropped).  Certified rows are the
    strict unique argmax of <a, d> over `rows`, for an integer direction
    d >= 0 found in at most PERCEPTRON_STEPS scorings: each is a vertex of
    conv(rows) - R+^n.  Dropped rows lie below the midpoint of two rows
    they met as best competitors: each is redundant.

    `rows` must be distinct and half-integral, at most MASK_WIDTH wide.
    """
    a = _half_integral_rows(rows, "the perceptron").astype(np.float32)
    certified = np.zeros(len(a), dtype=bool)
    dropped = np.zeros(len(a), dtype=bool)
    block = np.empty((BLOCK, len(a)), dtype=np.float32)  # every step's scores
    met = np.empty((BLOCK, PERCEPTRON_STEPS), dtype=np.intp)  # best competitor per step
    for p in range(0, len(a), BLOCK):
        b = a[p : p + BLOCK]
        d = 2 * b
        left = np.arange(len(b))  # the rows of the block neither certified nor dropped
        for step in range(PERCEPTRON_STEPS):
            if not left.size:
                break
            scores = np.matmul(d[left], a.T, out=block[: len(left)])
            each, own = np.arange(len(left)), p + left
            top = scores[each, own]
            scores[each, own] = -np.inf
            best = scores.argmax(axis=1)
            won = scores[each, best] < top
            certified[own[won]] = True
            left, best = left[~won], best[~won]
            met[left, step] = best
            mids = a[met[left, : step + 1]] + a[best][:, None]
            below = (mids >= 2 * b[left][:, None]).all(axis=2).any(axis=1)
            dropped[p + left[below]] = True
            left, best = left[~below], best[~below]
            d[left] = np.maximum(d[left] + 2 * b[left] - 2 * a[best], 0)
    return certified, dropped


def separate_remaining(rows, alive: np.ndarray, settled: np.ndarray) -> int:
    """Stage 2: one pass of separation LPs, in order, over the rows alive
    and not settled; each is tested by `is_redundant_lp` against the other
    rows still alive and cleared from `alive` (in place) when redundant.
    Returns the LP count.
    """
    arr = np.asarray(rows, dtype=float)
    solved = 0
    for i in np.flatnonzero(alive & ~settled):
        others = alive.copy()
        others[i] = False
        if not others.any():
            continue
        solved += 1
        alive[i] = not is_redundant_lp(arr[i], arr[others]).redundant
    return solved


def reduce_to_minimal(a_set) -> list[tuple[float, ...]]:
    """The members redundant against no other member, sorted.

    Equal members count once.  Half-integral sets go through the perceptron,
    which certifies vertices and drops rows below a midpoint of two others,
    and then separation LPs on the rows it leaves; other sets through the
    LPs alone.  One
    LP pass suffices: removing a redundant vector leaves conv(set) - R+^n
    unchanged, and a vector that is not redundant against a set is not
    redundant against any subset of it, so every survivor is non-redundant
    against the final set.
    The maximum of <a, x> over the set is preserved for every x >= 0.
    """
    try:
        arr = np.asarray(list(a_set), dtype=float)
    except ValueError:  # rows of different lengths
        arr = None
    if arr is None or arr.ndim != 2 or not len(arr):
        raise DomainError("expected a set of equal-length vectors")
    arr = np.unique(arr, axis=0)  # sorted, each member once
    alive = np.ones(len(arr), dtype=bool)
    settled = np.zeros(len(arr), dtype=bool)
    if _is_half_integral(arr):
        settled, dropped = perceptron_certified(arr)
        alive = ~dropped
    separate_remaining(arr, alive, settled)
    return list(map(tuple, arr[alive].tolist()))
