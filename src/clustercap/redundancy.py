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
(entries in {0, 1/2, 1}, at most MASK_WIDTH columns) three stages decide the
rows, each by a proof rather than a guess:

1. Perceptron certificates, on every row.  For each row b an integer
   direction d >= 0 starts at 2b; while some other row scores at least
   <b, d>, the best such a_j (the first, on a tie) moves it to
   max(0, d + 2b - 2a_j).  A row that becomes the strict unique argmax of
   <a, d> over the whole set is a vertex: the face that d exposes has a
   vertex, every vertex is a row, and only this row attains the maximum.
   A row not certified within PERCEPTRON_STEPS scorings goes on to stage 2.
   Each step scores up to BLOCK rows at once against every row, as one
   (block x rows) float32 product into a buffer that every step reuses.
   An update adds at most 2 to an entry, so d stays in
   [0, 2 + 2 * PERCEPTRON_STEPS]^n; every score is then a multiple of 1/2
   and at most (2 + 2 * PERCEPTRON_STEPS) * MASK_WIDTH, so its partial sums
   are whole numbers of halves below 2^24, which float32 (a 24-bit
   significand) holds exactly in any summation order: a tie is a real tie.
2. Pair prefilter, on the rows left uncertified.  Row b is dropped when
   two other rows a_i, a_j (i = j allowed), taken from the whole set, give
   a_i + a_j >= 2b entrywise: b lies below their midpoint, so it is
   redundant.  A certified row never passes this test: on its certifying
   direction it would score at most the mean of the scores of a_i and a_j,
   so it would not be the unique argmax.  Skipping it changes no verdict.
   Rows are int64 bit masks (entry below 1, zero, half).  A candidate a_i
   must be 1 wherever b is 1, and on the half entries of b no pair may put
   a 0 against an entry below 1.  All such rows go at once: each lies in
   conv(others) - R+^n, so neither the polyhedron nor its vertex set
   changes.
3. Separation LPs.  The rows neither dropped nor certified are tested one
   by one by `is_redundant_lp`, in lexicographic order, against the rows
   still alive, and dropped when redundant.

Any other input goes through stage 3 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DomainError, LpSolverError

HALF_INTEGRAL = (0.0, 0.5, 1.0)
MASK_WIDTH = 63  # columns an int64 bit mask holds
BLOCK = 256  # rows per side of one block of pair tests or perceptron scorings
PERCEPTRON_STEPS = 24  # scorings per row before the later stages take it

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
    sol = lp.solve_geq_dense(
        np.ones(b.shape[0]), b[None, :] - a, np.ones(a.shape[0]), name="redundancy_separation"
    )
    if sol.status == lp.INFEASIBLE:
        return RedundancyVerdict(redundant=True, witness=None, criterion="lp")
    if sol.status != lp.OPTIMAL:
        raise LpSolverError(f"separation LP unexpectedly {sol.status}")
    return RedundancyVerdict(redundant=False, witness=tuple(map(float, sol.x)), criterion="lp")


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


def _is_half_integral(arr: np.ndarray) -> bool:
    return arr.ndim == 2 and arr.shape[1] <= MASK_WIDTH and bool(np.isin(arr, HALF_INTEGRAL).all())


def _half_integral_rows(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if not _is_half_integral(arr):
        raise DomainError(
            "the pair test and the perceptron take a set of rows with "
            f"entries in {{0, 1/2, 1}}, at most {MASK_WIDTH} wide"
        )
    return arr


def pair_dominated(rows, todo=None) -> np.ndarray:
    """Stage 2: mask of the rows b with a_i + a_j >= 2b entrywise for two
    other rows (i = j allowed).  Each such row is redundant.

    Only the rows in the mask `todo` (by default every row) are tested, each
    against all the other rows.  `rows` must be distinct and half-integral,
    at most MASK_WIDTH wide: a row with a copy would pair with it.
    """
    arr = _half_integral_rows(rows)
    if len(np.unique(arr, axis=0)) != len(arr):
        raise DomainError("the pair test takes distinct rows")
    below, zero, half = (_pack(f) for f in (arr < 1.0, arr == 0.0, arr == 0.5))
    out = np.zeros(len(arr), dtype=bool)
    todo = np.ones(len(arr), dtype=bool) if todo is None else np.asarray(todo, dtype=bool)
    for k in np.flatnonzero(todo):
        cand = (below & ~below[k]) == 0  # 1 wherever b is 1
        cand[k] = False
        out[k] = _some_pair_fits(zero[cand] & half[k], below[cand] & half[k])
    return out


def perceptron_certified(rows) -> np.ndarray:
    """Stage 1: mask of the rows that are the strict unique argmax of <a, d>
    over `rows`, for an integer direction d >= 0 found in at most
    PERCEPTRON_STEPS scorings.

    Each such row is a vertex of conv(rows) - R+^n.  `rows` must be
    half-integral, at most MASK_WIDTH wide.
    """
    a = _half_integral_rows(rows).astype(np.float32)
    out = np.zeros(len(a), dtype=bool)
    block = np.empty((BLOCK, len(a)), dtype=np.float32)  # every step's scores
    for p in range(0, len(a), BLOCK):
        b = a[p : p + BLOCK]
        d = 2 * b
        left = np.arange(len(b))  # the rows of the block not yet certified
        for _ in range(PERCEPTRON_STEPS):
            if not left.size:
                break
            scores = np.matmul(d[left], a.T, out=block[: len(left)])
            each, own = np.arange(len(left)), p + left
            top = scores[each, own]
            scores[each, own] = -np.inf
            best = scores.argmax(axis=1)
            won = scores[each, best] < top
            out[own[won]] = True
            left, best = left[~won], best[~won]
            d[left] = np.maximum(d[left] + 2 * b[left] - 2 * a[best], 0)
    return out


def separate_remaining(rows, alive: np.ndarray, settled: np.ndarray) -> int:
    """Stage 3: one pass of separation LPs, in order, over the rows alive
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

    Equal members count once.  Half-integral sets go through the perceptron
    certificates, the pair prefilter on the rows left uncertified, and then
    separation LPs on what is left; other sets through the LPs alone.  One
    LP pass suffices: removing a redundant vector leaves conv(set) - R+^n
    unchanged, and a vector that is not redundant against a set is not
    redundant against any subset of it, so every survivor is non-redundant
    against the final set.
    The maximum of <a, x> over the set is preserved for every x >= 0.
    """
    rows = sorted({tuple(float(v) for v in row) for row in a_set})
    if not rows or len({len(r) for r in rows}) != 1:
        raise DomainError("expected a set of equal-length vectors")
    arr = np.asarray(rows, dtype=float)
    alive = np.ones(len(rows), dtype=bool)
    settled = np.zeros(len(rows), dtype=bool)
    if _is_half_integral(arr):
        settled = perceptron_certified(arr)
        alive = ~pair_dominated(arr, ~settled)
    separate_remaining(arr, alive, settled)
    return [rows[i] for i in np.flatnonzero(alive)]
