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
(entries in {0, 1/2, 1}, at most MASK_WIDTH columns) four stages decide the
rows, each by a proof rather than a guess:

1. Direction certificates, on every row.  A row that is the strict unique
   argmax of <a, x> over the whole set, for some x >= 0, is a vertex: the
   face that x exposes has a vertex, every vertex is a row, and only this
   row attains the maximum.  The directions are integer vectors in
   [0, CERT_BOUND]^n from a fixed-seed generator, scored CERT_CHUNK at a
   time as a (directions x rows) float32 block, which keeps the block
   small.  Every score is a multiple of 1/2 and at most
   CERT_BOUND * MASK_WIDTH < 2^16, so every partial sum is a whole number
   of halves below 2^17, which float32 (a 24-bit significand) holds
   exactly in any summation order: a tie is a real tie.
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
3. Perceptron certificates, on the rows alive and still uncertified.  For
   each such row b an integer direction d >= 0 starts at 2b; while some
   other alive row scores at least <b, d>, the best such a_j moves it to
   max(0, d + 2b - 2a_j).  Once b is the strict unique argmax of <a, d> over
   the alive rows it is a vertex of conv(alive) - R+^n, by the argument of
   stage 1, and that polyhedron is conv(set) - R+^n because every dropped
   row is redundant.  A row not certified within PERCEPTRON_STEPS scorings
   goes on to stage 4.  Each step scores every pending row at once, as one
   (pending x alive) float32 product.  An update adds at most 2 to an
   entry, so d stays in [0, 2 + 2 * PERCEPTRON_STEPS]^n; every score is
   then a multiple of 1/2 and at most (2 + 2 * PERCEPTRON_STEPS) *
   MASK_WIDTH, so its partial sums are whole numbers of halves below 2^24,
   exact in float32 as in stage 1.
4. Separation LPs.  The rows neither dropped nor certified are tested one
   by one by `is_redundant_lp`, in lexicographic order, against the rows
   still alive, and dropped when redundant.

Any other input goes through stage 4 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DomainError, LpSolverError

WITNESS_SLACK = 1e-7

HALF_INTEGRAL = (0.0, 0.5, 1.0)
MASK_WIDTH = 63  # columns an int64 bit mask holds
PAIR_BLOCK = 256  # candidate rows per side of one block of pair tests
CERT_SEED = 1605
CERT_BATCHES = 20
CERT_BATCH_SIZE = 1000
CERT_BOUND = 1024
CERT_CHUNK = 200  # directions scored at once
PERCEPTRON_STEPS = 64  # scorings per row before stage 4 takes it

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


def _check_direction(b: np.ndarray, a: np.ndarray, x: np.ndarray):
    if np.any(x < -WITNESS_SLACK):
        raise LpSolverError("separating direction has negative entries")
    gaps = (b - a) @ x
    if np.any(gaps < 1.0 - WITNESS_SLACK):
        raise LpSolverError("separating direction does not separate")


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


def _pack(flags: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as one int64 bit mask."""
    return flags.astype(np.int64) @ _BITS[: flags.shape[1]]


def _some_pair_fits(zero: np.ndarray, below: np.ndarray) -> bool:
    """Whether zero[i] & below[j] == zero[j] & below[i] == 0 for some i, j
    (i = j allowed), testing at most PAIR_BLOCK rows against PAIR_BLOCK."""
    for p in range(0, len(zero), PAIR_BLOCK):
        zp, bp = zero[p : p + PAIR_BLOCK, None], below[p : p + PAIR_BLOCK, None]
        for q in range(p, len(zero), PAIR_BLOCK):
            zq, bq = zero[q : q + PAIR_BLOCK], below[q : q + PAIR_BLOCK]
            if not ((zp & bq) | (zq & bp)).all():
                return True
    return False


def _is_half_integral(arr: np.ndarray) -> bool:
    return arr.ndim == 2 and arr.shape[1] <= MASK_WIDTH and bool(np.isin(arr, HALF_INTEGRAL).all())


def _half_integral_rows(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if not _is_half_integral(arr):
        raise DomainError(
            "the pair test and the direction certificates take a set of rows with "
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


def direction_certified(rows) -> np.ndarray:
    """Stage 1: mask of the rows that are the strict unique argmax of <a, x>
    over `rows` for a sampled integer direction x in [0, CERT_BOUND]^n.

    Each such row is a vertex of conv(rows) - R+^n.  `rows` must be
    half-integral, at most MASK_WIDTH wide.
    """
    members = _half_integral_rows(rows).astype(np.float32).T
    rng = np.random.default_rng(CERT_SEED)
    out = np.zeros(members.shape[1], dtype=bool)
    for _ in range(CERT_BATCHES):
        if out.all():
            break
        x = rng.integers(0, CERT_BOUND + 1, size=(members.shape[0], CERT_BATCH_SIZE))
        x = x.T.astype(np.float32)
        for c in range(0, CERT_BATCH_SIZE, CERT_CHUNK):
            scores = x[c : c + CERT_CHUNK] @ members  # one row per direction
            best = scores.argmax(axis=1)
            each = np.arange(len(best))
            top = scores[each, best]
            scores[each, best] = -np.inf  # the runner-up is the new row max
            out[best[scores.max(axis=1) < top]] = True
    return out


def perceptron_certified(rows, alive, todo) -> np.ndarray:
    """Stage 3: mask of the rows in `todo` and `alive` that are the strict
    unique argmax of <a, d> over the rows in `alive`, for an integer
    direction d >= 0 found in at most PERCEPTRON_STEPS scorings.

    Each such row is a vertex of conv(alive rows) - R+^n.  `rows` must be
    half-integral, at most MASK_WIDTH wide.
    """
    arr = _half_integral_rows(rows)
    alive = np.asarray(alive, dtype=bool)
    members = np.flatnonzero(alive)
    pending = np.flatnonzero(alive & np.asarray(todo, dtype=bool))
    a = arr[members].astype(np.float32)
    b = arr[pending].astype(np.float32)
    own = np.searchsorted(members, pending)  # each pending row's column
    d = 2 * b
    out = np.zeros(len(arr), dtype=bool)
    left = np.arange(len(pending))  # the pending rows not yet certified
    for _ in range(PERCEPTRON_STEPS):
        if not left.size:
            break
        scores = d[left] @ a.T  # one row per pending row
        each = np.arange(len(left))
        top = scores[each, own[left]]
        scores[each, own[left]] = -np.inf
        best = scores.argmax(axis=1)
        won = scores[each, best] < top
        out[pending[left[won]]] = True
        left, best = left[~won], best[~won]
        d[left] = np.maximum(d[left] + 2 * b[left] - 2 * a[best], 0)
    return out


def separate_remaining(rows, alive: np.ndarray, settled: np.ndarray) -> int:
    """Stage 4: one pass of separation LPs, in order, over the rows alive
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

    Equal members count once.  Half-integral sets go through the direction
    certificates, the pair prefilter on the rows left uncertified, the
    perceptron on the rows left alive and uncertified, and then separation
    LPs on what is left; other sets through the LPs alone.  One
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
        settled = direction_certified(arr)
        alive = ~pair_dominated(arr, ~settled)
        settled |= perceptron_certified(arr, alive, ~settled)
    separate_remaining(arr, alive, settled)
    return [rows[i] for i in np.flatnonzero(alive)]
