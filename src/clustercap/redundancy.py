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
(entries in {0, 1/2, 1}, at most MASK_WIDTH columns) the rows are sorted
and deduplicated once, by exact keys: base-3 numbers of the doubled
entries, KEY_COLUMNS columns per float64 part, which order as the rows do
(`cuts._collapse` deduplicates the raw cut rows by the same keys).  Then
they fall into orbits, and two stages decide them, each by a proof rather
than a guess.

0. Orbits.  A permutation sigma of the columns that maps the set onto
   itself is a linear bijection that keeps R+^n, so it maps conv(set) -
   R+^n onto itself and its vertices onto its vertices: b is a vertex
   exactly when sigma(b) is.  Certificates carry over too: if d certifies
   b then sigma(d) certifies sigma(b), and if a_i + a_j >= 2b then
   sigma(a_i) + sigma(a_j) >= 2 sigma(b).  So, for a group of such
   permutations (`symmetries`, None being the identity group), each orbit
   needs one verdict: stage 1 runs on one representative per orbit, the
   row whose key is the least among the keys of its images, and its
   verdict is spread over the orbit; an orbit it leaves unsettled goes to
   stage 2 member by member.  The n! relabelings of the chambers keep the
   edges of the recipe graph, so they leave the raw cut rows invariant:
   at 5 chambers the 2645 rows fall into 86 orbits.  The set is checked
   to be invariant: every row's least image key must be a
   representative's key, and each orbit, of |group| / |stabilizer| rows,
   must hold as many rows as name its representative (else DomainError).
1. Perceptron certificates and midpoint exits, on each representative
   (every row, for the identity group).  For each row
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
   scorings goes on to stage 2, with its orbit.
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
MASK_WIDTH = 63  # widest half-integral set the perceptron takes (an int64 bit mask's width)
BLOCK = 256  # rows per block of perceptron scorings
PERCEPTRON_STEPS = 24  # scorings per row before the separation LPs take it
KEY_COLUMNS = 32  # columns one float64 base-3 key part holds exactly: 3^32 < 2^53
PERMUTATION_BLOCK = 24  # permutations whose image keys are made at once (2645 rows: 0.5 MB)


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


def _is_half_integral(arr: np.ndarray) -> bool:
    return arr.ndim == 2 and arr.shape[1] <= MASK_WIDTH and bool(np.isin(arr, HALF_INTEGRAL).all())


def _key_parts(digits) -> list[np.ndarray]:
    """The exact keys of rows of base-3 digits (0, 1 or 2: the doubled
    entries of half-integral rows), one float64 array per part.

    Part p keys the columns KEY_COLUMNS * p onwards, KEY_COLUMNS of them, as
    a base-3 number, its first column most significant.  A part is below
    3^KEY_COLUMNS < 2^53, so it is exact in float64, and rows compare as
    their keys compare (the first part primary).  Each part is made by
    Horner steps, one column at a time, so digits of any dtype go in
    without a (rows, columns) float64 copy.  `cuts._collapse` keys the raw
    cut rows with it too."""
    digits = np.asarray(digits)
    parts = []
    for start in range(0, digits.shape[1], KEY_COLUMNS):
        key = np.zeros(len(digits))
        for column in digits.T[start : start + KEY_COLUMNS]:
            key *= 3
            key += column
        parts.append(key)
    return parts


def _key_weights(width: int) -> np.ndarray:
    """(parts, width) float64 weights of `_key_parts`: the key parts of the
    doubled rows `twice` are `weights @ twice.T`, exact in any summation
    order, since each part is below 2^53."""
    return np.array(_key_parts(np.eye(width, dtype=np.int8)))


def _keys(twice: np.ndarray, weights: np.ndarray) -> list[np.ndarray]:
    """The key parts of the doubled rows `twice` under `weights`, one float64
    array per part, of shape (rows,) or, with an axis of weight vectors
    before the columns, (vectors, rows)."""
    return [w @ twice.T for w in weights]


def _steps(parts: list[np.ndarray]) -> np.ndarray:
    """Per pair of consecutive keys, the sign of the later minus the earlier."""
    out = np.zeros(len(parts[0]) - 1)
    for part in parts:
        out = np.where(out == 0, np.sign(np.diff(part)), out)
    return out


def _distinct_order(parts: list[np.ndarray]) -> np.ndarray:
    """The rows of key `parts` in ascending key order, each key once: the
    indices of the first row of each key."""
    order = np.lexsort(parts[::-1])
    return order[np.concatenate(([True], _steps([part[order] for part in parts]) != 0))]


def _lex_min(parts: list[np.ndarray]) -> list[np.ndarray]:
    """The least key along the first axis of (k, rows) key parts."""
    out, tie = [], None
    for k, part in enumerate(parts):
        if tie is not None:
            part = np.where(tie, part, np.inf)
        out.append(part.min(axis=0))
        if k + 1 < len(parts):
            tie = part == out[-1]
    return out


def _lex_less(parts: list[np.ndarray], than: list[np.ndarray]) -> np.ndarray:
    """Per row, whether the key `parts` is below the key `than`."""
    less, tie = np.zeros(len(parts[0]), dtype=bool), np.ones(len(parts[0]), dtype=bool)
    for part, other in zip(parts, than):
        less |= tie & (part < other)
        tie &= part == other
    return less


def _sort_distinct(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Half-integral rows sorted ascending with each row once, and their key
    parts: one sort, none when they come sorted and distinct."""
    parts = _key_parts(2 * arr)
    if len(arr) > 1 and not (_steps(parts) > 0).all():
        keep = _distinct_order(parts)
        arr, parts = arr[keep], [part[keep] for part in parts]
    return arr, parts


def _half_integral_rows(rows, stage: str) -> np.ndarray:
    """The rows as a float array, refused unless they are distinct and
    half-integral, at most MASK_WIDTH wide: a row with a copy would be its
    copy's midpoint competitor.  `stage` names the caller in the errors."""
    arr = np.asarray(rows, dtype=float)
    if not _is_half_integral(arr):
        raise DomainError(
            f"{stage} takes a set of rows with entries in {{0, 1/2, 1}}, at most {MASK_WIDTH} wide"
        )
    if len(_sort_distinct(arr)[0]) < len(arr):
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
    return _perceptron(_half_integral_rows(rows, "the perceptron"), None)


def _perceptron(arr: np.ndarray, todo) -> tuple[np.ndarray, np.ndarray]:
    """`perceptron_certified` on rows already checked, run only on the rows
    in the mask `todo` (None: every row), each scored against every row."""
    a = arr.astype(np.float32)
    certified = np.zeros(len(a), dtype=bool)
    dropped = np.zeros(len(a), dtype=bool)
    run = np.arange(len(a)) if todo is None else np.flatnonzero(todo)
    block = np.empty((BLOCK, len(a)), dtype=np.float32)  # every step's scores
    met = np.empty((BLOCK, PERCEPTRON_STEPS), dtype=np.intp)  # best competitor per step
    for p in range(0, len(run), BLOCK):
        rows = run[p : p + BLOCK]
        b = a[rows]
        d = 2 * b
        left = np.arange(len(b))  # the rows of the block neither certified nor dropped
        for step in range(PERCEPTRON_STEPS):
            if not left.size:
                break
            scores = np.matmul(d[left], a.T, out=block[: len(left)])
            each, own = np.arange(len(left)), rows[left]
            top = scores[each, own]
            scores[each, own] = -np.inf
            best = scores.argmax(axis=1)
            won = scores[each, best] < top
            certified[own[won]] = True
            left, best = left[~won], best[~won]
            met[left, step] = best
            mids = a[met[left, : step + 1]] + a[best][:, None]
            below = (mids >= 2 * b[left][:, None]).all(axis=2).any(axis=1)
            dropped[rows[left[below]]] = True
            left, best = left[~below], best[~below]
            d[left] = np.maximum(d[left] + 2 * b[left] - 2 * a[best], 0)
    return certified, dropped


def _representatives(arr: np.ndarray, own: list[np.ndarray], symmetries) -> np.ndarray:
    """Per row, the index of the representative of its orbit: the row with
    the least key among the row's images under `symmetries`, a group of
    column permutations (None: the identity group).

    The least image key is folded in one block of permutations at a time.
    The set must be invariant: every row's least key must be the key of a
    row that is its own least image (a representative), and each
    representative's orbit, |group| / |stabilizer|, must hold as many rows
    as name it.  Else DomainError.
    """
    width = arr.shape[1]
    if symmetries is None:
        symmetries = np.arange(width)[None, :]
    perms = np.asarray(symmetries)
    if (
        perms.ndim != 2
        or perms.shape[1] != width
        or not np.issubdtype(perms.dtype, np.integer)
        or not (np.sort(perms, axis=1) == np.arange(width)).all()
    ):
        raise DomainError(f"symmetries must be permutations of the {width} columns, one per row")
    twice = 2.0 * arr
    weights = _key_weights(width)
    moved = np.empty((len(weights), len(perms), width))  # the weights seen through each permutation
    moved[:, np.arange(len(perms))[:, None], perms] = weights[:, None, :]
    least = own
    for p in range(0, len(perms), PERMUTATION_BLOCK):
        images = _lex_min(_keys(twice, moved[:, p : p + PERMUTATION_BLOCK]))
        lower = _lex_less(images, least)
        least = [np.where(lower, i, l) for i, l in zip(images, least)]
    is_rep = np.logical_and.reduce([l == o for l, o in zip(least, own)])
    order = np.lexsort(least[::-1])
    starts = np.concatenate(([True], _steps([l[order] for l in least]) != 0))
    orbit = np.cumsum(starts) - 1  # per sorted row, its orbit
    reps = order[is_rep[order]]  # one per orbit when each orbit has one, in orbit order
    stabilizer = np.logical_and.reduce(
        [i == o[reps] for i, o in zip(_keys(twice[reps], moved), own)]
    ).sum(axis=0)
    if len(reps) != orbit[-1] + 1 or (np.bincount(orbit) * stabilizer != len(perms)).any():
        raise DomainError("the symmetries do not leave the set invariant")
    rep_of = np.empty(len(arr), dtype=np.intp)
    rep_of[order] = reps[orbit]
    return rep_of


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


def reduce_to_minimal(a_set, symmetries=None) -> list[tuple[float, ...]]:
    """The members redundant against no other member, sorted.

    Equal members count once.  Half-integral sets go through the perceptron,
    one representative per orbit of `symmetries` (see `_representatives`;
    None is the identity group), which certifies vertices and drops rows
    below a midpoint of two others, each verdict spread over its orbit; then
    separation LPs on the rows it leaves, member by member.  Other sets go
    through the LPs alone, and take no symmetries.  One
    LP pass suffices: removing a redundant vector leaves conv(set) - R+^n
    unchanged, and a vector that is not redundant against a set is not
    redundant against any subset of it, so every survivor is non-redundant
    against the final set.
    The maximum of <a, x> over the set is preserved for every x >= 0.
    """
    try:
        arr = np.asarray(a_set if isinstance(a_set, np.ndarray) else list(a_set), dtype=float)
    except ValueError:  # rows of different lengths
        arr = None
    if arr is None or arr.ndim != 2 or not len(arr):
        raise DomainError("expected a set of equal-length vectors")
    if _is_half_integral(arr):
        arr, keys = _sort_distinct(arr)
        rep_of = _representatives(arr, keys, symmetries)
        certified, dropped = _perceptron(arr, rep_of == np.arange(len(arr)))
        settled, alive = certified[rep_of], ~dropped[rep_of]
    elif symmetries is not None:
        raise DomainError(f"symmetries take a half-integral set, at most {MASK_WIDTH} wide")
    else:
        arr = np.unique(arr, axis=0)  # sorted, each member once
        settled, alive = np.zeros(len(arr), dtype=bool), np.ones(len(arr), dtype=bool)
    separate_remaining(arr, alive, settled)
    return list(map(tuple, arr[alive].tolist()))
