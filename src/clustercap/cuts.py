"""Minimal basic cuts of the doubled recipe graph and the reduced cut matrix.

The parallelization graph is doubled into a bipartite graph (left recipes,
mirrored right recipes, one arc per direction of every edge).  A basic cut is
a vertex cover of the arcs; minimal cuts are complements of maximal
independent sets.  Each cut collapses to a per-recipe weight vector with
entries in {0, 1/2, 1} (half per selected copy); the capacity models consume
the complementary rows (1 - weight).

The covers are enumerated as closed sets.  Write N(i) for the right copies
the left copy of recipe i has arcs to.  A maximal independent set is a pair
(I_L, I_R) with I_R the intersection of R - N(i) over i in I_L, and I_L the
recipes i whose N(i) misses I_R.  So the right halves I_R are exactly the
intersections of the sets R - N(i) (R itself the empty one), and each fixes
its cover: the right copies outside I_R and the left copies whose arcs meet
it.  `_closed_sets` closes the family {R} under intersection with each
R - N(i) in turn, on bit sets.  Every family on the way is part of the final
one, so DEFAULT_NODE_BUDGET caps the sets the enumeration holds.
`build_cut_matrix` runs on arrays from there: the closed sets go into an
int64 array (m bits for m recipes, up to m = 63), the selected copies per
recipe are counted from it as int8, and `_collapse` deduplicates the count
rows by the exact base-3 keys `redundancy` sorts by, one float64 per row,
which give the rows in matrix order (a key holds `redundancy.KEY_WIDTH` =
33 recipes; 5 chambers have 31).  The distinct coefficient rows then go to
`redundancy.reduce_to_minimal` with the n! relabelings of the chambers
(`recipes.chamber_permutations`), which leave the row set invariant: its
perceptron stage certifies one row per orbit and drops the rows below a
midpoint of two others (see that module).  `BasicCut` objects are made only
by `enumerate_minimal_cuts`, for callers that want the covers.

The reduced matrices of n = 1..5 ship with the package, each as its
`render_matrix_csv` text in `data/cuts_n{n}.csv`, which `reduced_matrix(n)`
reads and checks against its pin.  Files are written only where asked.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, EnumerationBudgetError
from .recipes import MAX_CHAMBERS, ParallelGraph, build_parallel_graph, chamber_permutations
from . import redundancy

# closed sets the enumeration may hold: 5 chambers need 7579; 6 chambers pass
# the budget within about 0.05 s, holding about 5 MB
DEFAULT_NODE_BUDGET = 2**16
MASK_RECIPES = 63  # recipes an int64 bit set holds, one bit each: 6 chambers

DATA_DIR = Path(__file__).with_name("data")  # the shipped reduced matrices
# Read by nothing in the package: perfbench checks that the directory it names
# stays empty.
CACHE_ENV_VAR = "CLUSTERCAP_CACHE"

# SHA-256 of render_matrix_csv of the reduced matrix per chamber count (1, 2,
# 5, 23, 590 rows); the closed sets of n = 6 exceed DEFAULT_NODE_BUDGET, so
# there are no others
REDUCED_SHA256 = {
    1: "8ebbd9fe688c1e5442da8aaf95b3ebd6d850c60f8ef42a69a3a4b82f4df064e6",
    2: "fd580b13d0ec4c5a918d4fc42d160b46c4f488370b095f37589b7caebc994449",
    3: "057c743d2fd9e659f1a070592739ad8d4f8802f4dbbb27fe05c81c17886cc432",
    4: "f9c366b31d8a76b0ef1f4dda1f3e6127b919e024b53a2a6364993e8c84ac0098",
    5: "8b66427687158979fe1ec5cbcd484ff04f712c5810372504ae3bf919fe39682b",
}


@dataclass(frozen=True)
class DoubledGraph:
    """Bipartite doubling of a ParallelGraph.

    Arc (i, j) means: left copy of recipe i to right copy of recipe j.  Every
    edge {i, j} of the source graph contributes the two arcs (i, j) and (j, i).
    """

    graph: ParallelGraph
    arcs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.graph.recipes)


@dataclass(frozen=True)
class BasicCut:
    """A minimal vertex cover of the doubled graph.

    `left` / `right` are 0/1 indicators per recipe for the two copies.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def selected(self) -> frozenset[tuple[str, int]]:
        sel = {("L", i) for i, v in enumerate(self.left) if v}
        sel |= {("R", i) for i, v in enumerate(self.right) if v}
        return frozenset(sel)

    def weights(self) -> tuple[float, ...]:
        """Per-recipe cut weight (0, 1/2 or 1): half per selected copy.

        Halves are exact in binary floating point, so the values compare and
        sort exactly."""
        return tuple((l + r) / 2 for l, r in zip(self.left, self.right))


@dataclass(frozen=True)
class CutMatrix:
    """Deduplicated cut weight vectors for one chamber count.

    Rows are sorted lexicographically by the complementary (1 - weight)
    entries, which is also the on-disk and CLI ordering.  Entries are exact
    dyadic rationals stored as floats (0.0, 0.5, 1.0).  reduced=True is
    checked: DomainError unless the CSV hashes to REDUCED_SHA256[n].
    """

    n: int
    labels: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    reduced: bool

    def __post_init__(self):
        if not self.reduced:
            return
        try:
            digest = hashlib.sha256(self.csv_text.encode()).hexdigest()
        except KeyError:  # an entry other than 0, 1/2 or 1
            digest = "unrenderable"
        if digest != REDUCED_SHA256.get(self.n):
            raise DomainError(f"not the reduced cut matrix of {self.n} chambers: SHA-256 mismatch")

    @cached_property
    def csv_text(self) -> str:
        """`render_matrix_csv` of the matrix, rendered once: the pin check
        and the file written share it."""
        return render_matrix_csv(self)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The (1 - weight) rows used as makespan coefficients, one read-only
        array of shape (rows, labels)."""
        out = 1.0 - np.array(self.rows, dtype=float).reshape(len(self.rows), len(self.labels))
        out.flags.writeable = False
        return out

    def coeff_rows(self) -> tuple[tuple[float, ...], ...]:
        """The coefficient rows as tuples."""
        return tuple(map(tuple, self.coeffs.tolist()))

    def nonzeros(self) -> int:
        """Nonzero entries across the coefficient rows."""
        return int(np.count_nonzero(self.coeffs))


def double_graph(g: ParallelGraph) -> DoubledGraph:
    arcs = tuple(arc for i, j in g.edges for arc in ((i, j), (j, i)))
    return DoubledGraph(graph=g, arcs=arcs)


def _neighbours(dg: DoubledGraph) -> list[int]:
    """Per recipe i, the right copies its left copy has arcs to, as a bit set."""
    nbr = [0] * dg.size
    for i, j in dg.arcs:
        nbr[i] |= 1 << j
    return nbr


def _closed_sets(nbr: list[int], node_budget: int) -> set[int]:
    """The right halves I_R of the maximal independent sets, as bit sets: the
    intersections of the sets R - N(i), the empty intersection R included.

    The family {R} is closed under intersection with each R - N(i) in turn
    (the last recipe first, which holds the family smallest on the way).
    Every family on the way is a subset of the final one, so the budget caps
    the sets held: past `node_budget` of them it raises, holding at most
    twice that many.
    """
    full = (1 << len(nbr)) - 1
    family = {full}
    for allowed in reversed(dict.fromkeys(full & ~x for x in nbr if x)):
        family |= {s & allowed for s in family}
        if len(family) > node_budget:
            raise EnumerationBudgetError(len(family), node_budget)
    return family


def enumerate_minimal_cuts(
    dg: DoubledGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[BasicCut]:
    """All minimal vertex covers of the doubled graph, sorted by (left, right).

    The covers of `_closed_sets`, on Python ints, so any number of recipes
    works (within the budget): a cover holds the right copies outside I_R
    and the left copies whose arcs meet I_R.
    """
    m = dg.size
    nbr = _neighbours(dg)
    covers = [
        BasicCut(
            left=tuple(int(x & s != 0) for x in nbr),
            right=tuple(1 - (s >> i & 1) for i in range(m)),
        )
        for s in _closed_sets(nbr, node_budget)
    ]
    covers.sort(key=lambda c: (c.left, c.right))
    return covers


def _check_mask_room(m: int):
    """Refuse more recipes than an int64 bit set holds."""
    if m > MASK_RECIPES:
        raise DomainError(
            f"{m} recipes do not fit an int64 bit set, at most {MASK_RECIPES}: "
            "cut matrices only for 1..5 chambers"
        )


def _cover_counts(sets, nbr: list[int]) -> np.ndarray:
    """The selected copies per recipe (0, 1 or 2) of the cover of each closed
    set, one int8 row each: the right copy of i when i is not in the set,
    plus the left copy of i when N(i) meets it.  No (sets, recipes) array
    wider than int8 is made: the right copies are the bits of the sets'
    little-endian bytes, unpacked whatever the host's byte order, and the
    left copies are added one recipe column at a time."""
    m = len(nbr)
    _check_mask_room(m)
    sets = np.fromiter(sets, dtype="<i8", count=len(sets))
    bits = np.unpackbits(sets.view(np.uint8).reshape(-1, 8), axis=1, count=m, bitorder="little")
    counts = 1 - bits.view(np.int8)
    for i, x in enumerate(nbr):
        counts[:, i] += (sets & x) != 0
    return counts


def _collapse(counts) -> np.ndarray:
    """The distinct rows of per-recipe copy counts (0, 1 or 2), in matrix
    order: the rows 1 - counts / 2 come out lexicographically ascending.

    Each row is keyed as `reduce_to_minimal` keys the coefficient rows
    1 - counts / 2 (`redundancy._keys` of their doubled entries,
    2 - counts), so one keying orders and deduplicates both.  The keys are
    made by Horner steps, one recipe column at a time, so int8 counts are
    never widened as a block.  More than `redundancy.KEY_WIDTH` recipes
    have no exact key: DomainError.
    """
    counts = np.asarray(counts)
    return counts[redundancy._distinct_order(redundancy._keys(2 - counts))]


def _raw_matrix(g: ParallelGraph, counts: np.ndarray) -> CutMatrix:
    rows = tuple(map(tuple, (counts / 2).tolist()))
    return CutMatrix(n=g.n, labels=g.labels, rows=rows, reduced=False)


def cuts_to_matrix(g: ParallelGraph, cuts: list[BasicCut]) -> CutMatrix:
    """Collapse covers to their weight vectors and deduplicate.

    Mirror-symmetric covers (and any other covers sharing a weight profile)
    fold into a single row here, by the collapse `build_cut_matrix` runs,
    so at most `redundancy.KEY_WIDTH` recipes work.  DomainError for an
    empty cover list, for every graph has at least one minimal cover, and
    for a cover without one entry per recipe on each side.
    """
    if not cuts:
        raise DomainError("cuts_to_matrix: no covers to collapse")
    m = len(g.recipes)
    for c in cuts:
        if len(c.left) != m or len(c.right) != m:
            raise DomainError(
                f"cuts_to_matrix: a cover of {len(c.left)} left and {len(c.right)} right "
                f"entries for a graph of {m} recipes"
            )
    copies = np.array([np.add(c.left, c.right) for c in cuts], dtype=np.int64)
    return _raw_matrix(g, _collapse(copies))


def build_cut_matrix(
    n: int,
    reduce: bool = True,
    cache_dir: str | os.PathLike | None = None,
) -> CutMatrix:
    """End-to-end pipeline, computed cold.

    graph -> doubled graph -> minimal covers -> weight rows -> (reduction).
    With a `cache_dir`, an existing directory, a reduced matrix is read from
    `cuts_n{n}.csv` there when that file exists, and otherwise built and
    written there atomically; a file that fails its pin or holds another
    chamber count raises DomainError naming it, and a directory that cannot
    be written raises its OSError.  Without one nothing is written (the
    solvers read `reduced_matrix`).  reduce=True raises DomainError past 5
    chambers, before any enumeration, for there is no pin there;
    reduce=False past 6, where the int64 bit sets have no room, and at 6
    chambers the enumeration passes its budget within about 0.05 s.

    The reduction keeps the coefficient rows (1 - weight) that can be the
    worst one for some x >= 0: the makespan is the largest coefficient row
    applied to x, so a row is dropped when a convex combination of the others
    covers it.  The kept rows stay in matrix order.
    """
    if reduce:
        _check_pinned(n)
        path = None if cache_dir is None else Path(cache_dir, f"cuts_n{n}.csv")
        if path is not None and path.is_file():
            return _read_reduced(path, n)
    g = build_parallel_graph(n)
    _check_mask_room(len(g.recipes))
    nbr = _neighbours(double_graph(g))
    counts = _collapse(_cover_counts(_closed_sets(nbr, DEFAULT_NODE_BUDGET), nbr))
    if not reduce:
        return _raw_matrix(g, counts)
    kept = redundancy.reduce_to_minimal(1.0 - counts / 2, chamber_permutations(n))
    rows = tuple(map(tuple, (1.0 - np.array(kept)).tolist()))
    reduced = CutMatrix(n=n, labels=g.labels, rows=rows, reduced=True)
    if path is not None:
        _atomic_write(path, reduced.csv_text)
    return reduced


def reduced_matrix(n: int) -> CutMatrix:
    """The reduced cut matrix of n chambers, read from the table shipped
    with the package and checked against its pin."""
    _check_pinned(n)
    return _read_reduced(DATA_DIR / f"cuts_n{n}.csv", n)


def _check_pinned(n: int):
    if n not in REDUCED_SHA256:
        raise DomainError(f"no reduced cut matrix for {n} chambers, only for 1..5")


def _read_reduced(path: Path, n: int) -> CutMatrix:
    matrix = read_matrix_csv(path, reduced=True)
    if matrix.n != n:
        raise DomainError(f"{path}: holds the matrix for {matrix.n} chambers, not {n}")
    return matrix


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


_ENTRY = {0.0: "1", 0.5: "0.5", 1.0: "0"}  # weight -> rendered (1 - weight)


def render_matrix_csv(matrix: CutMatrix) -> str:
    """CSV with recipe-label header; cells are the (1 - weight) coefficients."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(matrix.labels)
    for row in matrix.rows:
        writer.writerow([_ENTRY[v] for v in row])
    return buf.getvalue()


def write_matrix_csv(matrix: CutMatrix, path: str | os.PathLike):
    _atomic_write(Path(path), matrix.csv_text)


def read_matrix_csv(path: str | os.PathLike, reduced: bool) -> CutMatrix:
    """Parse a matrix CSV back into weight rows; validates half-integrality
    and, with reduced=True, the pin (see CutMatrix).  Errors name the file."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                labels = tuple(next(reader))
            except StopIteration:
                raise DomainError(f"{path}: empty cut matrix file") from None
            n = max((len(lbl) for lbl in labels), default=0)
            if not 1 <= n <= MAX_CHAMBERS or labels != build_parallel_graph(n).labels:
                raise DomainError(
                    f"{path}: header is not the canonical recipe list for {n} chambers"
                )
            rows = []
            for lineno, cells in enumerate(reader, start=2):
                if len(cells) != len(labels):
                    raise DomainError(f"{path}:{lineno}: expected {len(labels)} cells")
                row = []
                for cell in cells:
                    if cell not in ("0", "0.5", "1"):
                        raise DomainError(f"{path}:{lineno}: bad entry {cell!r}")
                    row.append(1.0 - float(cell))
                rows.append(tuple(row))
    except (ValueError, csv.Error) as exc:  # undecodable bytes, a field past the size limit
        raise DomainError(f"{path}: {exc}") from exc
    if not rows:
        raise DomainError(f"{path}: no cut rows below the header")
    try:
        return CutMatrix(n=n, labels=labels, rows=tuple(rows), reduced=reduced)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
