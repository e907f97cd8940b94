"""Minimal basic cuts of the doubled recipe graph and the reduced cut matrix.

The parallelization graph is doubled into a bipartite graph (left recipes,
mirrored right recipes, one arc per direction of every edge).  A basic cut is
a vertex cover of the arcs; minimal cuts are complements of maximal
independent sets.  Each cut collapses to a per-recipe weight vector with
entries in {0, 1/2, 1} (half per selected copy); the capacity models consume
the complementary rows (1 - weight).

`build_cut_matrix` runs on arrays end to end.  The covers come out of the
enumeration as bit sets, 2m bits for m recipes, which an int64 holds up to
m = 31 (5 chambers); the selected copies per recipe are counted from them
with shifts.  `_collapse` keys each count row as a base-3 number (3^31 fits
an int64; wider rows take one key per 39 recipes) and deduplicates the keys
with a stable sort, which gives the rows in matrix order.
The distinct coefficient rows then go to `redundancy.reduce_to_minimal`,
whose perceptron stage certifies the vertices and drops the rows below a
midpoint of two others as it goes (see that module).  `BasicCut` objects are
made only by `enumerate_minimal_cuts`, for callers that want the covers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, EnumerationBudgetError
from .recipes import MAX_CHAMBERS, ParallelGraph, build_parallel_graph
from . import redundancy

DEFAULT_NODE_BUDGET = 10**7
MASK_RECIPES = 31  # recipes an int64 cover mask holds (two copies each): 5 chambers
KEY_RECIPES = 39  # recipes one int64 base-3 key holds: 3^39 < 2^63

CACHE_ENV_VAR = "CLUSTERCAP_CACHE"

# SHA-256 of render_matrix_csv of the reduced matrix per chamber count (1, 2,
# 5, 23, 590 rows); n = 6 exceeds DEFAULT_NODE_BUDGET, so there are no others
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
            digest = hashlib.sha256(render_matrix_csv(self).encode()).hexdigest()
        except KeyError:  # an entry other than 0, 1/2 or 1
            digest = "unrenderable"
        if digest != REDUCED_SHA256.get(self.n):
            raise DomainError(f"not the reduced cut matrix of {self.n} chambers: SHA-256 mismatch")

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


def _cover_masks(dg: DoubledGraph, node_budget: int) -> list[int]:
    """The minimal vertex covers as bit sets: bit i is the left copy of
    recipe i, bit m + i its right copy.

    Complements of maximal independent sets, enumerated as maximal cliques of
    the complement graph (Bron-Kerbosch with pivoting, bitmask sets).
    Vertices with no incident arc are in every independent set, hence never
    selected by a cover.  Aborts with a budget error if the recursion exceeds
    `node_budget` nodes.
    """
    m = dg.size
    nv = 2 * m
    adj = [0] * nv
    for i, j in dg.arcs:
        adj[i] |= 1 << (m + j)
        adj[m + j] |= 1 << i
    full = (1 << nv) - 1
    comp = [(~adj[v]) & full & ~(1 << v) for v in range(nv)]
    out: list[int] = []
    nodes = 0

    def expand(r: int, p: int, x: int):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise EnumerationBudgetError(nodes, node_budget)
        if p == 0 and x == 0:
            out.append(full & ~r)
            return
        pux = p | x
        pivot, best = -1, -1
        mask = pux
        while mask:
            u = (mask & -mask).bit_length() - 1
            deg = (p & comp[u]).bit_count()
            if deg > best:
                pivot, best = u, deg
            mask &= mask - 1
        cand = p & ~comp[pivot]
        mask = cand
        while mask:
            v = (mask & -mask).bit_length() - 1
            bit = 1 << v
            expand(r | bit, p & comp[v], x & comp[v])
            p &= ~bit
            x |= bit
            mask &= mask - 1

    expand(0, full, 0)
    return out


def enumerate_minimal_cuts(
    dg: DoubledGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[BasicCut]:
    """All minimal vertex covers of the doubled graph, sorted by (left, right).

    The covers of `_cover_masks`, on Python ints, so any chamber count works
    (within the budget).
    """
    m = dg.size
    covers = [
        BasicCut(
            left=tuple(cov >> i & 1 for i in range(m)),
            right=tuple(cov >> (m + i) & 1 for i in range(m)),
        )
        for cov in _cover_masks(dg, node_budget)
    ]
    covers.sort(key=lambda c: (c.left, c.right))
    return covers


def _check_mask_room(m: int):
    """Refuse more recipes than an int64 cover mask holds, two bits each."""
    if m > MASK_RECIPES:
        raise DomainError(
            f"{m} recipes do not fit an int64 cover mask, at most {MASK_RECIPES}: "
            "cut matrices only for 1..5 chambers"
        )


def _mask_counts(masks, m: int) -> np.ndarray:
    """The selected copies per recipe (0, 1 or 2) of each cover mask of m
    recipes, one int64 row each: bit i plus bit m + i."""
    _check_mask_room(m)
    masks = np.asarray(masks, dtype=np.int64)[:, None]
    shifts = np.arange(m, dtype=np.int64)
    return (masks >> shifts & 1) + (masks >> (shifts + m) & 1)


def _collapse(counts) -> np.ndarray:
    """The distinct rows of per-recipe copy counts (0, 1 or 2), in matrix
    order: the rows 1 - counts / 2 come out lexicographically ascending.

    Each run of KEY_RECIPES recipes is keyed as a base-3 number, most
    significant recipe first, so ascending keys (lexsorted, the first run
    primary) are lexicographically ascending counts; the rows are read back
    in reverse, one per distinct key.  Up to 5 chambers (31 recipes) one key
    holds a whole row.
    """
    counts = np.asarray(counts, dtype=np.int64)
    rows, m = counts.shape
    runs = np.pad(counts, ((0, 0), (0, -m % KEY_RECIPES))).reshape(rows, -1, KEY_RECIPES)
    keys = runs @ 3 ** np.arange(KEY_RECIPES - 1, -1, -1, dtype=np.int64)
    order = np.lexsort(keys.T[::-1])
    first = order[np.diff(keys[order], axis=0, prepend=-1).any(axis=1)]
    return counts[first[::-1]]


def _raw_matrix(g: ParallelGraph, counts: np.ndarray) -> CutMatrix:
    rows = tuple(map(tuple, (counts / 2).tolist()))
    return CutMatrix(n=g.n, labels=g.labels, rows=rows, reduced=False)


def cuts_to_matrix(g: ParallelGraph, cuts: list[BasicCut]) -> CutMatrix:
    """Collapse covers to their weight vectors and deduplicate.

    Mirror-symmetric covers (and any other covers sharing a weight profile)
    fold into a single row here, by the collapse `build_cut_matrix` runs.
    Any number of recipes works.
    """
    m = len(g.recipes)
    copies = np.array([np.add(c.left, c.right) for c in cuts], dtype=np.int64)
    return _raw_matrix(g, _collapse(copies.reshape(len(cuts), m)))


def build_cut_matrix(
    n: int,
    reduce: bool = True,
    cache_dir: str | os.PathLike | None = None,
) -> CutMatrix:
    """End-to-end pipeline with a per-n disk cache for reduced matrices.

    graph -> doubled graph -> minimal covers -> weight rows -> (reduction).
    Reduced matrices are cached as CSV under the cache directory (overridable
    via the CLUSTERCAP_CACHE environment variable); raw matrices are always
    recomputed.  A cached file is used only when it hashes to the pin of n;
    anything else is rebuilt with a warning naming it.  Past 5 chambers it
    raises DomainError at once, before any enumeration: reduce=True has no
    pin there, and reduce=False no room in the int64 cover masks.

    The reduction keeps the coefficient rows (1 - weight) that can be the
    worst one for some x >= 0: the makespan is the largest coefficient row
    applied to x, so a row is dropped when a convex combination of the others
    covers it.  The kept rows stay in matrix order.
    """
    if reduce:
        if n not in REDUCED_SHA256:
            raise DomainError(f"no reduced cut matrix for {n} chambers, only for 1..5")
        path = cache_path(n, cache_dir)
        if path.is_file():
            try:
                cached = read_matrix_csv(path, reduced=True)
                if cached.n == n:
                    return cached
                raise DomainError(f"{path}: holds the matrix for {cached.n} chambers, not {n}")
            except DomainError as exc:
                warnings.warn(f"rebuilding the cut cache: {exc}", stacklevel=2)
    g = build_parallel_graph(n)
    _check_mask_room(len(g.recipes))
    masks = _cover_masks(double_graph(g), DEFAULT_NODE_BUDGET)
    counts = _collapse(_mask_counts(masks, len(g.recipes)))
    if not reduce:
        return _raw_matrix(g, counts)
    kept = redundancy.reduce_to_minimal(1.0 - counts / 2)
    rows = tuple(tuple(1.0 - v for v in c) for c in kept)
    reduced = CutMatrix(n=n, labels=g.labels, rows=rows, reduced=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, render_matrix_csv(reduced))
    return reduced


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "clustercap"


def cache_path(n: int, cache_dir: str | os.PathLike | None = None) -> Path:
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / f"cuts_n{n}.csv"


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    _atomic_write(Path(path), render_matrix_csv(matrix))


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
