"""Recipes (nonempty chamber subsets) and the parallelization graph.

A recipe is the subset of chambers that serves one lot.  Two recipes can run
concurrently from the two load locks exactly when they are disjoint; those
pairs are the edges of the parallelization graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError

MAX_CHAMBERS = 8

_LETTERS = "ABCDEFGH"


def chamber_letter(c: int) -> str:
    return _LETTERS[c]


def label_for_mask(mask: int) -> str:
    return "".join(_LETTERS[c] for c in range(MAX_CHAMBERS) if mask >> c & 1)


# canonical label (chambers in alphabetical order, each once) -> chamber mask;
# any other spelling of a chamber set is absent
RECIPE_MASKS = {label_for_mask(mask): mask for mask in range(1, 1 << MAX_CHAMBERS)}


@dataclass(frozen=True)
class Recipe:
    """A nonempty chamber subset, encoded as a bit mask over chambers 0..n-1."""

    mask: int
    label: str

    def __post_init__(self):
        if self.mask <= 0:
            raise DomainError("recipe must contain at least one chamber")
        if label_for_mask(self.mask) != self.label:
            raise DomainError(f"label {self.label!r} does not match mask {self.mask:b}")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def disjoint(self, other: "Recipe") -> bool:
        return self.mask & other.mask == 0


@dataclass(frozen=True)
class ParallelGraph:
    """All recipes for n chambers plus the disjoint-pair edges.

    Recipes are ordered by cardinality, then alphabetically by label; this
    fixes the column order of every matrix derived from the graph.  Edges are
    ordered pairs of recipe indices (i < j) sorted lexicographically.
    """

    n: int
    recipes: tuple[Recipe, ...]
    edges: tuple[tuple[int, int], ...]

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.recipes)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per recipe index, the ascending indices of the edges touching it."""
        out = [[] for _ in self.recipes]
        for k, (a, b) in enumerate(self.edges):
            out[a].append(k)
            out[b].append(k)
        return tuple(map(tuple, out))


def predict_graph_counts(n: int) -> tuple[int, int]:
    """Closed-form (recipe count, edge count) = (2^n - 1, (3^n - 1)/2 - (2^n - 1)).

    Each chamber belongs to the first lot's recipe, the second lot's recipe,
    or neither: ordered disjoint pairs (including empty parts) number 3^n.
    """
    if n < 1:
        raise DomainError("chamber count must be >= 1")
    recipes = 2**n - 1
    edges = (3**n - 1) // 2 - recipes
    return recipes, edges


def build_parallel_graph(n: int) -> ParallelGraph:
    """Construct the parallelization graph for n chambers (1 <= n <= 8).

    The cap exists because derived cut matrices grow too fast to be practical
    beyond five chambers.
    """
    if not 1 <= n <= MAX_CHAMBERS:
        raise DomainError(f"chamber count must be in 1..{MAX_CHAMBERS}, got {n}")
    recipes = sorted(
        (Recipe(mask, label_for_mask(mask)) for mask in range(1, 1 << n)),
        key=lambda r: (r.size, r.label),
    )
    edges = tuple(
        (i, j)
        for i in range(len(recipes))
        for j in range(i + 1, len(recipes))
        if recipes[i].disjoint(recipes[j])
    )
    g = ParallelGraph(n=n, recipes=tuple(recipes), edges=edges)
    expect = predict_graph_counts(n)
    if (len(g.recipes), len(g.edges)) != expect:
        raise AssertionError(f"graph counts {len(g.recipes)},{len(g.edges)} != {expect}")
    return g
