from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustercap import build_parallel_graph, predict_graph_counts
from clustercap.errors import DomainError
from clustercap.recipes import RECIPE_MASKS


def brute_force_edges(n):
    """All unordered disjoint pairs of nonempty subsets of range(n)."""
    masks = list(range(1, 1 << n))
    return {(a, b) for a, b in combinations(masks, 2) if a & b == 0}


def test_single_chamber_has_no_edges():
    g = build_parallel_graph(1)
    assert [r.label for r in g.recipes] == ["A"]
    assert g.edges == ()


def test_three_chambers_matches_known_graph():
    g = build_parallel_graph(3)
    assert len(g.recipes) == 7
    labeled = {frozenset((g.labels[i], g.labels[j])) for i, j in g.edges}
    assert labeled == {
        frozenset(p)
        for p in [("A", "B"), ("A", "C"), ("B", "C"), ("A", "BC"), ("B", "AC"), ("C", "AB")]
    }


def test_four_chambers_edge_count_vs_brute_force():
    g = build_parallel_graph(4)
    assert len(g.recipes) == 15
    assert len(g.edges) == 25
    assert len(brute_force_edges(4)) == 25


@pytest.mark.parametrize("n", range(1, 7))
def test_edges_equal_brute_force(n):
    g = build_parallel_graph(n)
    got = {frozenset((g.recipes[i].mask, g.recipes[j].mask)) for i, j in g.edges}
    want = {frozenset(p) for p in brute_force_edges(n)}
    assert got == want


@pytest.mark.parametrize(
    "n,expected", [(1, (1, 0)), (2, (3, 1)), (3, (7, 6)), (4, (15, 25)), (5, (31, 90))]
)
def test_predicted_counts(n, expected):
    assert predict_graph_counts(n) == expected
    g = build_parallel_graph(n)
    assert (len(g.recipes), len(g.edges)) == expected


def test_canonical_order_is_cardinality_then_label():
    g = build_parallel_graph(3)
    assert g.labels == ("A", "B", "C", "AB", "AC", "BC", "ABC")


def test_construction_is_deterministic():
    assert build_parallel_graph(4) == build_parallel_graph(4)


def test_four_chambers_contains_complete_bipartite_block():
    g = build_parallel_graph(4)
    left = [g.index_of(l) for l in ("A", "B", "AB")]
    right = [g.index_of(l) for l in ("C", "D", "CD")]
    edge_set = {frozenset(e) for e in g.edges}
    for i in left:
        for j in right:
            assert frozenset((i, j)) in edge_set


@pytest.mark.parametrize("n", [0, -1, 9, 20])
def test_out_of_range_chamber_count(n):
    with pytest.raises(DomainError, match="1..8"):
        build_parallel_graph(n)


def test_count_formula_rejects_nonpositive():
    with pytest.raises(DomainError):
        predict_graph_counts(0)


@given(st.integers(min_value=1, max_value=8))
def test_counts_match_construction(n):
    g = build_parallel_graph(n)
    assert predict_graph_counts(n) == (len(g.recipes), len(g.edges))
    assert all(g.recipes[i].mask & g.recipes[j].mask == 0 for i, j in g.edges)
    assert len(set(g.edges)) == len(g.edges)


@pytest.mark.parametrize("n", range(1, 6))
def test_incidence_and_label_lookup_match_slow_scans(n):
    g = build_parallel_graph(n)
    for r in range(len(g.recipes)):
        assert g.incident[r] == tuple(k for k, (a, b) in enumerate(g.edges) if r in (a, b))
    known = {label: mask for label, mask in RECIPE_MASKS.items() if mask < 1 << n}
    assert len(known) == 2**n - 1
    assert known == {r.label: r.mask for r in g.recipes}
    for label in known:
        for spelling in map("".join, permutations(label)):
            assert (spelling in RECIPE_MASKS) == (spelling == label)
        assert label + label[-1] not in RECIPE_MASKS
    assert "" not in RECIPE_MASKS
