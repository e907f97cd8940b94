import functools
import hashlib
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercap import (
    CutMatrix,
    build_cut_matrix,
    build_parallel_graph,
    cuts_to_matrix,
    double_graph,
    enumerate_minimal_cuts,
    read_matrix_csv,
    reduced_matrix,
    render_matrix_csv,
    solve_capacity,
    write_matrix_csv,
)
from clustercap import cuts
from clustercap.cuts import (
    DEFAULT_NODE_BUDGET,
    MASK_RECIPES,
    REDUCED_SHA256,
    DoubledGraph,
    _closed_sets,
    _collapse,
    _cover_counts,
    _neighbours,
)
from clustercap.errors import DomainError, EnumerationBudgetError
from clustercap.recipes import ParallelGraph
from clustercap.redundancy import KEY_WIDTH

from conftest import DATA, example1_instance
from cut_oracles import bron_kerbosch_covers


def brute_force_minimal_covers(dg):
    """Exhaustive scan over all vertex subsets (left+right <= 14 vertices).

    A cover is minimal when dropping any single selected vertex uncovers
    some arc.
    """
    m = dg.size
    arcs = dg.arcs
    minimal = set()
    for bits in range(1 << (2 * m)):
        left = tuple(bits >> i & 1 for i in range(m))
        right = tuple(bits >> (m + i) & 1 for i in range(m))
        if not all(left[i] or right[j] for i, j in arcs):
            continue
        needed_left = all(
            any(not right[j] for i2, j in arcs if i2 == i) for i in range(m) if left[i]
        )
        needed_right = all(
            any(not left[i] for i, j2 in arcs if j2 == j) for j in range(m) if right[j]
        )
        if needed_left and needed_right:
            minimal.add((left, right))
    return minimal


def test_doubling_two_chambers():
    g = build_parallel_graph(2)
    dg = double_graph(g)
    a, b, ab = g.index_of("A"), g.index_of("B"), g.index_of("AB")
    assert set(dg.arcs) == {(a, b), (b, a)}


def test_doubling_three_chambers_has_twelve_arcs():
    dg = double_graph(build_parallel_graph(3))
    assert len(dg.arcs) == 12
    assert len(set(dg.arcs)) == 12


def test_doubling_single_chamber_is_empty():
    assert double_graph(build_parallel_graph(1)).arcs == ()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimal_covers_match_exhaustive_search(n):
    dg = double_graph(build_parallel_graph(n))
    got = {(c.left, c.right) for c in enumerate_minimal_cuts(dg)}
    assert got == brute_force_minimal_covers(dg)


def test_two_chambers_has_exactly_four_covers():
    g = build_parallel_graph(2)
    dg = double_graph(g)
    covers = {(c.left, c.right) for c in enumerate_minimal_cuts(dg)}
    a, b, ab = g.index_of("A"), g.index_of("B"), g.index_of("AB")

    def vec(*idx):
        out = [0, 0, 0]
        for i in idx:
            out[i] = 1
        return tuple(out)

    assert covers == {
        (vec(a, b), vec()),
        (vec(), vec(a, b)),
        (vec(a), vec(a)),
        (vec(b), vec(b)),
    }


def test_single_chamber_cover_is_empty_set():
    covers = enumerate_minimal_cuts(double_graph(build_parallel_graph(1)))
    assert len(covers) == 1
    assert covers[0].left == (0,) and covers[0].right == (0,)
    assert covers[0].selected() == frozenset()


def test_isolated_vertices_never_selected():
    g = build_parallel_graph(3)
    full = g.index_of("ABC")
    for cover in enumerate_minimal_cuts(double_graph(g)):
        assert cover.left[full] == 0 and cover.right[full] == 0


def test_budget_guard_raises():
    dg = double_graph(build_parallel_graph(4))
    with pytest.raises(EnumerationBudgetError, match="budget"):
        enumerate_minimal_cuts(dg, node_budget=10)


def test_six_chambers_pass_the_default_budget_at_once():
    dg = double_graph(build_parallel_graph(6))
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError, match=f"budget {DEFAULT_NODE_BUDGET}") as err:
        enumerate_minimal_cuts(dg)
    assert time.perf_counter() - start < 1.0
    # the closure stops in the step that passes the budget, at most doubling it
    assert DEFAULT_NODE_BUDGET < err.value.held <= 2 * DEFAULT_NODE_BUDGET


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_matches_bron_kerbosch(n):
    dg = double_graph(build_parallel_graph(n))
    covers = {(c.left, c.right) for c in minimal_cuts(n)}
    assert len(covers) == COVER_COUNTS[n]
    assert covers == bron_kerbosch_covers(dg)


def test_closure_matches_bron_kerbosch_on_any_number_of_recipes():
    dg = DoubledGraph(graph=build_parallel_graph(6), arcs=((0, 62), (62, 0)))
    covers = {(c.left, c.right) for c in enumerate_minimal_cuts(dg)}
    assert len(covers) == 4
    assert covers == bron_kerbosch_covers(dg)


COVER_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579}


@functools.cache
def minimal_cuts(n) -> tuple:
    return tuple(enumerate_minimal_cuts(double_graph(build_parallel_graph(n))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_covers_come_sorted_by_left_then_right(n):
    covers = [(c.left, c.right) for c in minimal_cuts(n)]
    assert len(covers) == COVER_COUNTS[n]
    assert covers == sorted(set(covers))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_collapse_matches_the_weight_sets(n):
    """The mask collapse against the plain one: distinct weight tuples,
    sorted by their coefficients (1 - weight)."""
    g = build_parallel_graph(n)
    covers = list(minimal_cuts(n))
    slow = sorted({c.weights() for c in covers}, key=lambda w: tuple(1 - v for v in w))
    nbr = _neighbours(double_graph(g))
    counts = _cover_counts(_closed_sets(nbr, DEFAULT_NODE_BUDGET), nbr)
    assert [tuple(r) for r in (_collapse(counts) / 2).tolist()] == slow
    assert cuts_to_matrix(g, covers).rows == tuple(slow)
    assert build_cut_matrix(n, reduce=False).rows == tuple(slow)


def test_cuts_to_matrix_refuses_an_empty_cover_list():
    with pytest.raises(DomainError, match="no covers"):
        cuts_to_matrix(build_parallel_graph(3), [])


@pytest.mark.parametrize(
    "covers, named",
    [
        ([cuts.BasicCut((1,), (0,))], "1 left and 1 right"),
        (
            [cuts.BasicCut((1,) * 7, (0,) * 7), cuts.BasicCut((1,) * 6, (0,) * 7)],
            "6 left and 7 right",
        ),
    ],
    ids=["short", "ragged"],
)
def test_cuts_to_matrix_refuses_covers_of_the_wrong_length(covers, named):
    with pytest.raises(DomainError, match=f"a cover of {named} entries for a graph of 7 recipes"):
        cuts_to_matrix(build_parallel_graph(3), covers)


NARROW_CASES = [
    *(double_graph(build_parallel_graph(n)) for n in range(1, 6)),
    DoubledGraph(graph=build_parallel_graph(6), arcs=((0, 62), (62, 0))),
]


@pytest.mark.parametrize("dg", NARROW_CASES, ids=["n1", "n2", "n3", "n4", "n5", "63-recipes"])
def test_cover_counts_are_int8_and_match_the_covers(dg):
    """The int8 counts against the int64 copy counts of the `BasicCut`
    reference, cover by cover; the two collapse to the same rows."""
    nbr = _neighbours(dg)
    counts = _cover_counts(_closed_sets(nbr, DEFAULT_NODE_BUDGET), nbr)
    assert counts.dtype == np.int8 and counts.shape == (len(counts), dg.size)
    slow = np.array([np.add(c.left, c.right) for c in enumerate_minimal_cuts(dg)], np.int64)
    assert sorted(map(tuple, counts.tolist())) == sorted(map(tuple, slow.tolist()))
    if dg.size > KEY_WIDTH:  # no exact key: the collapse refuses them
        for rows in (counts, slow):
            with pytest.raises(DomainError, match=f"at most {KEY_WIDTH}"):
                _collapse(rows)
        return
    narrow, wide = _collapse(counts), _collapse(counts.astype(np.int64))
    assert narrow.dtype == np.int8 and wide.dtype == np.int64
    assert narrow.tolist() == wide.tolist() == _collapse(slow).tolist()


def test_more_recipes_than_a_cover_mask_holds_are_refused():
    with pytest.raises(DomainError, match=f"64 recipes .* at most {MASK_RECIPES}"):
        _cover_counts(set(), [0] * (MASK_RECIPES + 1))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="127 recipes .* only for 1..5 chambers"):
        build_cut_matrix(7, reduce=False)
    # six chambers fit the bit sets, and the enumeration budget refuses them
    with pytest.raises(EnumerationBudgetError, match="budget"):
        build_cut_matrix(6, reduce=False)
    assert time.perf_counter() - start < 1.0


def test_enumeration_takes_any_number_of_recipes():
    # two arcs among the 63 recipes of six chambers, so the right copy of
    # recipe 62 is bit 125: a cover picks an end of each arc
    dg = DoubledGraph(graph=build_parallel_graph(6), arcs=((0, 62), (62, 0)))

    def picked(copy):
        return tuple(i for i, v in enumerate(copy) if v)

    covers = {(picked(c.left), picked(c.right)) for c in enumerate_minimal_cuts(dg)}
    assert covers == {((0, 62), ()), ((0,), (0,)), ((62,), (62,)), ((), (0, 62))}
    # one float64 key holds 33 recipes, so their rows are not collapsed
    with pytest.raises(DomainError, match=f"rows 63 wide have no exact key, at most {KEY_WIDTH}"):
        cuts_to_matrix(dg.graph, enumerate_minimal_cuts(dg))


@given(
    st.integers(min_value=1, max_value=KEY_WIDTH).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=m, max_size=m),
            min_size=1,
            max_size=12,
        )
    )
)
@settings(max_examples=40)
def test_collapse_sorts_and_deduplicates_any_width(counts):
    # rows that differ in their last column only, and repeats
    counts += [a[:-1] + b[-1:] for a, b in zip(counts, counts[1:])]
    counts += counts[:2]
    slow = sorted({tuple(r) for r in counts}, reverse=True)
    assert [tuple(r) for r in _collapse(counts).tolist()] == slow


def first_recipes(m) -> ParallelGraph:
    """The first m recipes of six chambers, without edges: a graph as wide
    as asked for the collapse, whose covers the caller makes."""
    six = build_parallel_graph(6)
    return ParallelGraph(n=6, recipes=six.recipes[:m], edges=())


def test_cuts_to_matrix_keys_33_recipes_exactly():
    # the two covers differ in the last recipe only, the least significant
    # base-3 digit of the key; the repeat folds away
    low = cuts.BasicCut((1,) + (0,) * (KEY_WIDTH - 1), (0,) * KEY_WIDTH)
    high = cuts.BasicCut(low.left, (0,) * (KEY_WIDTH - 1) + (1,))
    rows = cuts_to_matrix(first_recipes(KEY_WIDTH), [low, high, low]).rows
    assert rows == (high.weights(), low.weights())  # ascending in 1 - weight


def test_collapse_and_cuts_to_matrix_refuse_more_recipes_than_a_key_holds():
    wide = KEY_WIDTH + 1
    with pytest.raises(DomainError, match=f"rows 34 wide have no exact key, at most {KEY_WIDTH}"):
        _collapse(np.ones((2, wide), dtype=np.int8))
    cover = cuts.BasicCut((0,) * wide, (1,) * wide)
    with pytest.raises(DomainError, match=f"rows 34 wide have no exact key, at most {KEY_WIDTH}"):
        cuts_to_matrix(first_recipes(wide), [cover])


def test_two_chambers_raw_rows():
    g = build_parallel_graph(2)
    raw = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g)))
    assert set(raw.rows) == {(0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)}


def test_three_chambers_raw_contains_one_sided_cut():
    # cover {A, B, C, AB} + mirrored {A, B}: weights (1, 1, .5, .5, 0, 0, 0)
    g = build_parallel_graph(3)
    raw = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g)))
    assert (1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0) in set(raw.rows)


def test_single_chamber_matrix():
    m = build_cut_matrix(1)
    assert m.rows == ((0.0,),)
    assert m.coeff_rows() == ((1.0,),)


@pytest.mark.parametrize("n,rows", [(1, 1), (2, 2), (3, 5), (4, 23)])
def test_reduced_row_counts(n, rows, matrices):
    assert len(matrices[n].rows) == rows


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_matrix_equals_reference(n, matrices):
    golden = read_matrix_csv(f"{DATA}/cuts_n{n}_reference.csv", reduced=True)
    assert golden.labels == matrices[n].labels
    assert set(golden.rows) == set(matrices[n].rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_half_integrality(n, matrices):
    for row in matrices[n].rows:
        assert all(v in (0.0, 0.5, 1.0) for v in row)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_per_chamber_rows_present(n, matrices):
    g = build_parallel_graph(n)
    coeff = set(matrices[n].coeff_rows())
    for c in range(n):
        row = tuple(1.0 if r.mask >> c & 1 else 0.0 for r in g.recipes)
        assert row in coeff


@pytest.mark.parametrize("n", [3, 4])
def test_full_parallel_row_present(n, matrices):
    # For two chambers the full-parallel row is itself redundant (it is the
    # average of the two chamber rows) and is correctly reduced away.
    g = build_parallel_graph(n)
    full = (1 << n) - 1
    row = tuple(1.0 if r.mask == full else 0.5 for r in g.recipes)
    assert row in set(matrices[n].coeff_rows())


def test_two_chambers_full_parallel_row_reduced_away(matrices):
    assert set(matrices[2].coeff_rows()) == {(1.0, 0.0, 1.0), (0.0, 1.0, 1.0)}


@given(n=st.integers(min_value=2, max_value=4), data=st.data())
def test_reduction_preserves_minimum(matrices, n, data):
    g = build_parallel_graph(n)
    raw = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g)))
    x = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                min_size=len(g.recipes),
                max_size=len(g.recipes),
            )
        )
    )
    raw_min = min(float(np.dot(row, x)) for row in raw.rows)
    red_min = min(float(np.dot(row, x)) for row in matrices[n].rows)
    assert raw_min == pytest.approx(red_min, abs=1e-9)


def test_rows_are_sorted_and_unique(matrices):
    for n in (2, 3, 4):
        m = matrices[n]
        coeff = m.coeff_rows()
        assert list(coeff) == sorted(coeff)
        assert len(set(m.rows)) == len(m.rows)


def test_shipped_tables_are_the_cold_builds(matrices, cuts5):
    built = {**matrices, 5: cuts5[0]}
    assert sorted(p.name for p in cuts.DATA_DIR.iterdir()) == [
        f"cuts_n{n}.csv" for n in range(1, 6)
    ]
    for n in range(1, 6):
        shipped = cuts.DATA_DIR / f"cuts_n{n}.csv"
        assert shipped.read_bytes() == render_matrix_csv(built[n]).encode()
        assert reduced_matrix(n) == built[n]


@pytest.mark.parametrize("n", [0, 6, -1])
def test_no_shipped_table_past_the_pins(n):
    with pytest.raises(DomainError, match=f"no reduced cut matrix for {n} chambers, only for 1..5"):
        reduced_matrix(n)


def test_a_shipped_table_of_another_n_is_refused(tmp_path, monkeypatch):
    (tmp_path / "cuts_n3.csv").write_bytes((cuts.DATA_DIR / "cuts_n2.csv").read_bytes())
    monkeypatch.setattr(cuts, "DATA_DIR", tmp_path)
    path = re.escape(str(tmp_path / "cuts_n3.csv"))
    with pytest.raises(DomainError, match=f"{path}: holds the matrix for 2 chambers, not 3"):
        reduced_matrix(3)


def test_cache_roundtrip(tmp_path):
    first = build_cut_matrix(3, cache_dir=tmp_path)
    path = tmp_path / "cuts_n3.csv"
    assert path.is_file()
    stamp = path.stat().st_mtime_ns
    second = build_cut_matrix(3, cache_dir=tmp_path)
    assert second == first
    assert path.stat().st_mtime_ns == stamp  # served from disk, not rebuilt
    assert not list(path.parent.glob("*.tmp"))


def test_a_cold_build_renders_its_csv_once(tmp_path, monkeypatch):
    """The pin check and the cache file share one render; the file is the
    shipped table, byte for byte."""
    renders = []
    render = cuts.render_matrix_csv
    monkeypatch.setattr(cuts, "render_matrix_csv", lambda m: renders.append(m.n) or render(m))
    built = build_cut_matrix(5, cache_dir=tmp_path)
    assert renders == [5]
    written = (tmp_path / "cuts_n5.csv").read_bytes()
    assert written == (cuts.DATA_DIR / "cuts_n5.csv").read_bytes() == built.csv_text.encode()


# the refusal of a matrix that is not the pinned reduced one
NOT_PINNED = "not the reduced cut matrix of {} chambers: SHA-256 mismatch"


@pytest.mark.parametrize(
    "content, why",
    [
        (b"A,B,C,AB,AC,BC,ABC\n1,1,1,0.5,0.5,0.5,0\n", NOT_PINNED.format(3)),
        (b"A,B,C,AB,AC,BC,ABC\n1,1,", "expected 7 cells"),
        (b"A,B,AB\n1,0,1\n0,1,1\n", NOT_PINNED.format(2)),
        (b"A,B,C\xff\n", "decode"),
        (b"A,B,C,AB,AC,BC,ABC\n" + b"1" * 200_000, "field limit"),
        (b"A,B,AB\n0,1,1\n1,0,1\n", "holds the matrix for 2 chambers, not 3"),
    ],
    ids=["one-row", "mid-row", "other-n", "not-utf8", "huge-field", "other-n-pinned"],
)
def test_bad_cache_file_is_an_error(tmp_path, content, why):
    path = tmp_path / "cuts_n3.csv"
    path.write_bytes(content)
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}.*{why}"):
        build_cut_matrix(3, cache_dir=tmp_path)
    assert path.read_bytes() == content
    assert sorted(tmp_path.iterdir()) == [path]


# the header and the five reduced three-chamber rows, as the cache stores them
N3_LINES = tuple(Path(DATA, "cuts_n3_reference.csv").read_text().splitlines())
N3_HEADER, N3_ROWS = N3_LINES[0], N3_LINES[1:]


@pytest.mark.parametrize(
    "rows, why",
    [
        (N3_ROWS[:4] + ("1,0,0,1,1,0,0",), NOT_PINNED.format(3)),
        (N3_ROWS[:2] + N3_ROWS[1:4], NOT_PINNED.format(3)),
        ((N3_ROWS[1], N3_ROWS[0]) + N3_ROWS[2:], NOT_PINNED.format(3)),
        # half moved from one entry to another: distinct, in order, same sum
        (N3_ROWS[:3] + ("0.5,0.5,0.5,0.5,0.5,1,0.5",) + N3_ROWS[4:], NOT_PINNED.format(3)),
    ],
    ids=["flipped-entry", "repeated-row", "swapped-rows", "opposite-edits"],
)
def test_cache_file_with_wrong_rows_is_an_error(tmp_path, rows, why):
    path = tmp_path / "cuts_n3.csv"
    text = "\n".join((N3_HEADER,) + rows) + "\n"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}: {why}"):
        build_cut_matrix(3, cache_dir=tmp_path)
    assert path.read_text() == text


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reference_matrices_pass_the_cache_check(n):
    """Each pin is the SHA-256 of the checked-in reference file of its n."""
    path = Path(DATA) / f"cuts_n{n}_reference.csv"
    if n == 5:
        path = Path(DATA).parents[1] / "perfbench" / "data" / "cuts_n5.csv"
    assert REDUCED_SHA256[n] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_matrix_csv(path, reduced=True).n == n


def test_no_reduced_matrix_past_the_pins_fails_fast(tmp_path):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="6 chambers, only for 1..5"):
        build_cut_matrix(6, cache_dir=tmp_path)
    assert time.perf_counter() - start < 1.0
    assert not list(tmp_path.iterdir())


def test_truncated_matrix_is_refused_by_solve(tmp_path):
    """A reduced matrix cut short used to give rho 0.0 on example1 (330)."""
    path = tmp_path / "truncated.csv"
    path.write_text("\n".join(N3_LINES[:2]) + "\n")
    inst = example1_instance()
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}: {NOT_PINNED.format(3)}"):
        solve_capacity(inst, "generalized", matrix=read_matrix_csv(path, reduced=True))
    raw = read_matrix_csv(path, reduced=False)
    with pytest.raises(DomainError, match="requires the reduced cut matrix"):
        solve_capacity(inst, "generalized", matrix=raw)


def test_hand_built_reduced_matrix_is_checked(matrices):
    m = matrices[3]
    assert CutMatrix(n=3, labels=m.labels, rows=m.rows, reduced=True) == m
    edited = list(m.rows)
    edited[0] = tuple(1.0 - v for v in edited[0])
    for rows in (edited, m.rows[:1], [(0.25,) * 7] + edited[1:]):
        with pytest.raises(DomainError, match=NOT_PINNED.format(3)):
            CutMatrix(n=3, labels=m.labels, rows=tuple(rows), reduced=True)
    with pytest.raises(DomainError, match=NOT_PINNED.format(6)):
        CutMatrix(n=6, labels=m.labels, rows=m.rows, reduced=True)
    assert not CutMatrix(n=3, labels=m.labels, rows=tuple(edited), reduced=False).reduced


@pytest.mark.parametrize(
    "where, error",
    [("under-a-file", NotADirectoryError), ("file-is-a-directory", IsADirectoryError)],
)
def test_unwritable_cache_raises(tmp_path, where, error):
    """A cache directory that cannot be written (a path under a file, or a
    directory in the table's place) raises its OSError and leaves no
    temporary file behind."""
    if where == "under-a-file":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    else:
        cache = tmp_path / "cache"
        (cache / "cuts_n3.csv").mkdir(parents=True)
    with pytest.raises(error):
        build_cut_matrix(3, cache_dir=cache)
    assert not list(tmp_path.glob("**/*.tmp"))


def test_a_build_without_a_cache_writes_nothing(tmp_path, monkeypatch):
    home, cache = tmp_path / "home", tmp_path / "cache"
    home.mkdir()
    cache.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("CLUSTERCAP_CACHE", str(cache))
    monkeypatch.chdir(tmp_path)
    assert build_cut_matrix(2) == reduced_matrix(2)
    assert sorted(tmp_path.rglob("*")) == [cache, home]


def test_concurrent_builds_distinct_n(tmp_path):
    errors = []

    def build(n):
        try:
            build_cut_matrix(n, cache_dir=tmp_path)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(n,)) for n in (2, 3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for n in (2, 3, 4):
        assert (tmp_path / f"cuts_n{n}.csv").is_file()


def test_csv_rendering_format(matrices):
    text = render_matrix_csv(matrices[2])
    lines = text.splitlines()
    assert lines[0] == "A,B,AB"
    assert set(lines[1:]) == {"1,0,1", "0,1,1"}


def test_csv_write_read_roundtrip(tmp_path, matrices):
    path = tmp_path / "m4.csv"
    write_matrix_csv(matrices[4], path)
    back = read_matrix_csv(path, reduced=True)
    assert back == matrices[4]


def test_csv_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("A,B,AB\n0.25,0,1\n")
    with pytest.raises(DomainError, match="bad entry"):
        read_matrix_csv(path, reduced=True)


@pytest.mark.parametrize(
    "row, bad", [("0,1,0.50", "0.50"), ("0,1.0,x", "1.0"), ('"0",1,x', "x"), ("0, 1,1", " 1")]
)
def test_csv_names_the_line_and_first_bad_entry(tmp_path, row, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"A,B,AB\n0,1,0.5\n{row}\n")
    with pytest.raises(DomainError, match=re.escape(f"bad.csv:3: bad entry {bad!r}")):
        read_matrix_csv(path, reduced=True)


def test_csv_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("A,B,AB\n0,1\n")
    with pytest.raises(DomainError, match="expected 3 cells"):
        read_matrix_csv(path, reduced=True)


NOT_CANONICAL = "header is not the canonical recipe list"
BAD_HEADERS = {
    "\n": NOT_CANONICAL,  # empty header line
    "\nA,B,AB\n0,1,0\n": NOT_CANONICAL,
    "A,B,C,AB,AC,BC,ACB\n0,0,0,1,1,1,1\n": NOT_CANONICAL,  # label not in canonical form
    "A,B,AB,C\n0,0,1,1\n": NOT_CANONICAL,  # labels out of canonical order
    "A,AB\n0,1\n": NOT_CANONICAL,  # a recipe missing
    "A,B,AB\n": "no cut rows below the header",  # used to fail later, in model extraction
}


@pytest.mark.parametrize("text", list(BAD_HEADERS))
def test_csv_rejects_bad_header(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}: {BAD_HEADERS[text]}"):
        read_matrix_csv(path, reduced=True)
