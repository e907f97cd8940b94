import functools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercap import (
    build_parallel_graph,
    cuts_to_matrix,
    read_matrix_csv,
    double_graph,
    enumerate_minimal_cuts,
    is_redundant_lp,
    lp,
    reduce_to_minimal,
)
from clustercap import redundancy
from clustercap.errors import DomainError, LpSolverError
from clustercap.recipes import chamber_permutations
from clustercap.redundancy import (
    KEY_WIDTH,
    PERCEPTRON_STEPS,
    perceptron_certified,
    separate_remaining,
)
from redundancy_oracles import (
    is_redundant_hull,
    lp_problem_for,
    one_pass_lp_reduction,
    pair_dominated,
    perceptron_certified_int,
)

# three known minimal cuts for three chambers over columns (A, B, C, AB, AC, BC)
CUT_1 = (1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
CUT_2 = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
CUT_3 = (1.0, 1.0, 0.5, 0.5, 0.0, 0.0)  # the average of the two above

N5_PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cuts_n5.csv"


def halves(dim):
    return st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=dim, max_size=dim
    ).map(tuple)


def vector_sets(min_dim=2, max_dim=8, max_vecs=6):
    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(
        lambda d: st.tuples(
            halves(d), st.lists(halves(d), min_size=1, max_size=max_vecs, unique=True)
        )
    )


@st.composite
def half_integral_sets(draw, min_dim=2, max_dim=7, max_rows=None):
    """Sets with entries in {0, 1/2, 1}, with planted midpoints of two 0/1
    members and members pushed down entrywise (both redundant).  With
    `max_rows`, only the last that many rows, so the planted ones stay."""
    d = draw(st.integers(min_value=min_dim, max_value=max_dim))
    corner = st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d).map(tuple)
    half = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=d, max_size=d).map(tuple)
    rows = draw(st.lists(st.one_of(corner, half), min_size=1, max_size=8))
    corners = [r for r in rows if 0.5 not in r]
    if corners:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            a, b = draw(st.sampled_from(corners)), draw(st.sampled_from(corners))
            rows.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = draw(st.sampled_from(rows))
        drops = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=d, max_size=d))
        rows.append(tuple(max(0.0, v - s) for v, s in zip(row, drops)))
    return rows if max_rows is None else rows[-max_rows:]


def cut_rows(n, side):
    """Distinct raw cut rows for n chambers, as coefficients or weights."""
    g = build_parallel_graph(n)
    coeffs = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g))).coeffs
    return coeffs if side == "coefficients" else 1.0 - coeffs


def distinct(rows) -> np.ndarray:
    return np.array(sorted({tuple(map(float, r)) for r in rows}))


def others(arr, i):
    return np.delete(arr, i, axis=0)


@functools.cache
def raw_cut_rows(n) -> np.ndarray:
    """The distinct raw coefficient rows for n chambers, read-only."""
    arr = distinct(cut_rows(n, "coefficients"))
    arr.flags.writeable = False
    return arr


@functools.cache
def pinned_five_chamber_rows() -> set:
    """The rows of the pinned reduced five-chamber matrix (its digest is
    checked on read)."""
    return set(read_matrix_csv(N5_PINNED, reduced=True).coeff_rows())


def check_perceptron_vertices(arr) -> int:
    """Every row the perceptron certifies is redundant against no other
    row, by the hull oracle; returns how many it certifies."""
    certified = np.flatnonzero(perceptron_certified(arr)[0])
    for i in certified:
        if len(arr) > 1:
            assert not is_redundant_hull(arr[i], others(arr, i)).redundant
    return len(certified)


def check_perceptron_drops(arr) -> int:
    """Every row the perceptron drops is redundant by the hull oracle and
    passes the pair test; returns how many it drops."""
    certified, dropped = perceptron_certified(arr)
    assert not (certified & dropped).any()
    assert not (dropped & ~pair_dominated(arr)).any()
    for i in np.flatnonzero(dropped):
        assert is_redundant_hull(arr[i], others(arr, i)).redundant
    return int(dropped.sum())


def check_reorder(arr):
    """No certified row passes the pair test: a row below the midpoint of
    two others is never certified, so the midpoint exits change no
    certificate."""
    assert not (perceptron_certified(arr)[0] & pair_dominated(arr)).any()


class TestKnownCuts:
    def test_average_cut_is_redundant_lp(self):
        verdict = is_redundant_lp(CUT_3, [CUT_1, CUT_2])
        assert verdict.redundant
        assert verdict.criterion == "lp"

    def test_average_cut_is_redundant_hull_with_half_half_weights(self):
        verdict = is_redundant_hull(CUT_3, [CUT_1, CUT_2])
        assert verdict.redundant
        assert verdict.witness == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_first_cut_not_redundant_vs_second(self):
        # unit mass on the AB column separates: <CUT_1 - CUT_2, e_AB> = 1
        verdict = is_redundant_lp(CUT_1, [CUT_2])
        assert not verdict.redundant
        x = np.array(verdict.witness)
        assert np.dot(np.array(CUT_1) - np.array(CUT_2), x) >= 1 - 1e-7
        assert is_redundant_hull(CUT_1, [CUT_2]).redundant is False


class TestEdgeCases:
    def test_member_of_set_is_redundant(self):
        assert is_redundant_lp(CUT_1, [CUT_1, CUT_2]).redundant

    def test_dominated_by_single_member(self):
        # the criterion asks for a convex combination that covers b from above
        a = (2.0, 3.0, 4.0)
        b = (1.0, 2.0, 3.0)
        assert is_redundant_lp(b, [a]).redundant
        verdict = is_redundant_hull(b, [a])
        assert verdict.redundant
        assert verdict.witness == pytest.approx((1.0,), abs=1e-9)

    def test_vector_above_the_set_is_not_redundant_here(self):
        # mirrored case: nothing in the set covers b from above
        a = (1.0, 2.0, 3.0)
        b = (2.0, 3.0, 4.0)
        verdict = is_redundant_lp(b, [a])
        assert not verdict.redundant
        assert verdict.witness is not None

    def test_orthogonal_unit_vectors_not_redundant(self):
        assert not is_redundant_hull((1.0, 0.0), [(0.0, 1.0)]).redundant
        assert not is_redundant_lp((1.0, 0.0), [(0.0, 1.0)]).redundant

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dimension"):
            is_redundant_lp((1.0, 0.0), [(0.0, 1.0, 2.0)])

    def test_empty_reference_set(self):
        with pytest.raises(DomainError, match="nonempty"):
            is_redundant_lp((1.0, 0.0), [])

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            is_redundant_hull((1.0, -0.5), [(0.0, 1.0)])


class TestSeparationProblemObject:
    def test_known_redundant_case_is_infeasible(self):
        sol = lp.solve(lp_problem_for(CUT_3, [CUT_1, CUT_2]))
        assert sol.status == lp.INFEASIBLE

    def test_problem_object_agrees_with_fast_path(self):
        for b, a_set in [
            (CUT_1, [CUT_2]),
            (CUT_3, [CUT_1, CUT_2]),
            ((1.0, 0.0), [(0.0, 1.0)]),
            ((2.0, 2.0), [(1.0, 1.0)]),
        ]:
            sol = lp.solve(lp_problem_for(b, a_set))
            assert (sol.status == lp.INFEASIBLE) == is_redundant_lp(b, a_set).redundant


@given(vector_sets())
def test_lp_and_hull_criteria_agree(case):
    b, a_set = case
    assert is_redundant_lp(b, a_set).redundant == is_redundant_hull(b, a_set).redundant


@given(vector_sets())
def test_witnesses_are_valid(case):
    b, a_set = case
    b_arr = np.array(b)
    a_arr = np.array(a_set)
    for verdict in (is_redundant_lp(b, a_set), is_redundant_hull(b, a_set)):
        if verdict.witness is None:
            continue
        w = np.array(verdict.witness)
        if verdict.redundant:
            assert np.all(w >= -1e-9)
            assert w.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.all(w @ a_arr >= b_arr - 1e-7)
        else:
            assert np.all(w >= -1e-9)
            assert np.all((b_arr - a_arr) @ w >= 1 - 1e-7)


class TestReduction:
    def test_two_chamber_rows_lose_their_average(self):
        rows = [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.5, 0.5, 1.0)]
        assert set(reduce_to_minimal(rows)) == {(1.0, 0.0, 1.0), (0.0, 1.0, 1.0)}

    def test_already_minimal_set_unchanged(self):
        rows = [(1.0, 0.0), (0.0, 1.0)]
        assert set(reduce_to_minimal(rows)) == set(rows)

    def test_idempotent(self):
        rows = [
            (1.0, 1.0, 0.0, 1.0),
            (1.0, 1.0, 1.0, 0.0),
            (1.0, 1.0, 0.5, 0.5),
            (2.0, 2.0, 2.0, 2.0),
        ]
        once = reduce_to_minimal(rows)
        assert reduce_to_minimal(once) == once

    @pytest.mark.parametrize(
        "a_set",
        [[], [(1.0, 0.0), (1.0,)], [(0.5,), (1.0, 0.0, 1.0)]],
        ids=["empty", "ragged", "ragged-short-first"],
    )
    def test_empty_or_ragged_sets_are_refused(self, a_set):
        with pytest.raises(DomainError, match="expected a set of equal-length vectors"):
            reduce_to_minimal(a_set)

    def test_a_generator_of_rows_is_taken_and_repeats_count_once(self):
        rows = [(0.5, 0.5, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)]
        kept = reduce_to_minimal(row for row in rows)
        assert kept == [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0)]
        assert all(type(v) is float for row in kept for v in row)

    @given(
        st.integers(min_value=2, max_value=4),
        st.data(),
    )
    @settings(max_examples=40)
    def test_minimum_is_preserved_on_cut_rows(self, n, data):
        from clustercap import build_parallel_graph, cuts_to_matrix, double_graph
        from clustercap import enumerate_minimal_cuts

        g = build_parallel_graph(n)
        raw = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g))).rows
        picked = data.draw(
            st.lists(st.sampled_from(raw), min_size=1, max_size=len(raw), unique=True)
        )
        x = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0, max_value=10),
                    min_size=len(raw[0]),
                    max_size=len(raw[0]),
                )
            )
        )
        kept = reduce_to_minimal(picked)
        before = min(float(np.dot(r, x)) for r in picked)
        after = min(float(np.dot(r, x)) for r in kept)
        assert before == pytest.approx(after, abs=1e-7)

    @given(st.lists(halves(3), min_size=1, max_size=8, unique=True))
    @settings(max_examples=40)
    def test_result_is_minimal(self, rows):
        kept = reduce_to_minimal(rows)
        for i, row in enumerate(kept):
            others = kept[:i] + kept[i + 1 :]
            if others:
                assert not is_redundant_lp(row, others).redundant


@given(
    st.integers(min_value=1, max_value=KEY_WIDTH).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(0, 2), min_size=width, max_size=width), min_size=1, max_size=12
        )
    )
)
@settings(max_examples=40)
def test_one_key_orders_rows_exactly(digits):
    """The Horner keys of `_keys` are the product keys of the permutation
    images (the rows times the keys of the identity rows), in int8 and in
    float, and `_distinct_order` gives the distinct rows in lexicographic
    order."""
    arr = np.array(digits, dtype=np.int8)
    key = redundancy._keys(arr)
    weights = redundancy._keys(np.eye(arr.shape[1], dtype=np.int8))
    assert key.shape == (len(arr),)
    assert key.tolist() == redundancy._keys(arr.astype(float)).tolist() == (arr @ weights).tolist()
    got = arr[redundancy._distinct_order(key)]
    assert list(map(tuple, got.tolist())) == sorted(set(map(tuple, digits)))


def test_rows_past_the_key_width_have_no_key():
    with pytest.raises(DomainError, match=f"rows 34 wide have no exact key, at most {KEY_WIDTH}"):
        redundancy._keys(np.zeros((2, KEY_WIDTH + 1), dtype=np.int8))


def test_rows_differing_in_the_last_of_33_columns_sort_and_deduplicate():
    # the last column is the least significant base-3 digit of the key
    low = np.zeros(KEY_WIDTH, dtype=np.int8)
    low[0] = 2
    high = low.copy()
    high[-1] = 1
    arr = np.array([high, low, high, low])
    assert redundancy._keys(arr)[0] == redundancy._keys(arr)[1] + 1
    assert arr[redundancy._distinct_order(redundancy._keys(arr))].tolist() == [
        low.tolist(), high.tolist()
    ]
    twice = np.array([high, low, high]) / 2.0
    assert redundancy._sort_distinct(twice)[0].tolist() == [(low / 2).tolist(), (high / 2).tolist()]


class TestStagedReduction:
    """The perceptron's certificates and midpoint exits, and the LPs after
    them, against the slow oracles."""

    @pytest.mark.parametrize("side", ["coefficients", "weights"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_one_pass_lp_reduction_on_cut_rows(self, n, side):
        rows = cut_rows(n, side)
        assert reduce_to_minimal(rows) == one_pass_lp_reduction(rows)

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_matches_one_pass_lp_reduction_on_half_integral_sets(self, rows):
        assert reduce_to_minimal(rows) == one_pass_lp_reduction(rows)

    @given(st.lists(halves(3), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_matches_one_pass_lp_reduction_on_other_sets(self, rows):
        assert reduce_to_minimal(rows) == one_pass_lp_reduction(rows)

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_pair_test_drops_only_redundant_rows(self, rows):
        arr = distinct(rows)
        for i in np.flatnonzero(pair_dominated(arr)):
            assert is_redundant_hull(arr[i], others(arr, i)).redundant

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_certified_rows_are_not_redundant(self, rows):
        arr = distinct(rows)
        for i in np.flatnonzero(perceptron_certified(arr)[0]):
            if len(arr) > 1:
                assert not is_redundant_lp(arr[i], others(arr, i)).redundant

    def test_float32_perceptron_scores_are_exact(self):
        # a score counted in halves: the perceptron's directions stay in
        # [0, 2 + 2 * PERCEPTRON_STEPS], so every partial sum is exact within
        # float32's 24-bit significand
        assert 2 * (2 + 2 * PERCEPTRON_STEPS) * KEY_WIDTH < 2**24

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_perceptron_certifies_only_vertices_on_half_integral_sets(self, rows):
        check_perceptron_vertices(distinct(rows))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_perceptron_certifies_only_vertices_on_raw_cut_rows(self, n):
        assert check_perceptron_vertices(raw_cut_rows(n)) == {1: 1, 2: 2, 3: 5, 4: 23}[n]

    def test_perceptron_certifies_the_pinned_five_chamber_rows(self):
        arr = raw_cut_rows(5)
        certified = arr[perceptron_certified(arr)[0]]
        assert set(map(tuple, certified.tolist())) == pinned_five_chamber_rows()

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_perceptron_drops_only_redundant_rows_on_half_integral_sets(self, rows):
        check_perceptron_drops(distinct(rows))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_perceptron_drops_only_redundant_rows_on_raw_cut_rows(self, n):
        assert check_perceptron_drops(raw_cut_rows(n)) == {1: 0, 2: 1, 3: 6, 4: 57}[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_perceptron_drops_what_the_pair_test_drops_on_raw_cut_rows(self, n):
        # so nothing is left for the LPs
        arr = raw_cut_rows(n)
        certified, dropped = perceptron_certified(arr)
        assert (dropped == pair_dominated(arr, ~certified)).all()
        assert (certified | dropped).all()

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_perceptron_matches_the_integer_oracle_on_half_integral_sets(self, rows):
        arr = distinct(rows)
        assert perceptron_certified(arr)[0].tolist() == perceptron_certified_int(arr).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_perceptron_matches_the_integer_oracle_on_raw_cut_rows(self, n):
        arr = raw_cut_rows(n)
        todo = np.ones(len(arr), dtype=bool)
        if n == 5:
            # the oracle takes about 7 s on every row: here the 590 vertices,
            # which stop early, and every 16th row
            pinned = pinned_five_chamber_rows()
            todo = np.array([row in pinned for row in map(tuple, arr.tolist())])
            todo[::16] = True
        got = perceptron_certified(arr)[0][todo]
        assert got.tolist() == perceptron_certified_int(arr, todo)[todo].tolist()

    def test_a_midpoint_is_never_certified(self):
        # it ties with both ends on d = 2b, and every later d puts one end
        # above it; at the second step it has met both ends and is dropped
        arr = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        certified, dropped = perceptron_certified(arr)
        assert certified.tolist() == [True, False, True]
        assert dropped.tolist() == [False, True, False]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(redundancy, "PERCEPTRON_STEPS", 1)
            assert perceptron_certified(arr)[1].tolist() == [False, False, False]

    def test_a_dominated_row_is_its_best_competitors_midpoint(self):
        # i = j: (1, 1) >= (1, 1/2) is the first competitor the lower row meets
        arr = np.array([(1.0, 0.5), (1.0, 1.0), (0.0, 0.0)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(redundancy, "PERCEPTRON_STEPS", 1)
            certified, dropped = perceptron_certified(arr)
        assert certified.tolist() == [False, True, False]
        assert dropped.tolist() == [True, False, True]

    # no perceptron steps, so the LPs settle every row; or
    # one step, so the LPs test the rows left beside rows already certified
    # (at n = 3, 4 it certifies 4 and 12 rows and leaves 1 and 11 to the LPs)
    CERTIFICATE_CAPS = pytest.mark.parametrize(
        "steps", [0, 1], ids=["no-certificates", "one-step"]
    )

    @CERTIFICATE_CAPS
    @given(rows=half_integral_sets())
    @settings(max_examples=20)
    def test_the_lps_settle_what_the_certificates_leave(self, steps, rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(redundancy, "PERCEPTRON_STEPS", steps)
            assert reduce_to_minimal(rows) == one_pass_lp_reduction(rows)

    @CERTIFICATE_CAPS
    @pytest.mark.parametrize("n", [3, 4])
    def test_the_lps_settle_what_the_certificates_leave_on_cut_rows(self, monkeypatch, n, steps):
        monkeypatch.setattr(redundancy, "PERCEPTRON_STEPS", steps)
        rows = raw_cut_rows(n)
        assert reduce_to_minimal(rows) == one_pass_lp_reduction(rows)

    def test_pair_test_refuses_duplicate_rows(self):
        with pytest.raises(DomainError, match="distinct rows"):
            pair_dominated([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_perceptron_refuses_duplicate_rows(self):
        # each copy would meet the other as its best competitor, lie at their
        # midpoint and be dropped, and the vertex with it
        with pytest.raises(DomainError, match="the perceptron takes distinct rows"):
            perceptron_certified([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    @given(half_integral_sets())
    @settings(max_examples=40)
    def test_certified_rows_need_no_pair_test_on_half_integral_sets(self, rows):
        check_reorder(distinct(rows))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_certified_rows_need_no_pair_test_on_raw_cut_rows(self, n):
        check_reorder(raw_cut_rows(n))

    @pytest.mark.parametrize("stage", [pair_dominated, perceptron_certified])
    @pytest.mark.parametrize(
        "rows",
        [
            [[0.3], [0.9]],
            [[1.5, 0.0], [0.0, 1.0]],
            [[-0.5, 1.0], [1.0, 0.0]],
            [[np.nan, 1.0], [1.0, 0.0]],
            np.zeros((2, KEY_WIDTH + 1)),
            [0.5, 1.0],
            np.zeros((2, 2, 2)),
        ],
        ids=["fractions", "above-one", "negative-half", "nan", "too-wide", "one-row", "not-a-matrix"],
    )
    def test_off_domain_rows_are_refused(self, stage, rows):
        rule = f"entries in {{0, 1/2, 1}}, at most {KEY_WIDTH} wide"
        with pytest.raises(DomainError, match=re.escape(rule)):
            stage(rows)

    def test_pair_test_on_four_chamber_cut_rows(self):
        arr = distinct(cut_rows(4, "coefficients"))
        dropped = np.flatnonzero(pair_dominated(arr))
        assert len(arr) - len(dropped) == 23
        for i in dropped:
            assert is_redundant_hull(arr[i], others(arr, i)).redundant

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_certificates_settle_every_survivor_up_to_four_chambers(self, n):
        arr = distinct(cut_rows(n, "coefficients"))
        alive = ~pair_dominated(arr)
        assert (perceptron_certified(arr)[0] == alive).all()
        survivors = arr[alive]
        for i in range(len(survivors) if len(survivors) > 1 else 0):
            assert not is_redundant_lp(survivors[i], others(survivors, i)).redundant


class TestSeparationPass:
    """Stage 3's pass of separation LPs against the slow oracle's."""

    @pytest.mark.parametrize("side", ["coefficients", "weights"])
    def test_matches_one_pass_lp_reduction_on_raw_four_chamber_rows(self, side):
        arr = distinct(cut_rows(4, side))
        alive = np.ones(len(arr), dtype=bool)
        assert separate_remaining(arr, alive, np.zeros(len(arr), dtype=bool)) == 80
        assert 0 < alive.sum() < 80  # the verdicts mix
        assert list(map(tuple, arr[alive])) == one_pass_lp_reduction(arr)

    @pytest.mark.parametrize(
        "status, why",
        [("Time limit reached", "solver failure: Time limit reached"), (lp.UNBOUNDED, "Unbounded")],
        ids=["time-limit", "unbounded"],
    )
    def test_breakdown_mid_pass_raises_and_marks_no_row_redundant(
        self, monkeypatch, status, why
    ):
        arr = distinct(cut_rows(4, "coefficients"))
        done = np.ones(len(arr), dtype=bool)
        separate_remaining(arr, done, np.zeros(len(arr), dtype=bool))
        real, runs = lp._run, []

        def breaks_at_the_41st_run(handle):
            runs.append(handle)
            if len(runs) == 41:
                return lp._Answer(status, None, None, None, 0)
            return real(handle)

        monkeypatch.setattr(lp, "_run", breaks_at_the_41st_run)
        alive = np.ones(len(arr), dtype=bool)
        with pytest.raises(LpSolverError, match=why):
            separate_remaining(arr, alive, np.zeros(len(arr), dtype=bool))
        # every row is tested here, so the 41st LP is row 40's
        assert not done[:40].all()  # rows were dropped before the breakdown
        assert alive.tolist() == done[:40].tolist() + [True] * (len(arr) - 40)

    @pytest.mark.parametrize(
        "x, why",
        [
            pytest.param(0.0, "row 0 violated", id="0.0-does not separate"),
            pytest.param(-1.0, "bound violated for x0", id="-1.0-has negative entries"),
        ],
    )
    def test_a_direction_that_does_not_separate_raises(self, monkeypatch, x, why):
        def optimal_at_x(handle):
            point = np.full(len(handle.problem.col_names), x)
            return lp._Answer(lp.OPTIMAL, point, 0.0, np.zeros(len(handle.rows)), 0)

        monkeypatch.setattr(lp, "_run", optimal_at_x)
        alive = np.ones(3, dtype=bool)
        with pytest.raises(LpSolverError, match=f"redundancy_separation: {why}"):
            separate_remaining([CUT_1, CUT_2, CUT_3], alive, np.zeros(3, dtype=bool))
        assert alive.all()

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            reduce_to_minimal([(1.0, -0.5), (0.0, 1.0)])


def cyclic_group(perm) -> np.ndarray:
    """The powers of a column permutation, the identity first."""
    powers = [np.arange(len(perm))]
    while (power := powers[-1][perm]).tolist() != powers[0].tolist():
        powers.append(power)
    return np.array(powers)


@st.composite
def symmetric_sets(draw):
    """A half-integral set closed under the cyclic group of a random column
    permutation, and the group."""
    rows = draw(half_integral_sets())
    group = cyclic_group(np.array(draw(st.permutations(range(len(rows[0]))))))
    closed = sorted({tuple(np.asarray(row)[perm].tolist()) for row in rows for perm in group})
    return draw(st.permutations(closed)), group


class TestSymmetries:
    """`reduce_to_minimal` with a group of column permutations that leaves
    the set invariant: one perceptron run per orbit, the same rows kept."""

    @given(symmetric_sets())
    @settings(max_examples=40, deadline=None)
    def test_a_group_changes_nothing_kept(self, case):
        rows, group = case
        assert reduce_to_minimal(rows, symmetries=group) == reduce_to_minimal(rows)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_the_chamber_relabelings_change_nothing_kept_on_raw_cut_rows(self, n):
        rows = raw_cut_rows(n)
        assert reduce_to_minimal(rows, chamber_permutations(n)) == reduce_to_minimal(rows)

    def test_five_chambers_fall_into_86_orbits(self):
        arr, keys = redundancy._sort_distinct(raw_cut_rows(5))
        rep_of = redundancy._representatives(arr, keys, chamber_permutations(5))
        reps = np.flatnonzero(rep_of == np.arange(len(arr)))
        assert len(arr) == 2645 and len(reps) == 86
        assert (rep_of[reps] == reps).all()
        # each row's representative is one of its images
        for i in range(0, len(arr), 37):
            images = {tuple(arr[i][perm].tolist()) for perm in chamber_permutations(5)}
            assert tuple(arr[rep_of[i]].tolist()) in images

    @pytest.mark.parametrize(
        "rows, group",
        [
            pytest.param([(1.0, 0.0)], [[0, 1], [1, 0]], id="image-missing"),
            pytest.param(
                [(1.0, 0.0, 0.5), (0.0, 0.5, 1.0)], [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                id="two-of-three-images",
            ),
            pytest.param(
                [(0.0, 1.0), (0.5, 0.0), (0.5, 0.5)], [[0, 1], [1, 0]], id="least-image-missing"
            ),
            pytest.param(
                [(0.5, 0.5, 1.0), (0.5, 1.0, 0.5), (1.0, 0.5, 0.5)], [[0, 1, 2], [2, 0, 1]],
                id="not-a-group",
            ),
        ],
    )
    def test_a_set_the_group_does_not_keep_is_refused(self, rows, group):
        with pytest.raises(DomainError, match="do not leave the set invariant"):
            reduce_to_minimal(rows, symmetries=group)

    def test_cut_rows_less_one_are_refused(self):
        rows = raw_cut_rows(4)[1:]
        with pytest.raises(DomainError, match="do not leave the set invariant"):
            reduce_to_minimal(rows, chamber_permutations(4))

    @pytest.mark.parametrize(
        "group",
        [[[0, 0]], [[0, 1, 2]], [0, 1], [[0.0, 1.0]], [[1, 2]]],
        ids=["repeat", "too-wide", "flat", "floats", "out-of-range"],
    )
    def test_symmetries_must_be_permutations_of_the_columns(self, group):
        with pytest.raises(DomainError, match="permutations of the 2 columns"):
            reduce_to_minimal([(1.0, 0.0), (0.0, 1.0)], symmetries=group)

    def test_symmetries_take_a_half_integral_set(self):
        with pytest.raises(DomainError, match="symmetries take a half-integral set"):
            reduce_to_minimal([(2.0, 0.0), (0.0, 2.0)], symmetries=[[0, 1], [1, 0]])

    @pytest.mark.parametrize("width", [33, 34, 40, 63])
    def test_keys_are_exact_at_every_width(self, width):
        # the rows differ in the last column only; a float64 base-3 key would
        # round that digit away past KEY_WIDTH columns, so wider sets go
        # through the separation LPs alone and take no symmetries
        low = np.zeros(width)
        low[0] = 1.0
        high = low.copy()
        high[-1] = 0.5
        swap = np.arange(width)
        swap[[1, 2]] = swap[[2, 1]]
        kept = [tuple(high.tolist())]
        assert reduce_to_minimal([low, high]) == reduce_to_minimal([high, low, high]) == kept
        group = [np.arange(width), swap]
        if width <= KEY_WIDTH:
            assert reduce_to_minimal([high, low, high], symmetries=group) == kept
        else:
            with pytest.raises(DomainError, match=f"half-integral set, at most {KEY_WIDTH} wide"):
                reduce_to_minimal([high, low, high], symmetries=group)

    @given(half_integral_sets(min_dim=KEY_WIDTH + 1, max_dim=40, max_rows=8))
    @settings(max_examples=40, deadline=None)
    def test_sets_past_the_key_width_go_through_the_lps(self, rows):
        arr = distinct(rows)
        hull = [
            tuple(arr[i].tolist())
            for i in range(len(arr))
            if len(arr) == 1 or not is_redundant_hull(arr[i], others(arr, i)).redundant
        ]
        assert reduce_to_minimal(rows) == hull
        with pytest.raises(DomainError, match="symmetries take a half-integral set"):
            reduce_to_minimal(rows, symmetries=[np.arange(arr.shape[1])])

    def test_the_perceptron_runs_only_the_rows_asked(self):
        arr = raw_cut_rows(4)
        todo = np.zeros(len(arr), dtype=bool)
        todo[::3] = True
        certified, dropped = redundancy._perceptron(arr, todo)
        every = perceptron_certified(arr)
        assert not (certified | dropped)[~todo].any()
        assert certified[todo].tolist() == every[0][todo].tolist()
        assert dropped[todo].tolist() == every[1][todo].tolist()


@pytest.mark.parametrize(
    "call",
    [
        lambda: reduce_to_minimal(np.zeros((2, 0))),
        lambda: perceptron_certified(np.zeros((2, 0))),
        lambda: is_redundant_lp(np.zeros(0), np.zeros((1, 0))),
    ],
    ids=["reduce", "perceptron", "separation-lp"],
)
def test_rows_need_at_least_one_column(call):
    with pytest.raises(DomainError, match="rows need at least one column"):
        call()
