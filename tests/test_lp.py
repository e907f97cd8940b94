import ctypes
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clustercap import lp
from clustercap.errors import DomainError, LpSolverError

from lp_oracles import read_lp_text


def simple_problem(sense=lp.MINIMIZE):
    build = lp.LpBuilder("simple", sense)
    x = build.add_var("x")
    build.set_objective([(x, 1.0)])
    build.add_constraint("floor", [(x, 1.0)], lp.GE, 5.0)
    return build.problem()


def mix_problem():
    build = lp.LpBuilder("mix", lp.MAXIMIZE)
    x = build.add_var("x", upper=4.0)
    y = build.add_var("y", lower=1.0)
    z = build.add_var("z", lower=float("-inf"))
    build.set_objective([(x, 2.0), (y, -1.0), (z, 0.5)])
    build.add_constraint("r1", [(x, 1.0), (y, 2.0)], lp.LE, 9.0)
    build.add_constraint("r2", [(y, 1.0), (z, -1.0)], lp.GE, 0.5)
    build.add_constraint("r3", [(x, 1.0), (z, 1.0)], lp.EQ, 3.0)
    return build.problem()


class TestSolve:
    def test_minimize_with_floor(self):
        sol = lp.solve(simple_problem())
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(5.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(5.0, abs=1e-9)

    def test_degenerate_maximum_accepts_any_optimal_vertex(self):
        build = lp.LpBuilder("degenerate", lp.MAXIMIZE)
        x = build.add_var("x")
        y = build.add_var("y")
        build.set_objective([(x, 1.0), (y, 1.0)])
        build.add_constraint("cap", [(x, 1.0), (y, 1.0)], lp.LE, 1.0)
        sol = lp.solve(build.problem())
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] + sol.x[1] == pytest.approx(1.0, abs=1e-8)

    def test_infeasible(self):
        build = lp.LpBuilder("infeasible")
        x = build.add_var("x", upper=1.0)
        build.set_objective([(x, 1.0)])
        build.add_constraint("floor", [(x, 1.0)], lp.GE, 2.0)
        assert lp.solve(build.problem()).status == lp.INFEASIBLE

    def test_unbounded(self):
        build = lp.LpBuilder("unbounded", lp.MAXIMIZE)
        x = build.add_var("x")
        build.set_objective([(x, 1.0)])
        build.add_constraint("floor", [(x, 1.0)], lp.GE, 0.0)
        assert lp.solve(build.problem()).status == lp.UNBOUNDED

    def test_equality_constraints(self):
        build = lp.LpBuilder("transfer")
        x = build.add_var("x")
        y = build.add_var("y")
        build.set_objective([(x, 2.0), (y, 3.0)])
        build.add_constraint("sum", [(x, 1.0), (y, 1.0)], lp.EQ, 4.0)
        sol = lp.solve(build.problem())
        assert sol.objective == pytest.approx(8.0, abs=1e-8)

    def test_deterministic_repeat(self):
        p = simple_problem()
        first = lp.solve(p)
        for _ in range(3):
            again = lp.solve(p)
            assert again.x == first.x
            assert again.objective == first.objective

    def test_weak_duality_on_minimization(self):
        build = lp.LpBuilder("diet")
        x = build.add_var("x")
        y = build.add_var("y")
        build.set_objective([(x, 3.0), (y, 5.0)])
        build.add_constraint("protein", [(x, 1.0), (y, 2.0)], lp.GE, 6.0)
        build.add_constraint("fiber", [(x, 2.0), (y, 1.0)], lp.GE, 6.0)
        p = build.problem()
        sol = lp.solve(p)
        assert sol.status == lp.OPTIMAL and sol.duals is not None
        dual_obj = sum(d * rhs for d, rhs in zip(sol.duals, p.rhs))
        assert dual_obj <= sol.objective + 1e-6

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30)
    def test_objective_scaling(self, alpha):
        base = lp.solve(simple_problem())
        build = lp.LpBuilder("scaled")
        x = build.add_var("x")
        build.set_objective([(x, alpha)])
        build.add_constraint("floor", [(x, 1.0)], lp.GE, 5.0)
        scaled = lp.solve(build.problem())
        assert scaled.status == lp.OPTIMAL
        assert scaled.objective == pytest.approx(alpha * base.objective, rel=1e-9)


class TestValidation:
    def test_duplicate_variable_name(self):
        build = lp.LpBuilder("dup")
        build.add_var("x")
        build.add_var("x")
        with pytest.raises(DomainError, match="duplicate variable"):
            build.problem()

    def test_duplicate_index_in_row(self):
        build = lp.LpBuilder("dup")
        x = build.add_var("x")
        build.add_constraint("row", [(x, 1.0), (x, 2.0)], lp.LE, 1.0)
        with pytest.raises(DomainError, match="duplicate index"):
            build.problem()
        # the repeat apart from its twin, in a row whose columns do not rise
        build = lp.LpBuilder("dup")
        x, y, z = build.add_cols(["x", "y", "z"])
        build.add_constraint("sorted", [(x, 1.0), (y, 1.0)], lp.LE, 1.0)
        build.add_constraint("row", [(z, 1.0), (y, 2.0), (x, 3.0), (y, 4.0)], lp.LE, 1.0)
        with pytest.raises(DomainError, match="constraint 'row': duplicate index 1"):
            build.problem()

    def test_duplicate_index_in_objective(self):
        # solving kept the last coefficient while the LP text summed them
        build = lp.LpBuilder("dup")
        x = build.add_var("x")
        build.set_objective([(x, -1.0), (x, 2.0)])
        with pytest.raises(DomainError, match="objective: duplicate index"):
            build.problem()

    def test_out_of_range_index(self):
        build = lp.LpBuilder("oob")
        build.add_var("x")
        build.add_constraint("row", [(7, 1.0)], lp.LE, 1.0)
        with pytest.raises(DomainError, match="out of range"):
            build.problem()

    def test_bad_sense(self):
        build = lp.LpBuilder("bad")
        x = build.add_var("x")
        build.add_constraint("row", [(x, 1.0)], "<", 1.0)
        with pytest.raises(DomainError, match="sense"):
            build.problem()

    def test_constraint_named_like_a_column(self):
        build = lp.LpBuilder("dup")
        x = build.add_var("x")
        build.add_constraint("x", [(x, 1.0)], lp.LE, 1.0)
        with pytest.raises(DomainError, match="duplicate constraint name 'x'"):
            build.problem()

    @pytest.mark.parametrize(
        "lower, upper",
        [(2.0, 1.0), (np.nan, np.inf), (0.0, np.nan), (np.inf, np.inf), (-np.inf, -np.inf)],
    )
    def test_bounds_that_hold_no_number_name_the_column(self, lower, upper):
        # unchecked, all but the first reach HiGHS, which refuses the model naming no column
        build = lp.LpBuilder("bounds")
        build.add_var("fine")
        build.add_var("x", lower, upper)
        with pytest.raises(DomainError, match="variable 'x' has empty bound interval"):
            build.problem()

    @pytest.mark.parametrize(
        "sense, rhs",
        [
            (lp.LE, np.nan),
            (lp.GE, np.nan),
            (lp.EQ, np.nan),
            (lp.EQ, np.inf),
            (lp.EQ, -np.inf),
            (lp.LE, -np.inf),
            (lp.GE, np.inf),
        ],
    )
    def test_right_hand_sides_that_bound_nothing_name_the_row(self, sense, rhs):
        # unchecked, these reach HiGHS, which refuses the model naming no row
        build = lp.LpBuilder("rhs")
        x = build.add_var("x", upper=5.0)
        build.add_constraint("fine", [(x, 1.0)], lp.LE, 4.0)
        build.add_constraint("cap", [(x, 1.0)], sense, rhs)
        message = f"constraint 'cap' has right-hand side {sense} {rhs}"
        with pytest.raises(DomainError, match=re.escape(message)):
            build.problem()


class TestSizeStats:
    def test_counts_entries(self):
        build = lp.LpBuilder("counts")
        x = build.add_var("x")
        y = build.add_var("y")
        build.add_constraint("row", [(x, 1.0), (y, -1.0)], lp.LE, 0.0)
        stats = lp.size_stats(build.problem())
        assert stats == lp.SizeStats(rows=1, columns=2, nonzeros=2)


def roundtrip(p):
    """The exported text of `p`, read back by HiGHS."""
    return read_lp_text(lp.export_lp_text(p)).problem(p.name)


class TestExport:
    def test_sections_present(self):
        text = lp.export_lp_text(simple_problem())
        for section in ("Minimize", "Subject To", "Bounds", "End"):
            assert section in text
        assert "floor: 1 x >= 5" in text

    def test_empty_objective_is_valid(self):
        build = lp.LpBuilder("noobj")
        x = build.add_var("x")
        build.add_constraint("row", [(x, 1.0)], lp.LE, 2.0)
        p = build.problem()
        text = lp.export_lp_text(p)
        assert "Subject To" in text
        back = read_lp_text(text).problem()
        assert lp.solve(back).status == lp.OPTIMAL

    def test_seventeen_digit_coefficients_roundtrip(self):
        build = lp.LpBuilder("precise")
        x = build.add_var("x")
        coef = 1.0 / 3.0
        build.set_objective([(x, coef)])
        build.add_constraint("row", [(x, 0.1234567890123456789)], lp.GE, np.pi)
        back = roundtrip(build.problem())
        assert back.objective[0][1] == coef
        assert back.matrix.data.tolist() == [0.1234567890123456789]
        assert back.rhs[0] == float(np.pi)

    def test_roundtrip_preserves_solution(self):
        p = mix_problem()
        back = roundtrip(p)
        a, b = lp.solve(p), lp.solve(back)
        assert a.status == b.status == lp.OPTIMAL
        assert b.objective == pytest.approx(a.objective, rel=1e-6)

    def test_roundtrip_preserves_counts(self):
        p = simple_problem()
        back = roundtrip(p)
        assert lp.size_stats(back) == lp.size_stats(p)
        assert set(back.col_names) == set(p.col_names)

    def test_row_without_entries_roundtrips_without_entries(self):
        build = lp.LpBuilder("emptyrow")
        x = build.add_var("x")
        build.add_constraint("nothing", [], lp.LE, 5.0)
        build.add_constraint("zero", [(x, 0.0)], lp.GE, -1.0)
        p = build.problem()
        text = lp.export_lp_text(p)
        assert "\n obj: 0\n" in text
        assert "\n nothing: 0 <= 5\n zero: 0 x >= -1\n" in text
        # HiGHS's reader drops the explicit zero entry, so both rows read empty
        back = roundtrip(p)
        assert lp.size_stats(p) == lp.SizeStats(2, 1, 1)
        assert lp.size_stats(back) == lp.SizeStats(2, 1, 0)
        assert back.matrix.indptr.tolist() == [0, 0, 0]
        assert back.objective == p.objective == ()
        assert lp.export_lp_text(back) == text.replace("0 x >= -1", "0 >= -1")

    def test_problem_without_variables_roundtrips(self):
        build = lp.LpBuilder("novars")
        build.add_constraint("r", [], lp.LE, 5.0)
        p = build.problem()
        text = lp.export_lp_text(p)
        back = roundtrip(p)
        assert lp.size_stats(back) == lp.SizeStats(1, 0, 0)
        assert back.row_names == ("r",) and back.rhs.tolist() == [5.0]
        assert lp.export_lp_text(back) == text

    def test_unsafe_names_rejected(self):
        build = lp.LpBuilder("unsafe")
        build.add_var("my var")
        with pytest.raises(DomainError, match="not LP-format safe"):
            lp.export_lp_text(build.problem())

    def test_infinite_bounds_roundtrip_as_no_bound(self):
        build = lp.LpBuilder("infinite")
        x = build.add_var("x", upper=np.inf)
        y = build.add_var("y", lower=-np.inf, upper=np.inf)
        z = build.add_var("z", lower=-np.inf, upper=5.0)
        build.set_objective([(x, 1.0), (y, 1.0), (z, -1.0)])
        build.add_constraint("floor", [(x, 1.0), (y, 1.0)], lp.GE, 2.0)
        p = build.problem()
        text = lp.export_lp_text(p)
        assert "\n x >= 0\n y free\n -inf <= z <= 5\nEnd\n" in text
        back = roundtrip(p)
        assert back.col_names == p.col_names
        assert back.lower.tolist() == [0.0, -np.inf, -np.inf]
        assert back.upper.tolist() == [np.inf, np.inf, 5.0]
        assert lp.export_lp_text(back) == text
        assert lp.solve(back).objective == lp.solve(p).objective == -3.0

    def test_infinite_rhs_roundtrips_as_no_bound(self):
        build = lp.LpBuilder("open", lp.MAXIMIZE)
        x = build.add_var("x", upper=5.0)
        build.set_objective([(x, 1.0)])
        build.add_constraint("cap", [(x, 1.0)], lp.LE, np.inf)
        build.add_constraint("floor", [(x, 1.0)], lp.GE, -np.inf)
        p = build.problem()
        text = lp.export_lp_text(p)
        assert "\n cap: 1 x <= inf\n floor: 1 x >= -inf\n" in text
        # HiGHS's reader takes both as one kind of row: free, with no bound
        read = read_lp_text(text)
        assert read.row_lower.tolist() == [-np.inf, -np.inf]
        assert read.row_upper.tolist() == [np.inf, np.inf]
        back = read.problem(p.name)
        assert back.senses == (lp.LE, lp.LE) and back.rhs.tolist() == [np.inf, np.inf]
        assert lp.export_lp_text(back) == text.replace("x >= -inf", "x <= inf")
        assert lp.solve(back).objective == lp.solve(p).objective == 5.0

    def test_infeasible_survives_roundtrip(self):
        build = lp.LpBuilder("infeasible")
        x = build.add_var("x", upper=1.0)
        build.set_objective([(x, 1.0)])
        build.add_constraint("floor", [(x, 1.0)], lp.GE, 2.0)
        assert lp.solve(roundtrip(build.problem())).status == lp.INFEASIBLE


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=40)
def test_random_problem_roundtrip(n_vars, n_rows, data):
    build = lp.LpBuilder("fuzz")
    for j in range(n_vars):
        build.add_var(f"v{j}")
    build.set_objective(
        (j, data.draw(st.floats(min_value=-10, max_value=10))) for j in range(n_vars)
    )
    for r in range(n_rows):
        coeffs = [
            (j, data.draw(st.floats(min_value=-10, max_value=10))) for j in range(n_vars)
        ]
        sense = data.draw(st.sampled_from([lp.LE, lp.GE, lp.EQ]))
        rhs = data.draw(st.floats(min_value=-10, max_value=10))
        build.add_constraint(f"r{r}", coeffs, sense, rhs)
    p = build.problem()
    back = roundtrip(p)
    a, b = lp.solve(p), lp.solve(back)
    assert a.status == b.status
    if a.status == lp.OPTIMAL:
        assert b.objective == pytest.approx(a.objective, rel=1e-6, abs=1e-6)


def test_stored_rows_match_added_pairs():
    rng = np.random.default_rng(5)
    for trial in range(30):
        build = lp.LpBuilder(f"rows{trial}")
        n_vars = int(rng.integers(1, 8))
        for j in range(n_vars):
            build.add_var(f"v{j}")
        want = []
        for r in range(int(rng.integers(0, 12))):
            cols = rng.permutation(n_vars)[: rng.integers(0, n_vars + 1)].tolist()
            pairs = [(j, float(rng.normal())) for j in cols]
            sense = (lp.LE, lp.GE, lp.EQ)[r % 3]
            rhs = float(rng.normal())
            assert build.add_constraint(f"r{r}", iter(pairs), sense, rhs) == r
            want.append((f"r{r}", pairs, sense, rhs))
        p = build.problem()
        a = p.matrix
        got = [
            (name, list(zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist())), sense, rhs)
            for name, lo, hi, sense, rhs in zip(
                p.row_names, a.indptr[:-1], a.indptr[1:], p.senses, p.rhs.tolist()
            )
        ]
        assert got == want
        assert lp.size_stats(p) == lp.SizeStats(len(want), n_vars, sum(len(w[1]) for w in want))


def test_single_rows_and_blocks_keep_their_order():
    build = lp.LpBuilder("mixed")
    for j in range(3):
        build.add_var(f"v{j}")
    assert build.add_constraint("a", [(0, 1.0)], lp.LE, 1.0) == 0
    assert build.add_rows(["b", "c"], [2, 1], [1, 2, 0], [2.0, 3.0, 4.0], lp.GE, 2.0) == range(1, 3)
    assert build.add_constraint("d", [(2, 5.0), (1, 6.0)], lp.EQ, 3.0) == 3
    first = build.problem()
    for p in (first, build.problem()):
        assert p.row_names == ("a", "b", "c", "d")
        assert p.senses == (lp.LE, lp.GE, lp.GE, lp.EQ)
        assert p.rhs.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert p.matrix.indptr.tolist() == [0, 1, 3, 4, 6]
        assert p.matrix.indices.tolist() == [0, 1, 2, 0, 2, 1]
        assert p.matrix.data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_block_with_one_rhs_per_row():
    build = lp.LpBuilder("rhs")
    for j in range(2):
        build.add_var(f"v{j}")
    build.add_constraint("a", [(0, 1.0)], lp.LE, 1.0)
    rows = build.add_rows(["b", "c", "d"], [1, 2, 0], [1, 0, 1], [2.0, 3.0, 4.0], lp.EQ, [5, -6.5, 7])
    assert rows == range(1, 4)
    build.add_rows(["e"], [1], [0], [8.0], lp.GE, [9.0])
    p = build.problem()
    assert p.row_names == ("a", "b", "c", "d", "e")
    assert p.senses == (lp.LE, lp.EQ, lp.EQ, lp.EQ, lp.GE)
    assert p.rhs.tolist() == [1.0, 5.0, -6.5, 7.0, 9.0]
    assert p.matrix.indptr.tolist() == [0, 1, 2, 4, 4, 5]


@pytest.mark.parametrize("rhs", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
def test_block_rhs_of_the_wrong_length_is_refused(rhs):
    build = lp.LpBuilder("rhs")
    build.add_var("v0")
    with pytest.raises(DomainError, match=r"row block \['first'\]: .* right-hand sides for 3 rows"):
        build.add_rows(["first", "second", "third"], [1, 1, 1], [0, 0, 0], [1.0] * 3, lp.LE, rhs)


@pytest.mark.parametrize(
    "counts, cols", [([1, 1], [0, 0, 0]), ([2, -1, 2], [0, 0, 0]), ([1, 1, 1, 0], [0, 0, 0])]
)
def test_block_counts_must_cover_the_entries(counts, cols):
    build = lp.LpBuilder("counts")
    build.add_var("v0")
    with pytest.raises(DomainError, match=r"row block \['first'\]: counts, columns and values"):
        build.add_rows(["first", "second", "third"], counts, cols, [1.0] * 3, lp.LE, 0.0)


def test_column_blocks_and_single_columns_keep_their_order():
    build = lp.LpBuilder("cols")
    assert build.add_var("a", upper=1.0) == 0
    assert build.add_cols(["b", "c", "d"], [0.0, -1.0, -np.inf], [2.0, np.inf, 3.0]) == range(1, 4)
    assert build.add_var("e", lower=-2.0) == 4
    assert build.add_cols(["f", "g"], lower=1.0) == range(5, 7)
    assert build.add_cols([]) == range(7, 7)
    p = build.problem()
    assert p.col_names == ("a", "b", "c", "d", "e", "f", "g")
    assert p.lower.tolist() == [0.0, 0.0, -1.0, -np.inf, -2.0, 1.0, 1.0]
    assert p.upper.tolist() == [1.0, 2.0, np.inf, 3.0, np.inf, np.inf, np.inf]
    assert lp.size_stats(p) == lp.SizeStats(rows=0, columns=7, nonzeros=0)
    with pytest.raises(ValueError, match="read-only"):
        p.upper[0] = 5.0


def test_name_rules_run_only_when_the_names_are_asked_for():
    runs = []

    def rule():
        runs.append(1)
        return ["b", "c"]

    build = lp.LpBuilder("rules")
    build.add_var("a")
    assert build.add_cols(lp.Names(2, rule)) == range(1, 3)
    build.add_rows(lp.Names(1, lambda: ["r"]), [3], [0, 1, 2], [1.0, 2.0, 3.0], lp.GE, 6.0)
    build.add_constraint("s", [(2, 1.0)], lp.LE, 1.0)
    p = build.problem()
    assert lp.solve(p).status == lp.OPTIMAL and lp.size_stats(p) == lp.SizeStats(2, 3, 4)
    assert not runs
    assert (p.col_names, p.row_names) == (("a", "b", "c"), ("r", "s"))
    assert p.col_names is p.col_names and runs == [1]


def test_a_rule_that_makes_another_count_of_names_is_refused():
    build = lp.LpBuilder("rules")
    build.add_cols(lp.Names(2, lambda: ["x"]))
    p = build.problem()
    with pytest.raises(DomainError, match="a name rule made 1 of 2 names"):
        p.col_names
    with pytest.raises(DomainError, match=r"column block \['x'\]: bounds for 2 columns"):
        build.add_cols(lp.Names(2, lambda: ["x", "y"]), lower=[0.0])


def test_problem_arrays_are_read_only():
    """What a handle copies (the right-hand sides) and what `certify` reads
    (the matrix) cannot drift apart: a write to any array of the problem
    raises."""
    p = mix_problem()
    a = p.matrix
    for array in (p.lower, p.upper, p.rhs, a.indptr, a.indices, a.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7


@pytest.mark.parametrize("bounds", [{"lower": [0.0, 1.0]}, {"upper": [1.0] * 4}, {"lower": [[0.0] * 3]}])
def test_column_bounds_of_the_wrong_length_are_refused(bounds):
    build = lp.LpBuilder("cols")
    with pytest.raises(DomainError, match=r"column block \['first'\]: bounds for 3 columns"):
        build.add_cols(["first", "second", "third"], **bounds)


def assert_like_scipy(a: lp.Csr, xs, row_blocks):
    """`a @ x` is scipy's product byte for byte, and `a[rows]` scipy's rows."""
    oracle = sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    for x in xs:
        assert (a @ x).tobytes() == (oracle @ x).tobytes()
    for rows in row_blocks:
        got, want = a[rows], oracle[rows]
        assert got.shape == want.shape and got.nnz == want.nnz
        for mine, theirs in ((got.indptr, want.indptr), (got.indices, want.indices)):
            assert mine.tolist() == theirs.tolist()
        assert got.data.tobytes() == want.data.tobytes()


class TestCsr:
    """`Csr` against scipy.sparse, the oracle it replaces."""

    @pytest.mark.parametrize("params", [(0, "1:1", 3), (1, "1:4", 3)], ids=["s0", "s1"])
    @pytest.mark.parametrize("kind", ["basic", "serial", "generalized", "alternative"])
    def test_the_model_lps_of_the_verify_instances(self, params, kind, cuts5):
        from clustercap import instances, models

        inst = instances.generate(instances.GenParams(*params, 2, 5, 1))
        problem = models.build_model(inst, kind, cuts5[0]).problem
        a = problem.matrix
        m, n = a.shape
        rng = np.random.default_rng(m)
        solved = np.array(lp.solve(problem).x)
        sparse_x = rng.normal(size=n) * (rng.random(n) < 0.3)
        xs = [solved, rng.uniform(0.0, 10.0, n), rng.normal(size=n) * 1e6, sparse_x]
        blocks = [np.arange(m), rng.permutation(m)[: m // 2], rng.integers(0, m, 40), []]
        assert_like_scipy(a, xs, blocks)
        with pytest.raises(DomainError, match="times vector"):
            a @ np.zeros(n + 1)

    @given(
        st.integers(min_value=0, max_value=5),
        st.lists(st.lists(st.integers(0, 4), unique=True, max_size=5), max_size=8),
        st.data(),
    )
    def test_random_rows(self, cols, rows, data):
        """Rows empty or not, columns in any order, and rho, the last column,
        last in each row that holds it."""
        values = st.floats(-1e6, 1e6, allow_subnormal=False)
        build = lp.LpBuilder("rows")
        build.add_cols([f"v{j}" for j in range(cols + 1)])
        rho = cols
        for i, row in enumerate(rows):
            pairs = [(j, data.draw(values)) for j in row if j < cols]
            if data.draw(st.booleans()):
                pairs.append((rho, -1.0))
            build.add_constraint(f"r{i}", pairs, lp.LE, 0.0)
        a = build.problem().matrix
        x = np.array(data.draw(st.lists(values, min_size=cols + 1, max_size=cols + 1)))
        picks = st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=10 if rows else 0)
        assert_like_scipy(a, [x], [np.arange(len(rows)), data.draw(picks)])

    def test_entry_rows_are_made_once_and_read_only(self):
        a = floors_problem().matrix
        assert a.entry_rows.tolist() == [0, 1, 2, 2] and a.entry_rows is a.entry_rows
        with pytest.raises(ValueError, match="read-only"):
            a.entry_rows[0] = 1


def floors_problem(both=True):
    """min x + y s.t. x >= 1, y >= 2, x + y >= 5: optimum 5; without the
    row `both`, optimum 3."""
    build = lp.LpBuilder("floors")
    x = build.add_var("x")
    y = build.add_var("y")
    build.set_objective([(x, 1.0), (y, 1.0)])
    build.add_constraint("fx", [(x, 1.0)], lp.GE, 1.0)
    build.add_constraint("fy", [(y, 1.0)], lp.GE, 2.0)
    if both:
        build.add_constraint("both", [(x, 1.0), (y, 1.0)], lp.GE, 5.0)
    return build.problem()


class TestHandle:
    def test_added_rows_reach_the_full_answer(self):
        p, full = floors_problem(both=False), floors_problem()
        handle = lp.Handle(p)
        part = handle.run()
        assert part.status == lp.OPTIMAL and part.objective == pytest.approx(3.0)
        handle.add_rows(full.matrix[[2]], [5.0], [np.inf])  # the row `both`, from outside
        whole = handle.run()
        handle.certify(whole)
        assert whole.objective == pytest.approx(lp.solve(full).objective, rel=1e-12)
        assert handle.rows.tolist() == [0, 1] and handle.highs.getNumRow() == 3
        assert len(whole.duals) == 2  # an added row is not a row of the LP

    def test_added_rows_need_the_lp_columns(self):
        handle = lp.Handle(floors_problem())
        narrow = lp.Csr(np.array([0, 1]), np.array([0]), np.array([1.0]), (1, 1))
        with pytest.raises(DomainError, match="added rows over 1 columns"):
            handle.add_rows(narrow, [5.0], [np.inf])

    @pytest.mark.parametrize(
        "lower, upper",
        [([3.0], [np.inf]), ([3.0, 3.0], [np.inf]), (3.0, np.inf), ([[3.0, 3.0]], [[np.inf] * 2])],
    )
    def test_added_rows_need_one_lower_and_upper_bound_each(self, lower, upper):
        """A short bound array would have HiGHS read bounds past its end."""
        p = floors_problem()
        handle = lp.Handle(p)
        with pytest.raises(DomainError, match="floors: 2 added rows need 2 lower and upper"):
            handle.add_rows(p.matrix[[0, 2]], lower, upper)
        assert handle.highs.getNumRow() == 3

    def test_certify_refuses_a_point_that_is_not_a_number(self):
        handle = lp.Handle(simple_problem())
        sol = handle.run()
        with pytest.raises(LpSolverError, match="bound violated for x"):
            handle.certify(replace(sol, x=(float("nan"),)))

    def test_highs_holds_the_lp_as_stated(self):
        """HiGHS gets the problem's own sense, costs and matrix values, each
        row bounded on the side its sense sets, and the = rows last."""
        build = lp.LpBuilder("stated", lp.MAXIMIZE)
        x = build.add_cols(["x", "y", "z"])
        build.set_objective([(x[0], 2.0), (x[2], -3.0)])
        build.add_constraint("ge", [(x[0], 1.0), (x[1], -2.0)], lp.GE, 1.5)
        build.add_constraint("eq", [(x[1], 4.0), (x[2], 1.0)], lp.EQ, 6.0)
        build.add_constraint("le", [(x[0], 5.0), (x[2], -6.0)], lp.LE, 7.0)
        build.add_constraint("free", [(x[1], 8.0)], lp.LE, np.inf)
        handle = lp.Handle(build.problem())
        held = handle.highs.getLp()
        assert held.sense_ == lp._highspy.ObjSense.kMaximize
        assert list(held.col_cost_) == [2.0, 0.0, -3.0]
        assert handle.rows.tolist() == [0, 2, 3, 1]
        assert list(held.row_lower_) == [1.5, -np.inf, -np.inf, 6.0]
        assert list(held.row_upper_) == [np.inf, 7.0, np.inf, 6.0]
        a = held.a_matrix_  # row-wise until the first run, column-wise after
        fmt = lp._highspy.MatrixFormat
        kind = {fmt.kRowwise: sparse.csr_matrix, fmt.kColwise: sparse.csc_matrix}[a.format_]
        got = kind((a.value_, a.index_, a.start_), shape=(held.num_row_, held.num_col_))
        assert got.toarray().tolist() == [[1, -2, 0], [5, 0, -6], [0, 8, 0], [0, 4, 1]]

    def test_ipm_reaches_the_simplex_answer(self):
        p = mix_problem()
        simplex, ipm = lp.solve(p, lp.SIMPLEX), lp.solve(p, lp.IPM)
        assert ipm.status == simplex.status == lp.OPTIMAL
        assert ipm.objective == pytest.approx(simplex.objective, rel=1e-9)

    def test_unknown_method_is_refused(self):
        with pytest.raises(DomainError, match="LP method 'primal'"):
            lp.solve(mix_problem(), "primal")


def eq_first_problem():
    """max 2x + y s.t. x + y = 4 (stored first), x <= 3: optimum 7 at (3, 1).
    HiGHS holds the = row last, so LP row 1 is HiGHS's row 0."""
    build = lp.LpBuilder("eqfirst", lp.MAXIMIZE)
    x = build.add_cols(["x", "y"])
    build.set_objective([(x[0], 2.0), (x[1], 1.0)])
    build.add_constraint("total", [(x[0], 1.0), (x[1], 1.0)], lp.EQ, 4.0)
    build.add_constraint("cap", [(x[0], 1.0)], lp.LE, 3.0)
    return build.problem()


def dense_problem(seed=0):
    """A small dense packing LP that presolve does not solve on its own."""
    rng = np.random.default_rng(seed)
    build = lp.LpBuilder("dense", lp.MAXIMIZE)
    x = build.add_cols([f"x{j}" for j in range(8)])
    build.set_objective(zip(x, rng.uniform(1.0, 2.0, 8).tolist()))
    a = rng.uniform(0.0, 1.0, (6, 8))
    rhs = rng.uniform(1.0, 2.0, 6)
    build.add_rows([f"r{i}" for i in range(6)], [8] * 6, list(x) * 6, a.ravel(), lp.LE, rhs)
    return build.problem()


class TestHandleEdits:
    """`set_row_upper` edits a held row's upper bound, in HiGHS and for
    `certify`; `clear` drops the basis."""

    def test_the_edit_reaches_the_intended_row(self):
        handle = lp.Handle(eq_first_problem())
        assert handle.rows.tolist() == [1, 0]
        assert handle.run().objective == pytest.approx(7.0)
        handle.set_row_upper([1], [2.0])  # cap: x <= 2
        held = handle.highs.getLp()
        assert list(held.row_lower_) == [-np.inf, 4.0]
        assert list(held.row_upper_) == [2.0, 4.0]
        assert handle.row_upper.tolist() == [4.0, 2.0]  # in the LP's own order
        sol = handle.run()
        handle.certify(sol)
        assert sol.x == pytest.approx((2.0, 2.0)) and sol.objective == pytest.approx(6.0)

    def test_certify_holds_the_edited_bound(self):
        handle = lp.Handle(eq_first_problem())
        sol = handle.run()
        handle.certify(sol)
        handle.set_row_upper([1], [2.0])
        with pytest.raises(LpSolverError, match="row cap violated by 1.000e"):
            handle.certify(sol)  # x = 3 held only under the old bound

    def test_an_edit_to_no_bound_and_back(self):
        handle = lp.Handle(eq_first_problem())
        handle.set_row_upper([1], [np.inf])
        assert handle.run().objective == pytest.approx(8.0)
        handle.set_row_upper(np.array([1]), np.array([3.0]))
        assert handle.run().objective == pytest.approx(7.0)

    @pytest.mark.parametrize(
        "rows, upper, why",
        [
            ([[1]], [[2.0]], "1 rows to bound need one upper bound each"),
            ([1], [2.0, 3.0], "1 rows to bound need one upper bound each"),
            ([0, 1], [2.0], "2 rows to bound need one upper bound each"),
            ([1], 2.0, "1 rows to bound need one upper bound each"),
            ([2], [2.0], "rows to bound must be distinct indices in 0..1"),
            ([-1], [2.0], "rows to bound must be distinct indices in 0..1"),
            ([1, 1], [2.0, 3.0], "rows to bound must be distinct indices in 0..1"),
            ([1.0], [2.0], "rows to bound must be distinct indices in 0..1"),
            ([1], [np.nan], "row cap upper bound nan"),
            ([1], [-np.inf], "row cap upper bound -inf"),
            ([0], [3.0], "row total upper bound 3.0"),  # below its lower bound 4
        ],
    )
    def test_bad_edits_are_refused_and_change_nothing(self, rows, upper, why):
        handle = lp.Handle(eq_first_problem())
        with pytest.raises(DomainError, match=f"eqfirst: {why}"):
            handle.set_row_upper(rows, upper)
        held = handle.highs.getLp()
        assert list(held.row_upper_) == [3.0, 4.0] and handle.row_upper.tolist() == [4.0, 3.0]

    def test_clear_drops_the_basis(self):
        p = dense_problem()
        handle = lp.Handle(p)
        first = handle.run()
        assert first.iterations > 0 and handle.run().iterations == 0  # warm
        handle.clear()
        assert not handle.highs.getBasis().valid
        again = handle.run()
        assert again == first == lp.Handle(p).run()

    def test_edited_and_cleared_is_a_new_handle_of_the_edited_lp(self):
        """An edit then `clear` answers as a new handle of the LP stated
        with the new bounds does, bit for bit."""
        p, q = dense_problem(), dense_problem()
        handle = lp.Handle(p)
        handle.run()
        upper = np.linspace(0.5, 3.0, 6)
        handle.set_row_upper(range(6), upper)
        handle.clear()
        stated = replace(q, rhs=upper)
        assert handle.run() == lp.Handle(stated).run()


def test_solver_breakdown_raises(monkeypatch):
    def broken(handle):
        return lp._Answer("Solve error", None, None, None, 0)

    monkeypatch.setattr(lp, "_run", broken)
    with pytest.raises(LpSolverError, match="simple: solver failure"):
        lp.solve(simple_problem())


class TestDuals:
    """Per-row duals in constraint order; values recorded before the solve
    path was rebuilt on one constraint matrix."""

    def test_mixed_senses_on_maximization(self):
        sol = lp.solve(mix_problem())
        assert sol == lp.LpSolution(lp.OPTIMAL, 6.5, (4.0, 1.0, -1.0), (-0.0, 0.0, -0.5), 0)

    def test_equality_rows_only(self):
        build = lp.LpBuilder("eqonly")
        x = build.add_var("x")
        y = build.add_var("y")
        build.set_objective([(x, 1.0), (y, 3.0)])
        build.add_constraint("s", [(x, 1.0), (y, 1.0)], lp.EQ, 4.0)
        build.add_constraint("t", [(x, 1.0), (y, -1.0)], lp.EQ, 1.0)
        sol = lp.solve(build.problem())
        assert sol == lp.LpSolution(lp.OPTIMAL, 7.0, (2.5, 1.5), (2.0, -1.0), 0)

    def test_no_rows(self):
        build = lp.LpBuilder("box")
        x = build.add_var("x", lower=2.0, upper=5.0)
        y = build.add_var("y", upper=3.0)
        build.set_objective([(x, 1.0), (y, -2.0)])
        sol = lp.solve(build.problem())
        assert sol == lp.LpSolution(lp.OPTIMAL, -4.0, (2.0, 3.0), (), 0)

    def test_geq_rows_only(self):
        """The duals of >= rows come back signed for the rows as written."""
        build = lp.LpBuilder("geq")
        x = build.add_cols(["x0", "x1"])
        build.set_objective([(x[0], 1.0), (x[1], 2.0)])
        build.add_rows(["both", "floor"], [2, 1], [0, 1, 0], [1.0, 1.0, 1.0], lp.GE, [3.0, 1.0])
        sol = lp.solve(build.problem())
        assert sol == lp.LpSolution(lp.OPTIMAL, 3.0, (3.0, 0.0), (1.0, 0.0), 0)


def _optimal_at(x):
    """A HiGHS run stand-in reporting Optimal at the given point."""

    def fake(handle):
        x_arr = np.asarray(x, dtype=float)
        fun = sum(v * x_arr[j] for j, v in handle.problem.objective)
        return lp._Answer(lp.OPTIMAL, x_arr, fun, np.zeros(len(handle.rows)), 0)

    return fake


class TestContractCheck:
    """A status-0 answer that breaks the problem is refused."""

    def test_broken_row(self, monkeypatch):
        monkeypatch.setattr(lp, "_run", _optimal_at([4.0]))
        with pytest.raises(LpSolverError, match="simple: row floor violated"):
            lp.solve(simple_problem())

    def test_broken_bound(self, monkeypatch):
        build = lp.LpBuilder("capped")
        x = build.add_var("x", upper=10.0)
        build.set_objective([(x, 1.0)])
        build.add_constraint("floor", [(x, 1.0)], lp.GE, 5.0)
        monkeypatch.setattr(lp, "_run", _optimal_at([11.0]))
        with pytest.raises(LpSolverError, match="capped: bound violated for x"):
            lp.solve(build.problem())


SRC = str(Path(lp.__file__).resolve().parents[1])
DATA = Path(__file__).resolve().parent / "data"


def run_fresh(code: str, env: dict[str, str | None] | None = None) -> str:
    """Run `code` in a new interpreter that imports clustercap from this source
    tree, in this process's environment updated by `env` (None unsets a
    variable); this process may already hold `scipy.optimize`."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={k: v for k, v in env.items() if v is not None},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBindingLoad:
    """`lp` loads HiGHS's binding from its file, without `scipy.optimize`."""

    def test_the_whole_package_runs_without_scipy_optimize(self):
        out = run_fresh(
            f"""
            import sys
            import numpy as np
            import clustercap
            from clustercap import build_parallel_graph, flows, models

            sys.path.insert(0, {str(DATA.parent)!r})
            from lp_oracles import read_lp_text

            inst = clustercap.read_instance({str(DATA / "example1.json")!r})
            matrix = clustercap.read_matrix_csv({str(DATA / "cuts_n3_reference.csv")!r}, True)
            g = build_parallel_graph(3)
            for kind in models.MODEL_KINDS:
                print(kind, models.solve_capacity(inst, kind, matrix=matrix).rho)
            x = np.linspace(1.0, 2.0, len(g.recipes))
            flow = flows.solve_maxflow(x, g).value
            paired = flows.solve_parallelization_lp(x, g)[1]
            span = flows.makespan_via_cuts(x, matrix)
            assert abs(paired - flow) < 1e-6 and abs(x.sum() - flow - span) < 1e-6
            problem = models.build_model(inst, "generalized", matrix).problem
            text = clustercap.lp.export_lp_text(problem)
            back = read_lp_text(text).problem(problem.name)
            assert clustercap.lp.export_lp_text(back) == text
            assert "scipy.sparse" not in sys.modules, "loaded by clustercap"
            assert "scipy.optimize" not in sys.modules, "loaded by clustercap"
            assert sys.modules["scipy.optimize._highspy._core"] is clustercap.lp._highspy

            import scipy.optimize
            from scipy.optimize._highspy import _core
            assert _core is sys.modules["scipy.optimize._highspy._core"]
            assert _core is clustercap.lp._highspy
            res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0],
                                         method="highs")
            assert res.status == 0 and abs(res.fun - 3.0) < 1e-9, res
            print("ok")
            """
        )
        assert out.splitlines()[-1] == "ok"
        rho = dict(line.split() for line in out.splitlines()[:-1])
        assert set(rho) == {"basic", "serial", "generalized", "alternative"}
        assert float(rho["generalized"]) == pytest.approx(330.0, abs=1e-6)
        assert float(rho["alternative"]) == pytest.approx(330.0, abs=1e-6)

    def test_a_loaded_scipy_optimize_lends_its_binding(self):
        run_fresh(
            """
            import scipy.optimize
            from scipy.optimize._highspy import _core
            from clustercap import lp
            assert lp._highspy is _core
            """
        )

    def test_the_plain_import_stands_in_when_the_file_is_elsewhere(self, tmp_path):
        # scipy's own directory stays second on its path, so only the
        # lookup by file misses
        run_fresh(
            f"""
            import sys
            import scipy
            scipy.__path__.insert(0, {str(tmp_path)!r})
            from clustercap import lp
            build = lp.LpBuilder("fallback")
            x = build.add_var("x")
            build.set_objective([(x, 1.0)])
            build.add_constraint("floor", [(x, 1.0)], lp.GE, 5.0)
            assert lp.solve(build.problem()).objective == 5.0
            assert "scipy.optimize" in sys.modules
            assert lp._highspy is sys.modules["scipy.optimize._highspy._core"]
            """
        )

    def test_a_process_that_solves_nothing_loads_no_scipy(self, tmp_path):
        """Cut matrices, instances, models and LP text, through the package
        and the CLI, make no handle, so neither scipy nor the binding loads."""
        out = run_fresh(
            f"""
            import sys
            from clustercap import build_cut_matrix, instances, lp, models, reduced_matrix
            from clustercap.cli import cli

            for n in range(1, 6):
                build_cut_matrix(n)
            assert len(build_cut_matrix(5, reduce=False).rows) == 2645
            matrix = reduced_matrix(5)
            path = {str(tmp_path / "inst.json")!r}
            instances.write_instance(instances.generate(instances.GenParams(0, "1:1", 0, 2, 5, 7)), path)
            inst = instances.read_instance(path)
            for kind in models.MODEL_KINDS:
                lp.export_lp_text(models.build_model(inst, kind, matrix).problem)
            for words in (
                ["cuts", "--chambers", "5", "--out", {str(tmp_path / "n5.csv")!r}],
                ["gen", "--sizecat", "0", "--shape", "1:1", "--locked", "0", "--density", "2",
                 "--chambers", "5", "--seed", "7", "--out", {str(tmp_path / "gen.json")!r}],
                ["export-lp", "--model", "generalized", path, "--out", {str(tmp_path / "m.lp")!r}],
            ):
                assert cli(words) == 0
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded
            print("ok")
            """
        )
        assert out.split() == ["ok"]

    def test_the_first_solve_loads_the_binding_once(self):
        out = run_fresh(
            """
            import importlib.util, sys
            from clustercap import lp

            specs = []
            real = importlib.util.spec_from_file_location
            importlib.util.spec_from_file_location = lambda *a, **k: specs.append(a[0]) or real(*a, **k)
            build = lp.LpBuilder("floor")
            x = build.add_var("x")
            build.set_objective([(x, 1.0)])
            build.add_constraint("floor", [(x, 1.0)], lp.GE, 5.0)
            assert "scipy" not in sys.modules
            for _ in range(3):
                assert lp.solve(build.problem()).objective == 5.0
            assert lp._highspy is sys.modules["scipy.optimize._highspy._core"]
            assert "scipy.optimize" not in sys.modules
            print(specs, lp._first_handle.cache_info().misses)
            """
        )
        assert out.split() == ["['scipy.optimize._highspy._core']", "1"]

    def test_four_threads_make_their_first_handles_at_once(self):
        """The first handles of four threads all wait in the first-handle
        step (held open here for 0.2 s, with a short switch interval), and
        the binding is loaded once."""
        out = run_fresh(
            """
            import importlib.util, sys, threading, time
            from clustercap import lp

            sys.setswitchinterval(1e-6)  # this interpreter ends with the test

            specs = []
            real = importlib.util.spec_from_file_location
            importlib.util.spec_from_file_location = lambda *a, **k: specs.append(a[0]) or real(*a, **k)
            hold = lp._hold_mmap_threshold
            lp._hold_mmap_threshold = lambda: time.sleep(0.2) or hold()
            gate = threading.Barrier(4)

            def first_solve(k):
                build = lp.LpBuilder(f"floor{k}")
                x = build.add_var("x")
                build.set_objective([(x, 1.0)])
                build.add_constraint("floor", [(x, 1.0)], lp.GE, float(k))
                gate.wait()
                answers[k] = lp.solve(build.problem()).objective

            answers = {}
            threads = [threading.Thread(target=first_solve, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            print(sorted(answers.items()), len(specs))
            """
        )
        assert out.split("\n")[0] == "[(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)] 1"


def _glibc_with_mallinfo2() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(ctypes.CDLL(None), "mallinfo2")
    except (AttributeError, OSError, ValueError):
        return False


# Defines, in a fresh interpreter, `make_handle()` and `mmaps_after_a_large_free()`:
# whether new 256 KiB blocks are mmapped after an 8 MiB block was, and was
# freed.  glibc's dynamic threshold rises to 8 MiB at that free, so they come
# from the heap; a threshold held at 128 KiB keeps mmapping them.
_MMAP_PROBE = """
    import ctypes
    import numpy as np
    from clustercap import lp

    class Mallinfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

    mallinfo2 = ctypes.CDLL(None).mallinfo2
    mallinfo2.restype = Mallinfo2

    def make_handle():
        build = lp.LpBuilder("floor")
        x = build.add_var("x")
        build.set_objective([(x, 1.0)])
        build.add_constraint("floor", [(x, 1.0)], lp.GE, 5.0)
        assert lp.Handle(build.problem()).run().objective == 5.0

    def mmaps_after_a_large_free():
        big = np.ones(1 << 20)
        del big
        before = mallinfo2().hblkhd
        blocks = [np.ones(1 << 15) for _ in range(8)]
        return mallinfo2().hblkhd > before
"""


def run_probe(code: str, **env: str) -> str:
    """`run_fresh` of `_MMAP_PROBE`, then `code`, with no MALLOC_* variable of
    glibc's set but those in `env`."""
    code = textwrap.dedent(_MMAP_PROBE) + textwrap.dedent(code)
    return run_fresh(code, {**dict.fromkeys(lp._MALLOC_ENV), **env})


@pytest.mark.skipif(not _glibc_with_mallinfo2(), reason="glibc with mallinfo2 only")
class TestMmapThreshold:
    """The first `Handle` of a process holds glibc's mmap threshold at
    128 KiB; each test runs in a fresh interpreter, for the setting is
    process-wide."""

    def test_a_handle_holds_the_threshold(self):
        assert run_probe("print(mmaps_after_a_large_free())").split() == ["False"]
        assert run_probe("make_handle(); print(mmaps_after_a_large_free())").split() == ["True"]

    def test_the_users_threshold_stands(self):
        out = run_probe(
            "make_handle(); print(mmaps_after_a_large_free())", MALLOC_MMAP_THRESHOLD_="1048576"
        )
        assert out.split() == ["False"]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("MALLOC_MMAP_THRESHOLD_", "1048576"),
            ("MALLOC_TRIM_THRESHOLD_", "262144"),
            ("MALLOC_TOP_PAD_", "131072"),
            ("MALLOC_MMAP_MAX_", "65536"),
        ],
    )
    def test_no_mallopt_call_under_the_users_setting(self, name, value):
        code = """
            looked_up = []
            real_cdll = ctypes.CDLL
            ctypes.CDLL = lambda *args, **kwargs: looked_up.append(args) or real_cdll(*args, **kwargs)
            make_handle()
            print(looked_up)
            """
        assert run_probe(code, **{name: value}).split() == ["[]"]

    @pytest.mark.parametrize(
        "lookup",
        [
            "def fail(*args, **kwargs): raise OSError('no libc')\nctypes.CDLL = fail",
            "ctypes.CDLL = lambda *args, **kwargs: object()",
            "def fail(*args): raise ValueError('unrecognized configuration name')\n"
            "import os\nos.confstr = fail",
        ],
        ids=["no-libc", "no-mallopt", "not-glibc"],
    )
    def test_a_failing_libc_lookup_changes_nothing(self, lookup):
        out = run_probe(lookup + "\nmake_handle(); print(mmaps_after_a_large_free())")
        assert out.split() == ["False"]

    def test_a_process_without_a_handle_keeps_the_default(self, tmp_path):
        out = run_probe(
            f"""
            import os
            from clustercap import build_cut_matrix
            from clustercap.cli import cli
            assert cli(["cuts", "--chambers", "5", "--out", {str(tmp_path / "n5.csv")!r}]) == 0
            for n in range(1, 6):
                build_cut_matrix(n, cache_dir={str(tmp_path)!r})
            assert lp._first_handle.cache_info().misses == 0
            print(mmaps_after_a_large_free())
            """
        )
        assert out.split() == ["False"]
