import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercap import (
    build_parallel_graph,
    flows,
    lp,
    makespan_via_cuts,
    solve_maxflow,
    solve_parallelization_lp,
)
from clustercap.errors import DomainError, LpSolverError
from clustercap.flows import FLOW_TOL, ParallelizationPlan, check_plan_feasible
from clustercap.recipes import ParallelGraph
from flow_oracles import builder_pairing_lp, check_flow_feasible, dense_maxflow, flow_to_xi


@pytest.fixture(scope="module")
def g3():
    return build_parallel_graph(3)


def x_vec(g, **times):
    x = np.zeros(len(g.recipes))
    for label, t in times.items():
        x[g.index_of(label)] = t
    return x


def allocations(n):
    g = build_parallel_graph(n)
    return st.lists(
        st.floats(min_value=0.0, max_value=20.0),
        min_size=len(g.recipes),
        max_size=len(g.recipes),
    ).map(np.array)


class TestParallelizationLp:
    def test_two_singles_pair_fully(self, g3):
        plan, objective = solve_parallelization_lp(x_vec(g3, A=1, B=1), g3)
        assert objective == pytest.approx(1.0, abs=1e-9)

    def test_single_incident_edge_capped_by_smaller_side(self, g3):
        plan, objective = solve_parallelization_lp(x_vec(g3, AB=2, C=3), g3)
        assert objective == pytest.approx(2.0, abs=1e-9)
        k = next(
            i
            for i, (a, b) in enumerate(g3.edges)
            if {g3.labels[a], g3.labels[b]} == {"AB", "C"}
        )
        assert plan.edge_time[k] == pytest.approx(2.0, abs=1e-8)

    def test_zero_allocation(self, g3):
        plan, objective = solve_parallelization_lp(np.zeros(7), g3)
        assert objective == 0.0
        assert plan.total() == 0.0

    def test_unbalanced_singles(self, g3):
        _, objective = solve_parallelization_lp(x_vec(g3, A=3, B=1, C=1), g3)
        assert objective == pytest.approx(2.0, abs=1e-9)

    def test_rejects_negative_times(self, g3):
        with pytest.raises(DomainError, match="nonnegative"):
            solve_parallelization_lp(np.full(7, -1.0), g3)

    def test_rejects_wrong_length(self, g3):
        with pytest.raises(DomainError, match="length"):
            solve_parallelization_lp(np.zeros(5), g3)


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_as_the_builder_reference(self, n):
        """The dense incidence rows hand HiGHS what the named builder LP
        does: plan and objective equal, bit for bit."""
        g = build_parallel_graph(n)
        m = len(g.recipes)
        rng = np.random.default_rng(800 + n)
        for _ in range(40):
            x = rng.uniform(0.0, 10.0, m) * (rng.random(m) < 0.7)
            assert solve_parallelization_lp(x, g) == builder_pairing_lp(x, g)


class TestMaxflow:
    def test_pair_recipe_against_single(self, g3):
        f = solve_maxflow(x_vec(g3, AB=2, C=2), g3)
        assert f.value == pytest.approx(2.0, abs=1e-9)
        check_flow_feasible(f, x_vec(g3, AB=2, C=2), g3)

    def test_zero_flow(self, g3):
        f = solve_maxflow(np.zeros(7), g3)
        assert f.value == 0.0

    def test_flow_equals_cut(self, g3):
        f = solve_maxflow(x_vec(g3, A=3, B=1, C=1), g3)
        assert f.value == pytest.approx(2.0, abs=1e-9)
        assert f.min_cut_value == pytest.approx(f.value, abs=1e-7)

    def test_single_chamber_graph(self):
        g1 = build_parallel_graph(1)
        f = solve_maxflow(np.array([5.0]), g1)
        assert f.value == 0.0


def assert_same_as_dense(x, g):
    fast, slow = solve_maxflow(x, g), dense_maxflow(x, g)
    for field in ("value", "min_cut_value", "source_arc", "sink_arc", "cross_arc"):
        assert getattr(fast, field) == getattr(slow, field), field


class TestDenseReference:
    """The adjacency-list max flow against the dense-matrix one in
    `flow_oracles`: every field of the answer equal, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_seeded_draws(self, n):
        g = build_parallel_graph(n)
        m = len(g.recipes)
        rng = np.random.default_rng(500 + n)
        for _ in range(60):
            x = rng.uniform(0.0, 10.0, m) * (rng.random(m) < 0.7)
            assert_same_as_dense(x, g)

    @given(allocations(3))
    @settings(max_examples=60)
    def test_hypothesis_draws(self, x):
        assert_same_as_dense(x, build_parallel_graph(3))

    @pytest.mark.parametrize("n", [4, 5])
    def test_edges_listed_in_another_order(self, n):
        """The search order follows the node numbering, not the edge list."""
        g = build_parallel_graph(n)
        rng = np.random.default_rng(700 + n)
        edges = tuple(g.edges[k] for k in rng.permutation(len(g.edges)))
        shuffled = ParallelGraph(n=n, recipes=g.recipes, edges=edges)
        m = len(g.recipes)
        for _ in range(20):
            x = rng.uniform(0.0, 10.0, m) * (rng.random(m) < 0.7)
            assert_same_as_dense(x, shuffled)

    def test_zero_allocation(self, g3):
        assert_same_as_dense(np.zeros(7), g3)

    def test_single_chamber_graph(self):
        assert_same_as_dense(np.array([5.0]), build_parallel_graph(1))

    def test_rim_capacity_at_the_tolerance_carries_nothing(self):
        """x_r/2 equal to FLOW_TOL leaves no residual capacity to search."""
        g = build_parallel_graph(3)
        x = np.full(7, 2 * FLOW_TOL)
        assert solve_maxflow(x, g).value == 0.0
        x[:3] = [4.0, 2 * FLOW_TOL, 3.0]
        assert_same_as_dense(x, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracles_reject_non_finite_times(g3, matrices, bad):
    x = x_vec(g3, A=1, B=2, C=3)
    x[g3.index_of("AB")] = bad
    for oracle in (
        lambda: solve_maxflow(x, g3),
        lambda: solve_parallelization_lp(x, g3),
        lambda: makespan_via_cuts(x, matrices[3]),
    ):
        with pytest.raises(DomainError, match="finite"):
            oracle()


def test_oracles_reject_an_allocation_whose_sum_overflows(g3, matrices):
    """Every time is finite but their sum is not.  The max flow used to give
    value=inf and NaN cross arcs, and the cut rows inf, without a word."""
    x = np.full(7, 1e308)
    for oracle in (
        lambda: solve_maxflow(x, g3),
        lambda: solve_parallelization_lp(x, g3),
        lambda: makespan_via_cuts(x, matrices[3]),
    ):
        with pytest.raises(DomainError, match="finite"):
            oracle()


def draws(g, rng, count):
    m = len(g.recipes)
    return [rng.uniform(0.0, 10.0, m) * (rng.random(m) < 0.7) for _ in range(count)]


class TestHeldPerGraph:
    """The pairing LP's HiGHS model (one per thread) and the max flow's arcs
    are kept for the last graph; every answer equals a fresh build's."""

    def test_interleaved_graphs_match_fresh_builds(self):
        g3, g4, g5 = (build_parallel_graph(n) for n in (3, 4, 5))
        rng = np.random.default_rng(705)  # the n = 5 order of test_edges_listed_in_another_order
        edges = tuple(g5.edges[k] for k in rng.permutation(len(g5.edges)))
        shuffled = ParallelGraph(n=5, recipes=g5.recipes, edges=edges)
        rng = np.random.default_rng(900)
        for g in [g3, g4, g5, shuffled, g5, g3, shuffled, g4] * 6:
            (x,) = draws(g, rng, 1)
            assert solve_parallelization_lp(x, g) == builder_pairing_lp(x, g)
            assert_same_as_dense(x, g)

    def test_two_threads_on_one_graph(self):
        g = build_parallel_graph(5)
        xs = draws(g, np.random.default_rng(901), 40)

        def both(x):
            return solve_parallelization_lp(x, g), solve_maxflow(x, g)

        alone = [both(x) for x in xs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(both, xs, timeout=60)) == alone
            theirs = pool.submit(flows._pairing_lp, g).result(timeout=60)[0]
        assert theirs is not flows._pairing_lp(g)[0]  # each thread holds its own model

    def test_more_threads_than_cores_across_two_graphs(self):
        """Four threads switching often, each call on one of two graphs: a
        model or network held for one graph never answers for the other."""
        g4, g5 = build_parallel_graph(4), build_parallel_graph(5)
        rng = np.random.default_rng(903)
        work = [(g, x) for _ in range(12) for g in (g4, g5) for x in draws(g, rng, 1)]

        def both(task):
            g, x = task
            return solve_parallelization_lp(x, g), solve_maxflow(x, g)

        alone = [both(task) for task in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(both, work, timeout=120)) == alone
        finally:
            sys.setswitchinterval(interval)

    def test_a_call_that_raises_leaves_the_next_one_right(self, monkeypatch):
        """A call refused before any edit, and one that fails after HiGHS
        ran under its bounds, leave nothing that changes the next answer."""
        g = build_parallel_graph(4)
        x, y = draws(g, np.random.default_rng(902), 2)
        solve_parallelization_lp(y, g)
        bad = x.copy()
        bad[3] = np.nan
        with pytest.raises(DomainError, match="finite"):
            solve_parallelization_lp(bad, g)
        with pytest.raises(DomainError, match="finite"):
            solve_maxflow(bad, g)
        run = lp._run

        def broken(handle):  # HiGHS runs under the bounds of 2y, then the answer is lost
            run(handle)
            return lp._Answer("Solve error", None, None, None, 0)

        monkeypatch.setattr(lp, "_run", broken)
        with pytest.raises(LpSolverError, match="solver failure"):
            solve_parallelization_lp(y * 2.0, g)
        monkeypatch.undo()
        assert solve_parallelization_lp(x, g) == builder_pairing_lp(x, g)
        assert_same_as_dense(x, g)


def test_plan_load_adds_edge_times_in_edge_order(g3):
    """A recipe's load is 0.0 plus its edges' times, in edge order."""
    edge_time = [0.0] * len(g3.edges)
    for k, t in zip(g3.incident[g3.index_of("A")], (0.1, 0.2, 0.3)):
        edge_time[k] = t
    x = np.full(7, 10.0)
    x[g3.index_of("A")] = 0.5
    plan = ParallelizationPlan(edge_time=tuple(edge_time))
    # 0.1 + 0.2 + 0.3 in this order is 0.6000000000000001; in reverse, 0.6
    with pytest.raises(DomainError, match=re.escape("recipe A: 0.6000000000000001 > 0.5")):
        check_plan_feasible(plan, x, g3)


@pytest.mark.parametrize("where", ["all", "one"])
def test_plan_with_nan_times_is_refused(where, g3):
    """A NaN pairing time compares false both ways, so each check must be
    written so that it fails on NaN."""
    edge_time = [np.nan] * 6 if where == "all" else [0.0] * 5 + [np.nan]
    with pytest.raises(DomainError, match="negative or NaN"):
        check_plan_feasible(ParallelizationPlan(tuple(edge_time)), np.ones(7), g3)


class TestFlowToPlan:
    def test_pair_and_single_fold_together(self, g3):
        x = x_vec(g3, AB=2, C=2)
        f = solve_maxflow(x, g3)
        plan = flow_to_xi(f, x, g3)
        k = next(
            i
            for i, (a, b) in enumerate(g3.edges)
            if {g3.labels[a], g3.labels[b]} == {"AB", "C"}
        )
        assert plan.edge_time[k] == pytest.approx(2.0, abs=1e-8)
        assert plan.total() == pytest.approx(f.value, abs=1e-8)

    def test_zero_flow_gives_zero_plan(self, g3):
        f = solve_maxflow(np.zeros(7), g3)
        plan = flow_to_xi(f, np.zeros(7), g3)
        assert plan.total() == 0.0

    def test_infeasible_flow_rejected(self, g3):
        x = x_vec(g3, AB=2, C=2)
        f = solve_maxflow(x, g3)
        smaller = x_vec(g3, AB=1, C=1)
        with pytest.raises(DomainError):
            flow_to_xi(f, smaller, g3)

    @given(allocations(3))
    @settings(max_examples=60)
    def test_fuzzed_flows_fold_to_feasible_plans(self, x):
        g = build_parallel_graph(3)
        f = solve_maxflow(x, g)
        check_flow_feasible(f, x, g)
        plan = flow_to_xi(f, x, g)
        check_plan_feasible(plan, x, g)
        assert plan.total() == pytest.approx(f.value, abs=1e-7)


class TestMakespanViaCuts:
    def test_chamber_row_binds(self, g3, matrices):
        assert makespan_via_cuts(x_vec(g3, A=3, B=1, C=1), matrices[3]) == pytest.approx(3.0)

    def test_single_chamber_c_binds_over_parallel_row(self, g3, matrices):
        assert makespan_via_cuts(x_vec(g3, AB=2, C=3), matrices[3]) == pytest.approx(3.0)

    def test_full_recipe_cannot_parallelize(self, g3, matrices):
        x = x_vec(g3, ABC=7)
        assert makespan_via_cuts(x, matrices[3]) == pytest.approx(7.0)

    def test_dimension_mismatch(self, matrices):
        with pytest.raises(DomainError, match="length"):
            makespan_via_cuts(np.zeros(3), matrices[3])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triple_equality_fuzz(n, matrices):
    g = build_parallel_graph(n)
    rng = np.random.default_rng(n)
    for _ in range(150):
        x = rng.uniform(0, 10, len(g.recipes)) * (rng.random(len(g.recipes)) < 0.7)
        f = solve_maxflow(x, g)
        _, objective = solve_parallelization_lp(x, g)
        span = makespan_via_cuts(x, matrices[n])
        assert objective == pytest.approx(f.value, abs=1e-6)
        assert span == pytest.approx(x.sum() - f.value, abs=1e-6)
        assert f.min_cut_value == pytest.approx(f.value, abs=1e-7)


@pytest.mark.parametrize("n", [2, 3])
def test_raw_and_reduced_matrices_agree(n, matrices):
    from clustercap import cuts_to_matrix, double_graph, enumerate_minimal_cuts

    g = build_parallel_graph(n)
    raw = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g)))
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(0, 10, len(g.recipes))
        assert makespan_via_cuts(x, raw) == pytest.approx(
            makespan_via_cuts(x, matrices[n]), abs=1e-9
        )


@given(
    x=allocations(3),
    idx=st.integers(min_value=0, max_value=6),
    bump=st.floats(min_value=0.1, max_value=5),
)
@settings(max_examples=60)
def test_makespan_monotonic_in_each_component(matrices, x, idx, bump):
    before = makespan_via_cuts(x, matrices[3])
    x2 = x.copy()
    x2[idx] += bump
    assert makespan_via_cuts(x2, matrices[3]) >= before - 1e-9
