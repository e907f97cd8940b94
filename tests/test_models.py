import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercap import (
    GenParams,
    build_alternative,
    build_basic,
    build_generalized,
    build_serial,
    derive_recipe_rate,
    export_lp_text,
    generate,
    lp,
    makespan_via_cuts,
    models,
    predict_sizes,
    size_stats,
    solve_capacity,
)
from clustercap.errors import (
    DomainError,
    LpSolverError,
    NotQualifiedError,
    StructurallyInfeasibleError,
)

from conftest import example1_instance, random_instance


def one_tool_instance(chambers, jobs, quals, overrides=(), name="inst"):
    return models.Instance(
        name=name,
        chambers=chambers,
        tools=("t0",),
        jobs=tuple(models.Job(j, d) for j, d in jobs),
        qualifications=tuple(
            models.Qualification(j, "t0", tuple(rates)) for j, rates in quals
        ),
        rate_overrides=tuple(overrides),
    )


def two_chamber_override(*overrides):
    """Demand 10 on two chambers of rate 1, with the given rate overrides."""
    return one_tool_instance(
        2, [("j0", 10.0)], [("j0", [(0, 1.0), (1, 1.0)])], overrides=overrides
    )


def overrides_instance():
    """Two tools, four chambers, rate overrides (one on a full qualified
    set, so `basic` reads it too) and a job with zero demand."""
    return models.Instance(
        name="overrides4",
        chambers=4,
        tools=("t0", "t1"),
        jobs=(models.Job("j0", 30.0), models.Job("j1", 0.0), models.Job("j2", 45.0)),
        qualifications=(
            models.Qualification("j0", "t0", ((0, 0.2), (1, 0.3), (2, 0.25), (3, 0.4))),
            models.Qualification("j0", "t1", ((1, 0.5), (3, 0.15))),
            models.Qualification("j1", "t0", ((0, 0.6), (2, 0.35))),
            models.Qualification("j2", "t0", ((2, 0.45),)),
            models.Qualification("j2", "t1", ((0, 0.3), (1, 0.2), (2, 0.7))),
        ),
        rate_overrides=(
            models.RateOverride("j0", "t0", "ABCD", 0.9),
            models.RateOverride("j0", "t1", "BD", 0.55),
            models.RateOverride("j1", "t0", "AC", 1.1),
            models.RateOverride("j2", "t1", "A", 0.35),
        ),
    )


PINNED_INSTANCES = {
    "example1": example1_instance,
    "gen_n3": lambda: generate(GenParams(0, "1:4", 3, 2, 3, 5)),
    "gen_n4": lambda: generate(GenParams(0, "1:1", 3, 2, 4, 6)),
    "overrides_n4": overrides_instance,
}

# sha256 prefix of export_lp_text, then rows, columns, nonzeros; recorded
# before the builders were rebuilt around shared cores, which must keep
# every name, column and row in place
PINNED_LP = {
    ("basic", "example1"): ("3462fa7934a203a2", 3, 3, 5),
    ("serial", "example1"): ("fa66fd65f530018e", 6, 3, 14),
    ("generalized", "example1"): ("f1a1a069b047a591", 14, 22, 63),
    ("alternative", "example1"): ("c02d385e4794e435", 17, 28, 68),
    ("basic", "gen_n3"): ("9845482c8c6f7f96", 25, 59, 121),
    ("serial", "gen_n3"): ("c897d2fa11ca946a", 40, 59, 256),
    ("generalized", "gen_n3"): ("2e75aa1f82bc0ce6", 80, 254, 611),
    ("alternative", "gen_n3"): ("4618099d5d75911d", 95, 284, 636),
    ("basic", "gen_n4"): ("71f83dc1de63b82a", 20, 59, 126),
    ("serial", "gen_n4"): ("2990aa9de782466b", 60, 59, 330),
    ("generalized", "gen_n4"): ("c695a8305b593874", 390, 573, 3674),
    ("alternative", "gen_n4"): ("05c86b046a6dcb31", 320, 823, 2054),
    ("basic", "overrides_n4"): ("7da673ec9b7d6280", 5, 6, 12),
    ("serial", "overrides_n4"): ("0130649ac25e90ef", 13, 6, 32),
    ("generalized", "overrides_n4"): ("b78879f080c41875", 79, 60, 624),
    ("alternative", "overrides_n4"): ("43907dd42a794260", 65, 110, 300),
}


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_lp_text_is_pinned(kind, case, matrices):
    inst = PINNED_INSTANCES[case]()
    built = models.build_model(inst, kind, matrix=matrices[inst.chambers])
    digest = hashlib.sha256(export_lp_text(built.problem).encode()).hexdigest()[:16]
    stats = built.stats
    assert (digest, stats.rows, stats.columns, stats.nonzeros) == PINNED_LP[(kind, case)]


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_highs_reads_the_exported_lp(kind, case, matrices, tmp_path):
    """HiGHS's own LP file reader, not `parse_lp_text`, reads the export."""
    inst = PINNED_INSTANCES[case]()
    built = models.build_model(inst, kind, matrix=matrices[inst.chambers])
    path = tmp_path / "model.lp"
    path.write_text(export_lp_text(built.problem))
    highs = lp._highspy._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == lp._highspy.HighsStatus.kOk
    stats = built.stats
    assert (highs.getNumCol(), highs.getNumRow(), highs.getNumNz()) == (
        stats.columns, stats.rows, stats.nonzeros
    )
    highs.run()
    assert highs.getModelStatus() == lp._highspy.HighsModelStatus.kOptimal
    want = lp.solve(built.problem).objective
    assert highs.getInfo().objective_function_value == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_largest_utilization_is_rho(kind, case, matrices):
    inst = PINNED_INSTANCES[case]()
    res = solve_capacity(inst, kind, matrix=matrices[inst.chambers])
    assert res.status == lp.OPTIMAL
    assert max(u.value for u in res.utilization) == pytest.approx(res.rho, abs=1e-7)


def reference_rates(inst, kind):
    """Every time column's rate, worked out letter by letter from the instance."""
    pinned = {(ov.job, ov.tool, ov.recipe): ov.rate for ov in inst.rate_overrides}
    out = {}
    for q in inst.qualifications:
        rates = {"ABCDEFGH"[c]: r for c, r in q.chamber_rates}
        letters = sorted(rates)
        if kind in ("basic", "serial"):
            recipes = ["".join(letters)]
        else:
            recipes = [
                "".join(pick)
                for size in range(1, len(letters) + 1)
                for pick in combinations(letters, size)
            ]
        for recipe in recipes:
            if kind == "serial":
                out[(q.job, q.tool, recipe)] = min(rates.values())
            else:
                default = sum(rates[letter] for letter in recipe)
                out[(q.job, q.tool, recipe)] = pinned.get((q.job, q.tool, recipe), default)
    return out


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_builder_rates_match_letter_reference(kind, matrices):
    rng = np.random.default_rng(99)
    cases = [overrides_instance()]
    for _ in range(10):
        cases.append(random_instance(rng, int(rng.integers(2, 5)), overrides=True))
    assert sum(bool(inst.rate_overrides) for inst in cases) >= 8
    for inst in cases:
        built = models.build_model(inst, kind, matrix=matrices[inst.chambers])
        assert built.rates == reference_rates(inst, kind)


def stored_rows(problem):
    """Each stored row as its (column, value) pairs, read one entry at a time."""
    a = problem.matrix
    return [
        [(int(a.indices[k]), float(a.data[k])) for k in range(a.indptr[i], a.indptr[i + 1])]
        for i in range(a.shape[0])
    ]


@pytest.mark.parametrize("case", sorted(PINNED_INSTANCES))
def test_cut_block_matches_row_reference(case, matrices):
    inst = PINNED_INSTANCES[case]()
    matrix = matrices[inst.chambers]
    built = build_generalized(inst, matrix)
    rows = dict(zip(built.problem.row_names, stored_rows(built.problem)))
    for ti, tool in enumerate(inst.tools):
        for k, coeffs in enumerate(matrix.coeff_rows()):
            want = [
                (built.agg_cols[(tool, label)], coef)
                for label, coef in zip(matrix.labels, coeffs)
                if coef != 0.0
            ]
            assert rows[f"cut_t{ti}_k{k}"] == [*want, (built.rho_col, -1.0)]


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_utilization_matches_row_sums(kind, case, matrices):
    inst = PINNED_INSTANCES[case]()
    built = models.build_model(inst, kind, matrix=matrices[inst.chambers])
    sol = lp.solve(built.problem)
    _, utilization = models._extract(built, sol)
    rows = stored_rows(built.problem)
    want = [
        max(sum(v * sol.x[j] for j, v in rows[i] if j != built.rho_col) for i in idx)
        for _, _, idx in built.util_rows
    ]
    assert [u.value for u in utilization] == pytest.approx(want, rel=1e-12, abs=0.0)


ROUNDTRIP_INSTANCES = {
    "example1": example1_instance,
    "gen_n4_seed7": lambda: generate(GenParams(0, "1:1", 3, 2, 4, 7)),
}


@pytest.mark.parametrize("case", sorted(ROUNDTRIP_INSTANCES))
@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_lp_text_roundtrip_keeps_rho(kind, case, matrices):
    inst = ROUNDTRIP_INSTANCES[case]()
    problem = models.build_model(inst, kind, matrix=matrices[inst.chambers]).problem
    direct = lp.solve(problem)
    back = lp.solve(lp.parse_lp_text(export_lp_text(problem)))
    assert direct.status == back.status == lp.OPTIMAL
    assert back.objective == pytest.approx(direct.objective, rel=1e-9)


class TestRecipeRates:
    def test_two_equal_chambers_double_the_rate(self):
        inst = example1_instance()
        assert derive_recipe_rate(inst, "lot1", "tool1", "AB") == pytest.approx(1 / 3)

    def test_single_chamber_rate(self):
        inst = one_tool_instance(3, [("j0", 1.0)], [("j0", [(2, 0.2)])])
        assert derive_recipe_rate(inst, "j0", "t0", "C") == pytest.approx(0.2)

    def test_override_wins(self):
        inst = one_tool_instance(
            3,
            [("j0", 1.0)],
            [("j0", [(0, 0.1), (1, 0.1)])],
            overrides=[models.RateOverride("j0", "t0", "AB", 0.4)],
        )
        assert derive_recipe_rate(inst, "j0", "t0", "AB") == pytest.approx(0.4)
        assert derive_recipe_rate(inst, "j0", "t0", "A") == pytest.approx(0.1)

    def test_unqualified_chamber_raises(self):
        inst = one_tool_instance(3, [("j0", 1.0)], [("j0", [(0, 0.1)])])
        with pytest.raises(NotQualifiedError):
            derive_recipe_rate(inst, "j0", "t0", "AB")

    def test_unqualified_pair_raises(self):
        inst = example1_instance()
        with pytest.raises(NotQualifiedError):
            derive_recipe_rate(inst, "lot1", "ghost", "A")

    @pytest.mark.parametrize("recipe", ["BA", "AAB"])
    def test_non_canonical_label_raises(self, recipe):
        inst = example1_instance()
        with pytest.raises(NotQualifiedError):
            derive_recipe_rate(inst, "lot1", "tool1", recipe)


class TestInstanceValidation:
    def test_zero_rate_rejected(self):
        with pytest.raises(DomainError, match="rate"):
            one_tool_instance(3, [("j0", 1.0)], [("j0", [(0, 0.0)])])

    def test_negative_demand_rejected(self):
        with pytest.raises(DomainError, match="demand"):
            one_tool_instance(3, [("j0", -1.0)], [("j0", [(0, 0.5)])])

    @pytest.mark.parametrize("chambers", [True, 2.0])
    def test_non_integer_chamber_count_rejected(self, chambers):
        with pytest.raises(DomainError, match="chamber count"):
            one_tool_instance(chambers, [("j0", 1.0)], [("j0", [(0, 0.5)])])

    @pytest.mark.parametrize("recipe", ["BA", "AAB", ""])
    def test_non_canonical_override_rejected(self, recipe):
        # "BA" used to pass validation and then never match any column, so the
        # summed chamber rate stood in for the pinned one
        with pytest.raises(DomainError, match="not a canonical label"):
            two_chamber_override(models.RateOverride("j0", "t0", recipe, 100.0))

    def test_repeated_override_rejected(self):
        with pytest.raises(DomainError, match="override 1 .*duplicate"):
            two_chamber_override(
                models.RateOverride("j0", "t0", "AB", 100.0),
                models.RateOverride("j0", "t0", "AB", 50.0),
            )

    @pytest.mark.parametrize(
        "jobs,quals,overrides",
        [
            ([("j0", "5")], [("j0", [(0, 0.5)])], ()),  # demand as text
            ([("j0", True)], [("j0", [(0, 0.5)])], ()),  # demand as a bool
            ([("j0", 1.0)], [("j0", [(0, "1.0")])], ()),  # rate as text
            ([("j0", 1.0)], [("j0", [(0.0, 0.5)])], ()),  # chamber index as a float
            ([("j0", 1.0)], [("j0", [(True, 0.5)])], ()),  # chamber index as a bool
            (
                [("j0", 1.0)],
                [("j0", [(0, 0.5), (1, 0.5)])],
                (models.RateOverride("j0", "t0", ["A"], 1.0),),  # recipe as a list
            ),
            (
                [("j0", 1.0)],
                [("j0", [(0, 0.5)])],
                (models.RateOverride("j0", "t0", "A", "2"),),  # override rate as text
            ),
        ],
        ids=[
            "demand-text", "demand-bool", "rate-text", "chamber-float", "chamber-bool",
            "recipe-list", "override-rate-text",
        ],
    )
    def test_mistyped_field_rejected(self, jobs, quals, overrides):
        # library callers skip the file reader's type checks; these used to
        # raise TypeError, or (demand True) build a job of demand 1
        with pytest.raises(DomainError):
            one_tool_instance(2, jobs, quals, overrides)

    def test_structural_feasibility_flag(self):
        inst = models.Instance(
            name="lonely",
            chambers=2,
            tools=("t0",),
            jobs=(models.Job("j0", 5.0),),
            qualifications=(),
        )
        assert inst.unqualified_jobs() == ("j0",)


class TestBasicModel:
    def test_single_pair(self):
        inst = one_tool_instance(1, [("j0", 10.0)], [("j0", [(0, 2.0)])])
        res = solve_capacity(inst, "basic")
        assert res.rho == pytest.approx(5.0, abs=1e-9)

    def test_two_identical_tools_split(self):
        inst = models.Instance(
            name="two",
            chambers=1,
            tools=("t0", "t1"),
            jobs=(models.Job("j0", 10.0),),
            qualifications=(
                models.Qualification("j0", "t0", ((0, 2.0),)),
                models.Qualification("j0", "t1", ((0, 2.0),)),
            ),
        )
        res = solve_capacity(inst, "basic")
        assert res.rho == pytest.approx(2.5, abs=1e-9)

    def test_unqualified_job_is_a_build_error(self):
        inst = models.Instance(
            name="broken",
            chambers=2,
            tools=("t0",),
            jobs=(models.Job("j0", 5.0),),
            qualifications=(),
        )
        with pytest.raises(StructurallyInfeasibleError, match="j0"):
            build_basic(inst)


class TestSerialModel:
    def test_rate_is_the_minimum(self):
        inst = one_tool_instance(
            3, [("j0", 1.0)], [("j0", [(0, 0.5), (1, 1 / 3), (2, 1 / 6)])]
        )
        res = solve_capacity(inst, "serial")
        # the tool processes at the slowest chamber's rate
        assert res.rho == pytest.approx(1.0 / (1 / 6), abs=1e-8)

    def test_equal_rates_chamber_rows_change_nothing(self):
        inst = one_tool_instance(
            3, [("j0", 12.0)], [("j0", [(0, 0.5), (1, 0.5), (2, 0.5)])]
        )
        built = build_serial(inst)
        res = solve_capacity(inst, "serial")
        # chamber rows coincide with the tool row, so the optimum equals the
        # demand time at the serial rate
        assert res.rho == pytest.approx(24.0, abs=1e-8)
        chamber_rows = [name for name in built.problem.row_names if name.startswith("cham_")]
        assert len(chamber_rows) == 3

    def test_distinct_bottlenecks_tighten(self):
        # two jobs, each slow on a different chamber
        inst = one_tool_instance(
            2,
            [("j0", 4.0), ("j1", 4.0)],
            [
                ("j0", [(0, 1.0), (1, 0.25)]),
                ("j1", [(0, 0.25), (1, 1.0)]),
            ],
        )
        serial = solve_capacity(inst, "serial")
        basic_like = 4 / 0.25 + 4 / 0.25  # per-tool total time of the serial demand
        assert serial.rho >= 16.0 - 1e-8
        assert serial.rho <= basic_like + 1e-8


class TestGeneralizedModel:
    def test_reference_instance_reaches_330(self, matrices):
        res = solve_capacity(example1_instance(), "generalized", matrix=matrices[3])
        assert res.status == lp.OPTIMAL
        assert res.rho == pytest.approx(330.0, abs=1e-6)

    def test_single_recipe_binds_chamber_row(self, matrices):
        inst = one_tool_instance(3, [("j0", 7.0)], [("j0", [(0, 1.0)])])
        res = solve_capacity(inst, "generalized", matrix=matrices[3])
        assert res.rho == pytest.approx(7.0, abs=1e-8)

    def test_zero_demand_gives_zero_rho(self, matrices):
        inst = one_tool_instance(3, [("j0", 0.0)], [("j0", [(0, 1.0), (1, 1.0)])])
        res = solve_capacity(inst, "generalized", matrix=matrices[3])
        assert res.rho == pytest.approx(0.0, abs=1e-9)

    def test_requires_reduced_matrix(self, matrices):
        from clustercap import cuts_to_matrix, double_graph, enumerate_minimal_cuts
        from clustercap import build_parallel_graph

        g = build_parallel_graph(3)
        raw = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g)))
        with pytest.raises(DomainError, match="reduced"):
            build_generalized(example1_instance(), raw)

    def test_matrix_chamber_count_must_match(self, matrices):
        with pytest.raises(DomainError, match="chambers"):
            build_generalized(example1_instance(), matrices[4])


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


class TestRowGeneration:
    """`solve_capacity` solves the generalized model by row generation; the
    full LP, solved in one run, is the oracle."""

    @pytest.mark.parametrize("case", sorted(PINNED_INSTANCES))
    def test_pinned_cases_match_the_full_lp(self, case, matrices):
        inst = PINNED_INSTANCES[case]()
        matrix = matrices[inst.chambers]
        res = solve_capacity(inst, "generalized", matrix=matrix)
        full = lp.solve(build_generalized(inst, matrix).problem)
        assert res.status == full.status == lp.OPTIMAL
        assert rel_gap(res.rho, full.objective) <= 1e-9
        assert res.rounds >= 1 and res.iterations >= 0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
    @settings(max_examples=24)
    def test_fuzz_matches_the_full_lp_and_the_alternative(self, seed, n, matrices, cuts5):
        # random_instance locks about a fifth of each pair's chambers and,
        # with overrides=True, pins a recipe rate on about half the pairs
        inst = random_instance(np.random.default_rng(seed), n, overrides=True)
        matrix = cuts5[0] if n == 5 else matrices[n]
        gen = solve_capacity(inst, "generalized", matrix=matrix)
        full = lp.solve(build_generalized(inst, matrix).problem)
        alt = solve_capacity(inst, "alternative")
        alt_simplex = lp.solve(build_alternative(inst).problem, lp.SIMPLEX)
        assert gen.status == full.status == alt.status == alt_simplex.status == lp.OPTIMAL
        assert rel_gap(gen.rho, full.objective) <= 1e-9
        assert rel_gap(alt.rho, alt_simplex.objective) <= 1e-9  # IPM vs dual simplex
        assert rel_gap(gen.rho, alt.rho) <= 1e-9

    def test_answer_is_certified_by_the_full_lp(self, matrices, monkeypatch):
        """HiGHS answers for the rows it holds.  A run that reports Optimal
        at an x breaking one cut row the handle did not start with is
        refused, and the error names that row."""
        inst = one_tool_instance(3, [("j0", 6.0)], [("j0", [(0, 2.0)])])
        built = build_generalized(inst, matrices[3])
        x = np.array(lp.solve(built.problem).x)
        x[built.rho_col] *= 0.75
        gap = built.problem.matrix @ x - built.problem.rhs
        (broken,) = np.flatnonzero(gap > 1e-8)
        started = []

        def optimal_at_x(handle):
            started.append(set(handle.rows.tolist()))
            fun = float(handle.form.c @ x)
            return lp._Answer(lp.OPTIMAL, x, fun, np.zeros(len(handle.rows)), 0)

        monkeypatch.setattr(lp, "_run", optimal_at_x)
        name = built.problem.row_names[broken]
        assert name.startswith("cut_t0_")
        with pytest.raises(LpSolverError, match=f"row {name} violated"):
            solve_capacity(inst, "generalized", matrix=matrices[3])
        assert broken not in started[0]

    def test_single_runs_report_one_round(self, matrices):
        for kind in ("basic", "serial", "alternative"):
            res = solve_capacity(example1_instance(), kind, matrix=matrices[3])
            assert res.rounds == 1 and res.iterations >= 0


def test_row_generation_adds_the_most_violated_rows(matrices, monkeypatch):
    """Each round adds, per tool, at most ROWS_PER_ROUND cut rows the handle
    did not hold, each violated by the last answer, most violated first."""
    inst = random_instance(np.random.default_rng(11), 4, max_tools=3, max_jobs=5)
    built = build_generalized(inst, matrices[4])
    a = built.problem.matrix
    answers, calls = [], []
    run, add_rows = lp.Handle.run, lp.Handle.add_rows

    def spy_run(handle):
        answers.append(run(handle))
        return answers[-1]

    def spy_add_rows(handle, rows):
        calls.append((set(handle.rows.tolist()), list(rows), answers[-1]))
        add_rows(handle, rows)

    monkeypatch.setattr(lp.Handle, "run", spy_run)
    monkeypatch.setattr(lp.Handle, "add_rows", spy_add_rows)
    res = solve_capacity(inst, "generalized", matrix=matrices[4])
    assert res.status == lp.OPTIMAL and res.rounds == len(calls) + 1
    assert calls and max(len(rows) for _, rows, _ in calls) > len(built.util_rows)
    cut_rows = set().union(*(idx for _, _, idx in built.util_rows))
    for held, rows, sol in calls:
        x = np.array(sol.x)
        rho, x[built.rho_col] = x[built.rho_col], 0.0
        lhs = a @ x
        assert held.isdisjoint(rows) and cut_rows.issuperset(rows)
        for _, _, idx in built.util_rows:
            mine = [k for k in rows if k in idx]
            assert len(mine) <= models.ROWS_PER_ROUND
            assert all(lhs[k] > rho + lp.TOL.feasibility for k in mine)
            assert [lhs[k] for k in mine] == sorted((lhs[k] for k in mine), reverse=True)


class TestAlternativeModel:
    def test_reference_instance_reaches_330(self):
        res = solve_capacity(example1_instance(), "alternative")
        assert res.rho == pytest.approx(330.0, abs=1e-6)

    def test_single_recipe_forced(self):
        inst = one_tool_instance(3, [("j0", 7.0)], [("j0", [(0, 1.0)])])
        res = solve_capacity(inst, "alternative")
        assert res.rho == pytest.approx(7.0, abs=1e-8)

    def test_two_disjoint_singles_fully_pair(self):
        inst = one_tool_instance(
            2,
            [("j0", 5.0), ("j1", 5.0)],
            [("j0", [(0, 1.0)]), ("j1", [(1, 1.0)])],
        )
        res = solve_capacity(inst, "alternative")
        assert res.rho == pytest.approx(5.0, abs=1e-8)


class TestModelAgreement:
    def test_small_fuzz(self, matrices, cache_dir):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n)
            res_g = solve_capacity(inst, "generalized", matrix=matrices[n])
            res_a = solve_capacity(inst, "alternative")
            assert res_g.status == res_a.status == lp.OPTIMAL
            assert abs(res_g.rho - res_a.rho) <= 1e-6 * max(1.0, abs(res_g.rho))

    def test_fuzz_with_rate_overrides(self, matrices):
        rng = np.random.default_rng(4242)
        with_overrides = 0
        for _ in range(20):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n, overrides=True)
            with_overrides += bool(inst.rate_overrides)
            res_g = solve_capacity(inst, "generalized", matrix=matrices[n])
            res_a = solve_capacity(inst, "alternative")
            assert res_g.status == res_a.status == lp.OPTIMAL
            assert abs(res_g.rho - res_a.rho) <= 1e-6 * max(1.0, abs(res_g.rho))
        assert with_overrides >= 15

    def test_demand_scaling(self, matrices):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 3)
        alpha = 3.7
        scaled = models.Instance(
            name=inst.name,
            chambers=inst.chambers,
            tools=inst.tools,
            jobs=tuple(models.Job(j.id, alpha * j.demand) for j in inst.jobs),
            qualifications=inst.qualifications,
        )
        for kind in ("basic", "serial", "generalized", "alternative"):
            base = solve_capacity(inst, kind, matrix=matrices[3])
            big = solve_capacity(scaled, kind, matrix=matrices[3])
            assert big.rho == pytest.approx(alpha * base.rho, rel=1e-7, abs=1e-7)

    def test_qualification_monotonicity(self, matrices):
        rng = np.random.default_rng(11)
        for _ in range(5):
            inst = random_instance(rng, 3, max_tools=3, max_jobs=3)
            victim = None
            for q in inst.qualifications:
                if len(q.chamber_rates) > 1:
                    victim = q
                    break
            if victim is None:
                continue
            reduced_quals = tuple(
                q
                if q is not victim
                else models.Qualification(q.job, q.tool, q.chamber_rates[1:])
                for q in inst.qualifications
            )
            smaller = models.Instance(
                name=inst.name,
                chambers=inst.chambers,
                tools=inst.tools,
                jobs=inst.jobs,
                qualifications=reduced_quals,
            )
            for kind in ("basic", "generalized", "alternative"):
                before = solve_capacity(inst, kind, matrix=matrices[3])
                after = solve_capacity(smaller, kind, matrix=matrices[3])
                assert after.rho >= before.rho - 1e-7

    def test_basic_is_a_relaxation_on_homogeneous_instances(self, matrices):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inst = random_instance(rng, 3, homogeneous=True)
            basic = solve_capacity(inst, "basic")
            gen = solve_capacity(inst, "generalized", matrix=matrices[3])
            assert basic.rho <= gen.rho + 1e-7

    def test_single_tool_rho_equals_cut_makespan(self, matrices):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inst = random_instance(rng, 3, max_tools=1)
            built = build_generalized(inst, matrices[3])
            sol = lp.solve(built.problem)
            assert sol.status == lp.OPTIMAL
            x = np.array(
                [
                    sol.x[built.agg_cols[(inst.tools[0], label)]]
                    for label in matrices[3].labels
                ]
            )
            assert makespan_via_cuts(x, matrices[3]) == pytest.approx(
                sol.objective, abs=1e-6
            )


class TestResultExtraction:
    def test_assignments_meet_demand(self, matrices):
        res = solve_capacity(example1_instance(), "generalized", matrix=matrices[3])
        produced = {}
        for a in res.assignments:
            produced[a.job] = produced.get(a.job, 0.0) + a.wafers
        assert produced["lot1"] == pytest.approx(90.0, rel=1e-9)
        assert produced["lot2"] == pytest.approx(90.0, rel=1e-9)

    def test_json_shape(self, matrices):
        res = solve_capacity(example1_instance(), "generalized", matrix=matrices[3])
        d = res.to_json_dict()
        assert set(d) == {"model", "status", "rho", "assignments", "utilization"}
        assert all(
            set(a) == {"job", "tool", "recipe", "time", "wafers"} for a in d["assignments"]
        )
        assert all(set(u) == {"tool", "row_kind", "value"} for u in d["utilization"])

    def test_infeasible_status_surfaces(self, matrices):
        # zero-rate impossible demand cannot happen (rates > 0); force
        # infeasibility via an override pushing demand above any capacity is
        # not possible either, so check the structural pre-check instead
        inst = models.Instance(
            name="broken",
            chambers=3,
            tools=("t0",),
            jobs=(models.Job("j0", 5.0),),
            qualifications=(),
        )
        with pytest.raises(StructurallyInfeasibleError):
            solve_capacity(inst, "generalized", matrix=matrices[3])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown model kind"):
            solve_capacity(example1_instance(), "quantum")


class TestSizeFormulas:
    def test_delta_and_gamma_sequences(self, cache_dir):
        deltas = {}
        gammas = {}
        for n in (1, 2, 3, 4):
            pred = predict_sizes("generalized", n, 1, 1, 1, cache_dir=cache_dir)
            deltas[n] = pred.delta_n
            gammas[n] = pred.gamma_n
        assert gammas == {1: 3, 2: 10, 3: 33, 4: 106}
        assert deltas[1] == 0 and deltas[2] == -2 and deltas[4] == 188
        # the reference delta for n=3 is 1; the built matrices give 2 because
        # the reference nonzero tally for n=3 is off by one vs its own table
        assert deltas[3] == 2

    def test_alternative_toy_formula_vs_actual(self, cache_dir, matrices):
        inst = one_tool_instance(
            3, [("j0", 5.0)], [("j0", [(0, 1.0), (1, 1.0), (2, 1.0)])]
        )
        built = build_alternative(inst)
        pred = predict_sizes("alternative", 3, 1, 1, 7, cache_dir=cache_dir)
        assert pred.nonzeros == 48  # reference listing: 2|C| + |I|(1 + 3|R| + 2|E|)
        assert pred.nonzeros_gamma == 47  # reference gamma variant
        # the built row set carries the pairing variables in the makespan row
        # too, hence |E| more entries than the listing
        assert built.stats.nonzeros == 54
        assert built.stats.rows == pred.rows == 16
        assert built.stats.columns == pred.columns == 21

    def test_generalized_toy_counts(self, cache_dir, matrices):
        inst = one_tool_instance(
            3, [("j0", 5.0)], [("j0", [(0, 1.0), (1, 1.0), (2, 1.0)])]
        )
        built = build_generalized(inst, matrices[3])
        pred = predict_sizes("generalized", 3, 1, 1, 7, cache_dir=cache_dir)
        assert built.stats.rows == pred.rows == 13
        # reference column formula counts pairing variables the cut model
        # does not have
        assert pred.columns == 21
        assert built.stats.columns == 15
        assert pred.nonzeros == 50
        assert built.stats.nonzeros == 49  # no per-tool constant offset

    def test_stats_match_problem(self, matrices):
        built = build_generalized(example1_instance(), matrices[3])
        assert built.stats == size_stats(built.problem)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            predict_sizes("basic", 3, 1, 1, 1)
