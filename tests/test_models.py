import hashlib
import re
from dataclasses import replace
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
    build_parallel_graph,
    build_serial,
    export_lp_text,
    generate,
    lp,
    makespan_via_cuts,
    models,
    predict_sizes,
    size_stats,
    solve_capacity,
)
from clustercap.errors import DomainError, LpSolverError, StructurallyInfeasibleError
from clustercap.instances import SHAPES

from conftest import example1_instance, random_instance, tiny_rates_instance
from lp_oracles import read_lp_text
from model_oracles import (
    NotQualifiedError, derive_recipe_rate, reference_columns, reference_model, table_columns,
)


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


def idle_tool_instance():
    """Two tools, of which no job qualifies T0: its load row holds rho alone."""
    return models.Instance(
        "i",
        3,
        ("T0", "T1"),
        (models.Job("j", 5.0),),
        (models.Qualification("j", "T1", ((0, 0.2), (1, 0.3))),),
    )


PINNED_INSTANCES = {
    "example1": example1_instance,
    "gen_n3": lambda: generate(GenParams(0, "1:4", 3, 2, 3, 5)),
    "gen_n4": lambda: generate(GenParams(0, "1:1", 3, 2, 4, 6)),
    "idle_tool": idle_tool_instance,
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
    # recorded before every tool's rows were placed in one array step
    ("basic", "idle_tool"): ("328304136e3676ea", 3, 2, 4),
    ("serial", "idle_tool"): ("e0701421f9b85444", 5, 2, 8),
    ("generalized", "idle_tool"): ("71721d55906ec91c", 25, 18, 76),
    ("alternative", "idle_tool"): ("19d7ee1e3dc68326", 31, 30, 86),
}


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_lp_text_is_pinned(kind, case, matrices):
    inst = PINNED_INSTANCES[case]()
    built = models.build_model(inst, kind, matrix=matrices[inst.chambers])
    problem = built.problem
    assert not {"col_names", "row_names"} & set(vars(problem))  # made only when asked
    digest = hashlib.sha256(export_lp_text(problem).encode()).hexdigest()[:16]
    stats = built.stats
    assert (digest, stats.rows, stats.columns, stats.nonzeros) == PINNED_LP[(kind, case)]
    names = problem.col_names + problem.row_names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_highs_reads_the_exported_lp(kind, case, matrices):
    """HiGHS's own LP file reader reads the export back to the same problem,
    every number exactly."""
    inst = PINNED_INSTANCES[case]()
    problem = models.build_model(inst, kind, matrix=matrices[inst.chambers]).problem
    read = read_lp_text(export_lp_text(problem))
    cost = np.zeros(len(problem.lower))
    for j, v in problem.objective:
        cost[j] = v
    senses = np.array(problem.senses)
    row_lower = np.where(senses == lp.LE, -np.inf, problem.rhs)
    row_upper = np.where(senses == lp.GE, np.inf, problem.rhs)
    assert read.sense == problem.sense
    assert read.col_names == problem.col_names
    assert read.cost.tolist() == cost.tolist()
    assert read.lower.tolist() == problem.lower.tolist()
    assert read.upper.tolist() == problem.upper.tolist()
    assert read.row_names == problem.row_names
    assert read.row_lower.tolist() == row_lower.tolist()
    assert read.row_upper.tolist() == row_upper.tolist()
    assert csr_rows(read.matrix) == [sorted(row) for row in csr_rows(problem.matrix)]


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
        assert table_columns(built)[1] == reference_rates(inst, kind)


def drawn_instances(count=30):
    """Instances from `random_instance` with rate overrides, n = 3, 4, 5 in turn."""
    rng = np.random.default_rng(2026)
    return [random_instance(rng, 3 + k % 3, overrides=True) for k in range(count)]


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_column_table_matches_the_per_column_build(kind, matrices, cuts5):
    """The column table holds the columns, rates and names that the build
    of one column at a time gives, in its order, and the demand and
    balance rows hold their columns in that order."""
    for inst in [make() for make in PINNED_INSTANCES.values()] + drawn_instances():
        matrix = cuts5[0] if inst.chambers == 5 else matrices[inst.chambers]
        built = models.build_model(inst, kind, matrix=matrix)
        cols, rates, names = reference_columns(inst, kind)
        assert table_columns(built) == (cols, rates)
        assert built.problem.col_names[1 : 1 + len(names)] == tuple(names)
        demand, balance = {}, {}
        for (job, tool, label), col in cols.items():
            demand.setdefault(job, []).append((col, rates[(job, tool, label)]))
            balance.setdefault((tool, label), []).append((col, -1.0))
        rows = dict(zip(built.problem.row_names, stored_rows(built.problem)))
        for ji, job in enumerate(inst.jobs):
            assert rows[f"dem_j{ji}"] == demand[job.id]
        for ti, tool in enumerate(inst.tools if built.aggs else ()):
            for slot, label in enumerate(build_parallel_graph(inst.chambers).labels):
                want = [(built.aggs[ti] + slot, 1.0), *balance.get((tool, label), [])]
                assert rows[f"bal_t{ti}_{label}"] == want


def model_arrays(built):
    """Everything a built model holds, each array as its dtype, shape and bytes."""
    def raw(a):
        return a.dtype.str, a.shape, a.tobytes()

    def csr(a):
        return None if a is None else (a.shape, raw(a.indptr), raw(a.indices), raw(a.data))

    p, table = built.problem, built.x_cols
    return {
        "model": (built.kind, built.util_rows, built.stats, built.aggs),
        "problem": (p.name, p.sense, p.objective, p.senses, p.col_names, p.row_names),
        "bounds": (raw(p.lower), raw(p.upper), raw(p.rhs)),
        "matrix": csr(p.matrix),
        "columns": (table.keys, raw(table.pair), raw(table.recipe), raw(table.rate)),
        "template": csr(built.template),
    }


def reference_cases():
    """Generated instances at n = 3..5 in every shape, drawn ones at
    n = 1..5 (some with a tool that no job qualifies), the pinned ones, and
    the instance with no tools and no jobs."""
    rng = np.random.default_rng(34)
    for n in (3, 4, 5):
        for shape in SHAPES:
            yield f"gen_n{n}_{shape}", generate(GenParams(n % 2, shape, 3 * (n % 2), 2, n, n))
    for k in range(15):
        yield f"drawn_{k}", random_instance(rng, 1 + k % 5, max_tools=6, overrides=True)
    for case, make in sorted(PINNED_INSTANCES.items()):
        yield case, make()
    yield "none", models.Instance("none", 3, (), (), ())


TOOL_BLOCK_FORMS = [  # (kind, full); the generalized model in both of its forms
    ("basic", True),
    ("serial", True),
    ("generalized", True),
    ("generalized", False),
    ("alternative", True),
]


@pytest.mark.parametrize("kind,full", TOOL_BLOCK_FORMS)
def test_tool_blocks_match_the_per_tool_build(kind, full, matrices, cuts5):
    """Every tool's rows, placed in one array step, are the model that the
    build of one tool at a time gives, bit for bit: arrays, names, senses,
    utilization entries, aggregate columns, stats and the cut template."""
    idle = 0
    for case, inst in reference_cases():
        matrix = cuts5[0] if inst.chambers == 5 else matrices[inst.chambers]
        if kind == "generalized":
            got = models._generalized(inst, matrix, full)
        else:
            got = models.build_model(inst, kind)
        assert model_arrays(got) == model_arrays(reference_model(inst, kind, matrix, full)), case
        idle += len(set(inst.tools) - {tool for _, tool in inst.pair_rates})
    assert idle >= 10  # tools that no job qualifies


@pytest.fixture(scope="module")
def plan_model():
    """The plan-n5 instance 1:1 with three locked chambers, and its alternative model."""
    inst = generate(GenParams(2, "1:1", 3, 2, 5, 1))
    return inst, build_alternative(inst)


def test_errors_name_the_column_or_row_on_a_plan_size_model(plan_model):
    inst, built = plan_model
    problem, names = built.problem, reference_columns(inst, "alternative")[2]
    x = np.zeros(len(problem.lower))
    x[5] = -1.0
    with pytest.raises(LpSolverError, match=f"bound violated for {names[4]}$"):
        lp.Handle(problem).certify(lp.LpSolution(lp.OPTIMAL, 0.0, tuple(x), None, 0))
    x[5], x[built.aggs[0]] = 0.0, 1.0  # breaks tool 0's balance row of recipe A alone
    zero = replace(problem, rhs=np.zeros(len(problem.rhs)))
    with pytest.raises(LpSolverError, match="row bal_t0_A violated by 1.000e"):
        lp.Handle(zero).certify(lp.LpSolution(lp.OPTIMAL, 0.0, tuple(x), None, 0))
    lower = problem.lower.copy()
    lower[7] = np.nan
    with pytest.raises(DomainError, match=f"variable '{names[6]}' has empty bound interval"):
        replace(problem, lower=lower)


def test_assignments_hold_plain_str_and_float(plan_model):
    res = solve_capacity(plan_model[0], "alternative")
    assert res.status == lp.OPTIMAL and res.assignments
    for a in res.assignments:
        assert [type(value) for value in vars(a).values()] == [str, str, str, float, float]
    assert {type(u.value) for u in res.utilization} == {float}


def csr_rows(a):
    """Each row of a `Csr` as its (column, value) pairs, read one entry at a time."""
    return [
        [(int(a.indices[k]), float(a.data[k])) for k in range(a.indptr[i], a.indptr[i + 1])]
        for i in range(a.shape[0])
    ]


def stored_rows(problem):
    """Each stored row of the problem as its (column, value) pairs."""
    return csr_rows(problem.matrix)


@pytest.mark.parametrize("case", sorted(PINNED_INSTANCES))
def test_cut_block_matches_row_reference(case, matrices):
    inst = PINNED_INSTANCES[case]()
    matrix = matrices[inst.chambers]
    built = build_generalized(inst, matrix)
    rows = dict(zip(built.problem.row_names, stored_rows(built.problem)))
    cols = {name: j for j, name in enumerate(built.problem.col_names)}
    for ti in range(len(inst.tools)):
        for k, coeffs in enumerate(matrix.coeff_rows()):
            want = [
                (cols[f"agg_t{ti}_{label}"], coef)
                for label, coef in zip(matrix.labels, coeffs)
                if coef != 0.0
            ]
            assert rows[f"cut_t{ti}_k{k}"] == [*want, (models.RHO_COL, -1.0)]


def full_lp_lhs(built, sol):
    """The left-hand sides, rho left out, of each utilization entry's rows,
    from the product of the whole LP matrix, as a single run gives them."""
    x = np.array(sol.x)
    x[models.RHO_COL] = 0.0
    lhs = built.problem.matrix @ x
    return [lhs[idx] for _, _, idx in built.util_rows]


@pytest.mark.parametrize("kind,case", sorted(PINNED_LP))
def test_utilization_matches_row_sums(kind, case, matrices):
    inst = PINNED_INSTANCES[case]()
    built = models.build_model(inst, kind, matrix=matrices[inst.chambers])
    sol = lp.solve(built.problem)
    _, utilization = models._extract(built, sol, full_lp_lhs(built, sol))
    rows = stored_rows(built.problem)
    want = [
        max(sum(v * sol.x[j] for j, v in rows[i] if j != models.RHO_COL) for i in idx)
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
    back = lp.solve(read_lp_text(export_lp_text(problem)).problem())
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

    @pytest.mark.parametrize(
        "jobs,quals,overrides,field",
        [
            ([("j0", 10**400)], [("j0", [(0, 0.5)])], (), "demand"),
            ([("j0", 1.0)], [("j0", [(0, 10**400)])], (), r"\(j0, t0\): rate"),
            (
                [("j0", 1.0)],
                [("j0", [(0, 0.5)])],
                (models.RateOverride("j0", "t0", "A", 10**400),),
                "override 0 .*: rate",
            ),
        ],
        ids=["demand", "chamber-rate", "override-rate"],
    )
    def test_int_too_large_for_a_float_rejected(self, jobs, quals, overrides, field):
        # such an int passes `< inf`, and converting it in a solve raises OverflowError
        with pytest.raises(DomainError, match=field):
            one_tool_instance(2, jobs, quals, overrides)
        edge = (models.RateOverride("j0", "t0", "A", 2**1023),) if overrides else ()
        one_tool_instance(2, [("j0", 2**1023)], [("j0", [(0, 2**1023)])], edge)

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

    @pytest.mark.parametrize("per_round", [0, models.ROWS_PER_ROUND])
    def test_answer_is_certified_by_the_full_lp(self, per_round, matrices, monkeypatch):
        """HiGHS answers for the rows it holds.  A run that reports Optimal
        at an x breaking one cut row of the full LP that the handle did not
        start with is refused, and the error names that row: whether the
        row is never added (no rows per round) or added and still broken."""
        inst = one_tool_instance(3, [("j0", 6.0)], [("j0", [(0, 2.0)])])
        built = build_generalized(inst, matrices[3])
        x = np.array(lp.solve(built.problem).x)
        x[models.RHO_COL] *= 0.75
        gap = built.problem.matrix @ x - built.problem.rhs
        (broken,) = np.flatnonzero(gap > 1e-8)
        started = []

        def optimal_at_x(handle):
            started.append({handle.problem.row_names[i] for i in handle.rows})
            fun = sum(v * x[j] for j, v in handle.problem.objective)
            return lp._Answer(lp.OPTIMAL, x, fun, np.zeros(handle.highs.getNumRow()), 0)

        monkeypatch.setattr(lp, "_run", optimal_at_x)
        monkeypatch.setattr(models, "ROWS_PER_ROUND", per_round)
        name = built.problem.row_names[broken]
        assert name.startswith("cut_t0_")
        with pytest.raises(LpSolverError, match=f"row {name} violated"):
            solve_capacity(inst, "generalized", matrix=matrices[3])
        assert name not in started[0]
        assert len(started) == (1 if per_round == 0 else 2)

    @pytest.mark.parametrize("per_round", [0, models.ROWS_PER_ROUND])
    def test_first_broken_row_in_tool_order_is_named(self, per_round, matrices, monkeypatch):
        """With cut rows broken on two tools, the error names tool 0's row,
        though tool 1's has the lower k."""
        inst = models.Instance(
            "two", 3, ("t0", "t1"), (models.Job("j0", 6.0), models.Job("j1", 6.0)),
            (models.Qualification("j0", "t0", ((0, 2.0),)),
             models.Qualification("j1", "t1", ((2, 2.0),))),
        )
        built = build_generalized(inst, matrices[3])
        x = np.array(lp.solve(built.problem).x)
        x[models.RHO_COL] *= 0.75
        gap = built.problem.matrix @ x - built.problem.rhs
        broken = [built.problem.row_names[i] for i in np.flatnonzero(gap > 1e-8)]
        assert broken == ["cut_t0_k4", "cut_t1_k1"]

        def optimal_at_x(handle):
            fun = sum(v * x[j] for j, v in handle.problem.objective)
            return lp._Answer(lp.OPTIMAL, x, fun, np.zeros(handle.highs.getNumRow()), 0)

        monkeypatch.setattr(lp, "_run", optimal_at_x)
        monkeypatch.setattr(models, "ROWS_PER_ROUND", per_round)
        with pytest.raises(LpSolverError, match="row cut_t0_k4 violated"):
            solve_capacity(inst, "generalized", matrix=matrices[3])

    def test_single_runs_report_one_round(self, matrices):
        for kind in ("basic", "serial", "alternative"):
            res = solve_capacity(example1_instance(), kind, matrix=matrices[3])
            assert res.rounds == 1 and res.iterations >= 0


def test_row_generation_adds_the_most_violated_rows(matrices, monkeypatch):
    """Each round adds, per tool, at most ROWS_PER_ROUND cut rows of the
    full LP that HiGHS did not hold, each violated by the last answer, most
    violated first.  The full LP is the oracle: each added row must equal
    one of its cut rows, entry for entry, with its bounds."""
    inst = random_instance(np.random.default_rng(11), 4, max_tools=3, max_jobs=5)
    built = build_generalized(inst, matrices[4])
    a = built.problem.matrix
    index = {tuple(row): i for i, row in enumerate(stored_rows(built.problem))}
    by_name = {name: i for i, name in enumerate(built.problem.row_names)}
    answers, calls, held = [], [], set()
    init, run, add_rows = lp.Handle.__init__, lp.Handle.run, lp.Handle.add_rows

    def spy_init(handle, problem, *args, **kwargs):
        init(handle, problem, *args, **kwargs)
        held.update(by_name[problem.row_names[i]] for i in handle.rows)

    def spy_run(handle):
        answers.append(run(handle))
        return answers[-1]

    def spy_add_rows(handle, block, lower, upper):
        rows = [index[tuple(row)] for row in csr_rows(block)]
        assert np.all(lower == -np.inf) and np.all(upper == built.problem.rhs[rows])
        assert all(built.problem.senses[k] == lp.LE for k in rows)
        calls.append((set(held), rows, answers[-1]))
        held.update(rows)
        add_rows(handle, block, lower, upper)

    monkeypatch.setattr(lp.Handle, "__init__", spy_init)
    monkeypatch.setattr(lp.Handle, "run", spy_run)
    monkeypatch.setattr(lp.Handle, "add_rows", spy_add_rows)
    res = solve_capacity(inst, "generalized", matrix=matrices[4])
    assert res.status == lp.OPTIMAL and res.rounds == len(calls) + 1
    assert calls and max(len(rows) for _, rows, _ in calls) > len(built.util_rows)
    cut_rows = set().union(*(idx for _, _, idx in built.util_rows))
    for held, rows, sol in calls:
        x = np.array(sol.x)
        rho, x[models.RHO_COL] = x[models.RHO_COL], 0.0
        lhs = a @ x
        assert held.isdisjoint(rows) and cut_rows.issuperset(rows)
        for _, _, idx in built.util_rows:
            mine = [k for k in rows if k in idx]
            assert len(mine) <= models.ROWS_PER_ROUND
            assert all(lhs[k] > rho + lp.TOL.feasibility for k in mine)
            assert [lhs[k] for k in mine] == sorted((lhs[k] for k in mine), reverse=True)


def violated_by_tool(lhs, held, rho):
    """Row generation's selection as a loop over tools, `_violated`'s
    reference: per tool, the violated rows not yet held, most violated
    first (a stable sort, so ties by k), at most ROWS_PER_ROUND of them."""
    tools, ks = [], []
    for ti, block in enumerate(lhs):
        over = np.flatnonzero((block > rho + lp.TOL.feasibility) & ~held[ti])
        worst = over[np.argsort(-block[over], kind="stable")[: models.ROWS_PER_ROUND]]
        tools += [ti] * len(worst)
        ks += worst.tolist()
    return tools, ks


class TestViolatedRows:
    """`_violated` picks from the whole (tools, K) array the (tool, k) pairs
    that the loop over tools picks, in the same order."""

    TIES = [[1, 3, 3, 2, 3, 3, 0], [2, 2, 0, 2, 2, 2, 2]]
    # added to rho: 1e-8 is the feasibility tolerance, not a violation
    OFFSETS = np.array([-1.0, 0.0, 1e-8, 2e-8, 0.5, 1.0, 2.0])

    @pytest.mark.parametrize(
        "lhs,held,want",
        [
            (TIES, [], ([0] * 4 + [1] * 4, [1, 2, 4, 5, 0, 1, 3, 4])),
            (TIES, [(0, 2), (1, 0)], ([0] * 4 + [1] * 4, [1, 4, 5, 3, 1, 3, 4, 5])),
            ([[0, 1, 0], [0, 0, 0], [2, 0, 5]], [], ([0, 2, 2], [1, 2, 0])),
            ([[0, 1e-8, -1], [0, 0, 0]], [], ([], [])),
        ],
        ids=["ties", "held", "fewer", "none"],
    )
    def test_pinned_arrays(self, lhs, held, want):
        lhs = np.array(lhs, dtype=float)
        mask = np.zeros(lhs.shape, dtype=bool)
        for at in held:
            mask[at] = True
        got = [a.tolist() for a in models._violated(lhs, mask, 0.0)]
        assert got == list(want) == list(violated_by_tool(lhs, mask, 0.0))

    @given(
        seed=st.integers(0, 2**32 - 1),
        per_round=st.sampled_from([0, 1, 2, models.ROWS_PER_ROUND, 9]),
    )
    @settings(max_examples=200)
    def test_drawn_arrays(self, seed, per_round):
        rng = np.random.default_rng(seed)
        shape = rng.integers(1, 7), rng.integers(1, 30)
        rho = rng.choice([0.0, 3.0, 330.0])
        lhs = rho + self.OFFSETS[rng.integers(0, len(self.OFFSETS), shape)]  # ties aplenty
        held = rng.random(shape) < rng.choice([0.0, 0.3, 0.9])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "ROWS_PER_ROUND", per_round)
            tools, ks = models._violated(lhs, held, rho)
            want = violated_by_tool(lhs, held, rho)
        assert (tools.tolist(), ks.tolist()) == want


VERIFY_N5 = {  # the verify-n5 benchmark instances
    "verify_s0": GenParams(0, "1:1", 3, 2, 5, 1),
    "verify_s1": GenParams(1, "1:4", 3, 2, 5, 1),
}


def stats_cases():
    """The pinned instances and the verify-n5 ones, by name."""
    for case, make in sorted(PINNED_INSTANCES.items()):
        yield case, make()
    for case, params in VERIFY_N5.items():
        yield case, generate(params)


def assert_on_demand_rows_are_the_full_lp(inst, matrix):
    """The model built for row generation holds rows and columns of the full
    LP, and the template rows `_place` puts on demand are the full LP's cut
    rows: name, bounds, indices, data and entry order."""
    full = build_generalized(inst, matrix).problem
    base = models._generalized(inst, matrix, full=False)
    part = base.problem
    assert part.col_names == full.col_names and part.objective == full.objective
    assert np.array_equal(part.lower, full.lower) and np.array_equal(part.upper, full.upper)
    by_name = {name: i for i, name in enumerate(full.row_names)}
    full_rows, part_rows = stored_rows(full), stored_rows(part)
    for i, name in enumerate(part.row_names):
        k = by_name[name]
        got = (part.senses[i], part.rhs[i], part_rows[i])
        assert got == (full.senses[k], full.rhs[k], full_rows[k]), name
    n_cuts = base.template.shape[0]
    assert len(base.aggs) == len(inst.tools)
    assert sum(name.startswith("cut_") for name in part.row_names) == len(inst.tools)
    want_tools, want_ks = [], []
    for ti, agg in enumerate(base.aggs):
        names = [f"cut_t{ti}_k{k}" for k in range(n_cuts)]
        rows = [by_name[name] for name in names]
        assert all(full.senses[i] == lp.LE and full.rhs[i] == 0.0 for i in rows)
        got = models._place(base.template[range(n_cuts)], agg, len(full.col_names))
        want = full.matrix[rows]
        assert got.shape == want.shape
        for field in ("indptr", "indices", "data"):
            assert getattr(got, field).tolist() == getattr(want, field).tolist(), field
        want_tools += [ti] * n_cuts
        want_ks += range(n_cuts)
    # rows of several tools in one block, in any order, as a round adds them
    order = np.random.default_rng(len(want_ks)).permutation(len(want_ks))[:40]
    tools, ks = np.array(want_tools)[order], np.array(want_ks)[order]
    got = models._place(base.template[ks], np.array(base.aggs)[tools], len(full.col_names))
    want = full.matrix[[by_name[f"cut_t{ti}_k{k}"] for ti, k in zip(tools, ks)]]
    assert csr_rows(got) == csr_rows(want)


class TestCutRowsOnDemand:
    """`solve_capacity` builds the generalized model with one cut row per
    tool, and the others from the cut template; `build_generalized`, the
    full LP, is the oracle."""

    @pytest.mark.parametrize("case", sorted(PINNED_INSTANCES))
    def test_pinned_rows_are_the_full_lp_rows(self, case, matrices):
        inst = PINNED_INSTANCES[case]()
        assert_on_demand_rows_are_the_full_lp(inst, matrices[inst.chambers])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
    @settings(max_examples=12)
    def test_drawn_rows_are_the_full_lp_rows(self, seed, n, matrices, cuts5):
        inst = random_instance(np.random.default_rng(seed), n, overrides=True)
        assert_on_demand_rows_are_the_full_lp(inst, cuts5[0] if n == 5 else matrices[n])

    def test_stats_count_the_full_lp(self, matrices, cuts5):
        for case, inst in stats_cases():
            matrix = cuts5[0] if inst.chambers == 5 else matrices[inst.chambers]
            want = size_stats(build_generalized(inst, matrix).problem)
            assert models._generalized(inst, matrix, full=False).stats == want, case
            assert solve_capacity(inst, "generalized", matrix=matrix).stats == want, case

    def test_highs_starts_with_one_cut_row_per_tool(self, matrices, cuts5, monkeypatch):
        """No HiGHS model of a generalized solve is handed more than one cut
        row per tool at the start."""
        init, started = lp.Handle.__init__, []

        def spy_init(handle, problem, *args, **kwargs):
            init(handle, problem, *args, **kwargs)
            started.append([problem.row_names[i] for i in handle.rows])
            assert handle.highs.getNumRow() == len(handle.rows)

        monkeypatch.setattr(lp.Handle, "__init__", spy_init)
        for case, inst in stats_cases():
            matrix = cuts5[0] if inst.chambers == 5 else matrices[inst.chambers]
            started.clear()
            assert solve_capacity(inst, "generalized", matrix=matrix).status == lp.OPTIMAL
            assert len(started) == 1, case
            cut_tools = [name.split("_k")[0] for name in started[0] if name.startswith("cut_")]
            assert sorted(cut_tools) == [f"cut_t{ti}" for ti in range(len(inst.tools))], case

    @pytest.mark.parametrize("case", sorted(PINNED_INSTANCES))
    def test_products_are_the_full_lp_rows(self, case, matrices):
        """The per-tool template products that pick, certify and report the
        cut rows are the full LP's cut-row left-hand sides bit for bit, and
        the utilization read from them is the full LP's."""
        inst = PINNED_INSTANCES[case]()
        matrix = matrices[inst.chambers]
        full = build_generalized(inst, matrix)
        base = models._generalized(inst, matrix, full=False)
        sol, _, products = models._solve_by_cut_rows(base)
        x = np.array(sol.x)
        x[models.RHO_COL] = 0.0
        lhs = full.problem.matrix @ x
        assert len(products) == len(full.util_rows)
        for got, (_, _, idx) in zip(products, full.util_rows):
            assert got.tobytes() == lhs[idx].tobytes()
        assert models._extract(base, sol, products) == models._extract(
            full, sol, full_lp_lhs(full, sol)
        )


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
    def test_small_fuzz(self, matrices):
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
            cols = {name: j for j, name in enumerate(built.problem.col_names)}
            x = np.array([sol.x[cols[f"agg_t0_{label}"]] for label in matrices[3].labels])
            assert makespan_via_cuts(x, matrices[3]) == pytest.approx(
                sol.objective, abs=1e-6
            )


def reversed_instance(inst):
    """The instance with its tools, jobs, qualifications and overrides in reverse order."""
    return replace(
        inst,
        tools=inst.tools[::-1],
        jobs=inst.jobs[::-1],
        qualifications=inst.qualifications[::-1],
        rate_overrides=inst.rate_overrides[::-1],
    )


def split_instance(inst, ji):
    """Job `ji` as two jobs of half its demand, each qualified as it was."""
    job = inst.jobs[ji]
    halves = [models.Job(f"{job.id}_{half}", job.demand / 2) for half in "ab"]
    jobs = inst.jobs[:ji] + tuple(halves) + inst.jobs[ji + 1 :]

    def split(items):
        return tuple(
            replace(item, job=half.id) for item in items for half in halves if item.job == job.id
        ) + tuple(item for item in items if item.job != job.id)

    return replace(
        inst,
        jobs=jobs,
        qualifications=split(inst.qualifications),
        rate_overrides=split(inst.rate_overrides),
    )


def raised_instance(inst, ji, extra):
    """Job `ji` with `extra` more demand."""
    jobs = list(inst.jobs)
    jobs[ji] = models.Job(jobs[ji].id, jobs[ji].demand + extra)
    return replace(inst, jobs=tuple(jobs))


class TestMetamorphic:
    """Relations between the answers of related instances, for all four
    models: the order of tools, jobs and qualifications does not change rho,
    nor does splitting a job into two halves, and more demand never lowers
    it.  The largest gap measured on such draws is 3.2e-12 relative."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([3, 4]),
        shape=st.sampled_from(SHAPES),
        locked=st.sampled_from([0, 3]),
        density=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    @settings(max_examples=12)
    def test_rho_keeps_its_relations(self, seed, n, shape, locked, density, data, matrices):
        inst = generate(GenParams(0, shape, locked, density, n, seed))
        ji = data.draw(st.integers(0, len(inst.jobs) - 1))
        extra = data.draw(st.floats(1.0, 50.0))
        related = {
            "reversed": reversed_instance(inst),
            "split": split_instance(inst, ji),
            "raised": raised_instance(inst, ji, extra),
        }
        for kind in models.MODEL_KINDS:
            results = {
                name: solve_capacity(case, kind, matrix=matrices[n])
                for name, case in {"base": inst, **related}.items()
            }
            assert all(res.status == lp.OPTIMAL for res in results.values()), kind
            rho = {name: res.rho for name, res in results.items()}
            for name in ("reversed", "split"):
                assert rho[name] == pytest.approx(rho["base"], rel=1e-9, abs=0.0), (kind, name)
            assert rho["raised"] >= rho["base"] * (1 - 1e-9), kind


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_an_instance_without_tools_or_jobs_needs_no_capacity(kind, matrices):
    res = solve_capacity(models.Instance("none", 3, (), (), ()), kind, matrix=matrices[3])
    assert (res.status, res.rho, res.assignments, res.utilization) == (lp.OPTIMAL, 0.0, (), ())


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


def not_optimal(status):
    """A stand-in for `lp._run` whose run ends with `status`."""
    return lambda handle: lp._Answer(status, None, None, None, 0)


class TestOneOutcome:
    """A capacity solve returns a certified Optimal result or raises
    LpSolverError naming the model, the instance and HiGHS's status."""

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_rates_far_below_the_tolerances_raise(self, kind, matrices):
        """HiGHS calls the LP Infeasible, which no capacity LP that builds is."""
        inst = tiny_rates_instance()
        where = " in round 1 of row generation" if kind == "generalized" else ""
        want = f"{kind}[gen_s1_1to4_l3_d2_n4_seed1]: HiGHS ended Infeasible{where}"
        with pytest.raises(LpSolverError, match=re.escape(want)):
            solve_capacity(inst, kind, matrix=matrices[4])

    @pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED])
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_a_first_run_not_optimal_raises(self, kind, status, matrices, monkeypatch):
        monkeypatch.setattr(lp, "_run", not_optimal(status))
        where = " in round 1 of row generation" if kind == "generalized" else ""
        want = f"{kind}[example1]: HiGHS ended {status}{where}"
        with pytest.raises(LpSolverError, match=re.escape(want)):
            solve_capacity(example1_instance(), kind, matrix=matrices[3])

    @pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED])
    def test_a_later_round_not_optimal_raises(self, status, matrices, monkeypatch):
        """example1 takes two rounds of row generation; the second fails."""
        run, runs = lp._run, []

        def second_not_optimal(handle):
            runs.append(handle)
            return not_optimal(status)(handle) if len(runs) == 2 else run(handle)

        monkeypatch.setattr(lp, "_run", second_not_optimal)
        want = f"generalized[example1]: HiGHS ended {status} in round 2 of row generation"
        with pytest.raises(LpSolverError, match=re.escape(want)):
            solve_capacity(example1_instance(), "generalized", matrix=matrices[3])
        assert len(runs) == 2

    def test_a_later_round_breakdown_names_the_round(self, matrices, monkeypatch):
        """A status `Handle.run` raises for itself, such as a time limit,
        names the round it ended as an Infeasible one does."""
        run, runs = lp._run, []

        def second_time_limit(handle):
            runs.append(handle)
            return not_optimal("Time limit reached")(handle) if len(runs) == 2 else run(handle)

        monkeypatch.setattr(lp, "_run", second_time_limit)
        want = (
            "generalized[example1]: solver failure: Time limit reached"
            " in round 2 of row generation"
        )
        with pytest.raises(LpSolverError, match=re.escape(want)):
            solve_capacity(example1_instance(), "generalized", matrix=matrices[3])
        assert len(runs) == 2


class TestSizeFormulas:
    def test_delta_and_gamma_sequences(self):
        deltas = {}
        gammas = {}
        for n in (1, 2, 3, 4):
            pred = predict_sizes("generalized", n, 1, 1, 1)
            deltas[n] = pred.delta_n
            gammas[n] = pred.gamma_n
        assert gammas == {1: 3, 2: 10, 3: 33, 4: 106}
        assert deltas[1] == 0 and deltas[2] == -2 and deltas[4] == 188
        # the reference delta for n=3 is 1; the built matrices give 2 because
        # the reference nonzero tally for n=3 is off by one vs its own table
        assert deltas[3] == 2

    def test_alternative_toy_formula_vs_actual(self, matrices):
        inst = one_tool_instance(
            3, [("j0", 5.0)], [("j0", [(0, 1.0), (1, 1.0), (2, 1.0)])]
        )
        built = build_alternative(inst)
        pred = predict_sizes("alternative", 3, 1, 1, 7)
        assert pred.nonzeros == 48  # reference listing: 2|C| + |I|(1 + 3|R| + 2|E|)
        assert pred.nonzeros_gamma == 47  # reference gamma variant
        # the built row set carries the pairing variables in the makespan row
        # too, hence |E| more entries than the listing
        assert built.stats.nonzeros == 54
        assert built.stats.rows == pred.rows == 16
        assert built.stats.columns == pred.columns == 21

    def test_generalized_toy_counts(self, matrices):
        inst = one_tool_instance(
            3, [("j0", 5.0)], [("j0", [(0, 1.0), (1, 1.0), (2, 1.0)])]
        )
        built = build_generalized(inst, matrices[3])
        pred = predict_sizes("generalized", 3, 1, 1, 7)
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
