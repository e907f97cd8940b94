"""Capacity-planning LP models for cluster tools with two load locks.

Four model builders share one instance format:

* basic        classical parallel-server load balancing; each job runs its
               full qualified chamber set, load locks ignored.
* serial       every wafer visits all qualified chambers in sequence; the
               slowest chamber sets the tool rate, and each chamber gets its
               own utilization row.
* generalized  per-recipe time variables with one makespan row per reduced
               cut of the doubled recipe graph.
* alternative  per-recipe time variables plus explicit pairing-time variables
               on the parallelization-graph edges.

The generalized and alternative models bound the same quantity and must agree
on the optimal bottleneck utilization.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import lp
from .cuts import CutMatrix, build_cut_matrix
from .errors import DomainError, NotQualifiedError, StructurallyInfeasibleError
from .recipes import (
    MAX_CHAMBERS, RECIPE_MASKS, ParallelGraph, build_parallel_graph, chamber_letter,
    label_for_mask, predict_graph_counts,
)


@dataclass(frozen=True)
class Job:
    id: str
    demand: float


@dataclass(frozen=True)
class Qualification:
    """Chamber rates for one (job, tool) pair; absent chambers are locked."""

    job: str
    tool: str
    chamber_rates: tuple[tuple[int, float], ...]  # (chamber index, wafers/time)


@dataclass(frozen=True)
class RateOverride:
    """A pinned (job, tool, recipe) rate; `recipe` is a canonical label."""

    job: str
    tool: str
    recipe: str
    rate: float


@dataclass(frozen=True)
class PairRates:
    """Rates of one qualified (job, tool) pair: `mask` is its chamber set,
    `chamber_rates` maps those chambers, ascending, to their base rates, and
    `overrides` maps recipe masks to pinned rates."""

    mask: int
    chamber_rates: dict[int, float]
    overrides: dict[int, float]

    def rate(self, recipe: int) -> float:
        """The pinned rate of a recipe mask within `mask`, else the sum of its
        chamber rates (each chamber processes wafers independently)."""
        pinned = self.overrides.get(recipe)
        if pinned is not None:
            return pinned
        return sum(r for c, r in self.chamber_rates.items() if recipe >> c & 1)


def _is_a(value, kind) -> bool:
    """`isinstance` for numbers.Integral or numbers.Real that rejects bools."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class Instance:
    """A validated instance; `pair_rates` indexes every qualified (job, tool)
    pair, in qualification order."""

    name: str
    chambers: int
    tools: tuple[str, ...]
    jobs: tuple[Job, ...]
    qualifications: tuple[Qualification, ...]
    rate_overrides: tuple[RateOverride, ...] = ()
    pair_rates: dict[tuple[str, str], PairRates] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_a(self.chambers, numbers.Integral) or not 1 <= self.chambers <= MAX_CHAMBERS:
            raise DomainError(f"chamber count must be an integer in 1..{MAX_CHAMBERS}")
        if len(set(self.tools)) != len(self.tools):
            raise DomainError("duplicate tool id")
        if len({j.id for j in self.jobs}) != len(self.jobs):
            raise DomainError("duplicate job id")
        jobs = {j.id for j in self.jobs}
        tools = set(self.tools)
        for j in self.jobs:
            if not _is_a(j.demand, numbers.Real) or not 0 <= j.demand < math.inf:
                raise DomainError(f"job {j.id}: demand must be a finite number >= 0")
        pairs = {}
        for q in self.qualifications:
            if q.job not in jobs:
                raise DomainError(f"qualification references unknown job {q.job!r}")
            if q.tool not in tools:
                raise DomainError(f"qualification references unknown tool {q.tool!r}")
            if (q.job, q.tool) in pairs:
                raise DomainError(f"duplicate qualification for ({q.job}, {q.tool})")
            if not q.chamber_rates:
                raise DomainError(f"qualification ({q.job}, {q.tool}) lists no chambers")
            rates = {}
            for c, rate in q.chamber_rates:
                if not _is_a(c, numbers.Integral) or not 0 <= c < self.chambers:
                    raise DomainError(f"({q.job}, {q.tool}): chamber index {c!r} out of range")
                if c in rates:
                    raise DomainError(f"({q.job}, {q.tool}): duplicate chamber {c}")
                if not _is_a(rate, numbers.Real) or not 0 < rate < math.inf:
                    raise DomainError(f"({q.job}, {q.tool}): rate must be a finite number > 0")
                rates[c] = rate
            mask = sum(1 << c for c in rates)
            pairs[(q.job, q.tool)] = PairRates(mask, dict(sorted(rates.items())), {})
        for k, ov in enumerate(self.rate_overrides):
            where = f"rate override {k} ({ov.job}, {ov.tool}, {ov.recipe!r})"
            pair = pairs.get((ov.job, ov.tool))
            if pair is None:
                raise DomainError(f"{where}: references an unqualified pair")
            mask = RECIPE_MASKS.get(ov.recipe) if isinstance(ov.recipe, str) else None
            if mask is None:
                raise DomainError(f"{where}: recipe is not a canonical label")
            if mask & ~pair.mask:
                raise DomainError(f"{where}: recipe outside the qualified chambers")
            if mask in pair.overrides:
                raise DomainError(f"{where}: duplicate of an earlier override")
            if not _is_a(ov.rate, numbers.Real) or not 0 < ov.rate < math.inf:
                raise DomainError(f"{where}: rate must be a finite number > 0")
            pair.overrides[mask] = ov.rate
        object.__setattr__(self, "pair_rates", pairs)

    def unqualified_jobs(self) -> tuple[str, ...]:
        """Jobs that reach no (tool, chamber); no model can serve them."""
        qualified = {job for job, _ in self.pair_rates}
        return tuple(j.id for j in self.jobs if j.id not in qualified)


def derive_recipe_rate(inst: Instance, job: str, tool: str, recipe: str) -> float:
    """Wafers per time unit for running `recipe` of (job, tool).

    The triple belongs to the qualification set only when `recipe` is a
    canonical label whose chambers are all qualified for the pair; otherwise
    NotQualifiedError.  An explicit override wins; the default is the sum of
    the chamber base rates in ascending chamber order.
    """
    pair = inst.pair_rates.get((job, tool))
    if pair is None:
        raise NotQualifiedError(f"({job}, {tool}) is not qualified")
    mask = RECIPE_MASKS.get(recipe)
    if mask is None or mask & ~pair.mask:
        raise NotQualifiedError(f"({job}, {tool}, {recipe!r}) is outside the qualification set")
    return pair.rate(mask)


@dataclass(frozen=True)
class BuiltModel:
    """A built LP plus what result extraction reads back from it.

    `x_cols` maps (job, tool, recipe) to its time column and `rates` to that
    column's wafers per time unit.  `util_rows` holds one (tool, row_kind,
    row range) entry per reported utilization: the model's own
    `... - rho <= 0` rows, whose largest left-hand side is the entry's value.
    """

    kind: str
    problem: lp.LpProblem
    rho_col: int
    x_cols: dict
    agg_cols: dict
    rates: dict
    util_rows: tuple
    stats: lp.SizeStats


@dataclass(frozen=True)
class Assignment:
    job: str
    tool: str
    recipe: str
    time: float
    wafers: float


@dataclass(frozen=True)
class UtilizationEntry:
    tool: str
    row_kind: str
    value: float


@dataclass(frozen=True)
class CapacityResult:
    model: str
    status: str
    rho: float | None
    assignments: tuple[Assignment, ...]
    utilization: tuple[UtilizationEntry, ...]
    build_ms: float
    solve_ms: float
    stats: lp.SizeStats
    iterations: int  # HiGHS iterations, summed over rounds
    rounds: int  # HiGHS runs: 1, or the rounds of row generation

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "status": self.status,
            "rho": self.rho,
            "assignments": [asdict(a) for a in self.assignments],
            "utilization": [asdict(u) for u in self.utilization],
        }


MODEL_KINDS = ("basic", "serial", "generalized", "alternative")


def _time_columns(inst: Instance, kind: str, recipes):
    """A model's LP so far: rho (column 0), one time column per (job, tool,
    recipe) for each qualified pair, jobs outer and tools inner, and the
    demand rows.  `recipes(pair)` lists a pair's recipes as (label, column
    name suffix, rate).  Demand row j holds job j's time columns, each at
    its rate, and equals the job's demand.  Returns the builder, the time
    columns by (job, tool, recipe) and their rates."""
    missing = inst.unqualified_jobs()
    if missing:
        raise StructurallyInfeasibleError(f"jobs without any qualification: {', '.join(missing)}")
    build = lp.LpBuilder(f"{kind}[{inst.name}]", lp.MINIMIZE)
    build.set_objective([(build.add_var("rho"), 1.0)])
    x_cols, rates, counts = {}, {}, []
    for ji, job in enumerate(inst.jobs):
        first = len(x_cols)
        for ti, tool in enumerate(inst.tools):
            pair = inst.pair_rates.get((job.id, tool))
            for label, suffix, rate in recipes(pair) if pair else ():
                x_cols[(job.id, tool, label)] = build.add_var(f"x_j{ji}_t{ti}{suffix}")
                rates[(job.id, tool, label)] = rate
        counts.append(len(x_cols) - first)
    names = [f"dem_j{ji}" for ji in range(len(inst.jobs))]
    demands = [job.demand for job in inst.jobs]
    build.add_rows(names, counts, range(1, len(x_cols) + 1), list(rates.values()), lp.EQ, demands)
    return build, x_cols, rates


def _rho_rows(build: lp.LpBuilder, rows) -> list:
    """One block of rows `columns . values - rho <= 0` from (tool, row kind,
    name, columns, values); returns each row's utilization entry."""
    tools, kinds, names, cols, vals = zip(*rows)
    counts = [len(c) + 1 for c in cols]
    flat_cols = [j for c in cols for j in (*c, 0)]
    flat_vals = [v for vs in vals for v in (*vs, -1.0)]
    idx = build.add_rows(names, counts, flat_cols, flat_vals, lp.LE, 0.0)
    return [(tool, kind, range(i, i + 1)) for tool, kind, i in zip(tools, kinds, idx)]


def _finish(kind, build, x_cols, agg_cols, rates, util_rows) -> BuiltModel:
    problem = build.problem()
    return BuiltModel(
        kind, problem, 0, x_cols, agg_cols, rates, tuple(util_rows), lp.size_stats(problem)
    )


def _time_model(inst: Instance, kind: str, pair_rate, per_chamber=False) -> BuiltModel:
    """Core of `basic` and `serial`.

    One time column per qualified (job, tool) pair, running the full
    qualified recipe at `pair_rate(pair_rates)`; the demand rows; then one
    block holding, per tool, a load row over the tool's time columns and,
    with `per_chamber`, a row per chamber that a pair of the tool qualifies,
    each column at its rate over the chamber's.
    """
    build, x_cols, rates = _time_columns(
        inst, kind, lambda pair: [(label_for_mask(pair.mask), "", pair_rate(pair))]
    )
    by_tool = {tool: [] for tool in inst.tools}
    for key in x_cols:
        by_tool[key[1]].append(key)
    rows = []
    for ti, tool in enumerate(inst.tools):
        pairs = [(x_cols[k], rates[k], inst.pair_rates[k[:2]].chamber_rates) for k in by_tool[tool]]
        cols = [col for col, _, _ in pairs]
        rows.append((tool, "total_time", f"load_t{ti}", cols, [1.0] * len(cols)))
        for c in range(inst.chambers if per_chamber else 0):
            terms = [(col, rate / chamber[c]) for col, rate, chamber in pairs if c in chamber]
            if terms:
                letter = chamber_letter(c)
                rows.append((tool, f"chamber_{letter}", f"cham_t{ti}_{letter}", *zip(*terms)))
    return _finish(kind, build, x_cols, {}, rates, _rho_rows(build, rows))


def build_basic(inst: Instance) -> BuiltModel:
    """Load-lock-free relaxation: one time variable per qualified pair.

    The pair rate is the full qualified-chamber recipe rate; one shared bound
    rho caps every tool's total committed time.
    """
    return _time_model(inst, "basic", lambda pair: pair.rate(pair.mask))


def build_serial(inst: Instance) -> BuiltModel:
    """Serial-mode model: pair rate is the slowest qualified chamber rate.

    On top of the per-tool rows, each qualified chamber gets a utilization
    row u_{i,v} = sum_j x_{ji} mu_{ji} / mu_{j,(i,v)} <= rho: the wafers sent
    to the tool occupy every chamber for that chamber's own service time.
    """
    return _time_model(inst, "serial", lambda pair: min(pair.chamber_rates.values()), True)


def _recipe_model(inst: Instance, kind: str, g: ParallelGraph, tool_rows) -> BuiltModel:
    """Core of `generalized` and `alternative`.

    One time column per qualification-set triple (job, tool, recipe), the
    recipes taken in graph order; the demand rows; then per tool one
    aggregate column per recipe, one block of balance rows (aggregate = sum
    of its time columns), and `tool_rows(build, ti, tool, agg)`.  Given the
    tool's first aggregate column, it adds the tool's other columns and rows
    and returns their utilization entries.
    """
    build, x_cols, rates = _time_columns(
        inst,
        kind,
        lambda pair: [
            (r.label, "_" + r.label, pair.rate(r.mask))
            for r in g.recipes
            if r.mask & ~pair.mask == 0
        ],
    )
    members = {}  # (tool, recipe) -> its time columns, in column order
    for (_, tool, label), col in x_cols.items():
        members.setdefault((tool, label), []).append(col)
    agg_cols, util_rows = {}, []
    for ti, tool in enumerate(inst.tools):
        cols, vals, counts = [], [], []
        for label in g.labels:
            agg_cols[(tool, label)] = build.add_var(f"agg_t{ti}_{label}")
            parts = members.get((tool, label), [])
            cols += [agg_cols[(tool, label)], *parts]
            vals += [1.0] + [-1.0] * len(parts)
            counts.append(1 + len(parts))
        names = [f"bal_t{ti}_{label}" for label in g.labels]
        build.add_rows(names, counts, cols, vals, lp.EQ, 0.0)
        util_rows += tool_rows(build, ti, tool, agg_cols[(tool, g.labels[0])])
    return _finish(kind, build, x_cols, agg_cols, rates, util_rows)


def build_generalized(inst: Instance, matrix: CutMatrix) -> BuiltModel:
    """Cut-row model: per-recipe aggregate times bounded by every reduced cut.

    Requires the reduced matrix for the instance's chamber count; a matrix
    with `reduced` set has matched its pinned digest (see `cuts.CutMatrix`).
    """
    if matrix.n != inst.chambers:
        raise DomainError(f"cut matrix is for {matrix.n} chambers, instance has {inst.chambers}")
    if not matrix.reduced:
        raise DomainError("generalized model requires the reduced cut matrix")
    g = build_parallel_graph(inst.chambers)
    # one row per cut: its nonzero coefficients in label order, then rho,
    # which stands in the block's last column
    block = np.hstack((matrix.coeffs, np.full((len(matrix.rows), 1), -1.0)))
    counts = np.count_nonzero(block, axis=1)
    rows, slots = np.nonzero(block)
    vals = block[rows, slots]
    offsets = np.array([g.labels.index(label) for label in matrix.labels])

    def cut_rows(build: lp.LpBuilder, ti: int, tool: str, agg: int):
        cols = np.append(agg + offsets, 0)
        names = [f"cut_t{ti}_k{k}" for k in range(len(counts))]
        return [(tool, "cut_max", build.add_rows(names, counts, cols[slots], vals, lp.LE, 0.0))]

    return _recipe_model(inst, "generalized", g, cut_rows)


def build_alternative(inst: Instance) -> BuiltModel:
    """Edge-variable model: pairing times on the parallelization graph.

    Per tool: availability rows cap each recipe's incident pairing time, and
    one makespan row total-time-minus-paired-time <= rho.
    """
    g = build_parallel_graph(inst.chambers)
    labels, incident = g.labels, g.incident
    n_rec, n_edges = len(labels), len(g.edges)
    # availability row r by column offset from the tool's first aggregate
    # column: the pairing columns of its edges (after the aggregates), then
    # its own aggregate
    par_counts = [len(inc) + 1 for inc in incident]
    par_cols = np.array(
        [j for r, inc in enumerate(incident) for j in (*(n_rec + k for k in inc), r)]
    )
    par_vals = np.array([v for inc in incident for v in (*(1.0 for _ in inc), -1.0)])
    mk_vals = [1.0] * n_rec + [-1.0] * n_edges

    def pairing_rows(build: lp.LpBuilder, ti: int, tool: str, agg: int):
        for i, j in g.edges:
            build.add_var(f"pair_t{ti}_{labels[i]}_{labels[j]}")
        names = [f"par_t{ti}_{label}" for label in labels]
        build.add_rows(names, par_counts, agg + par_cols, par_vals, lp.LE, 0.0)
        mk_cols = range(agg, agg + n_rec + n_edges)  # the aggregates, then the pairings
        return _rho_rows(build, [(tool, "makespan", f"mk_t{ti}", mk_cols, mk_vals)])

    return _recipe_model(inst, "alternative", g, pairing_rows)


def build_model(
    inst: Instance,
    kind: str,
    matrix: CutMatrix | None = None,
    cache_dir=None,
) -> BuiltModel:
    if kind == "basic":
        return build_basic(inst)
    if kind == "serial":
        return build_serial(inst)
    if kind == "generalized":
        if matrix is None:
            matrix = build_cut_matrix(inst.chambers, reduce=True, cache_dir=cache_dir)
        return build_generalized(inst, matrix)
    if kind == "alternative":
        return build_alternative(inst)
    raise DomainError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def _extract(model: BuiltModel, sol: lp.LpSolution) -> tuple:
    x = sol.x
    assignments = tuple(
        Assignment(job, tool, recipe, x[col], x[col] * model.rates[(job, tool, recipe)])
        for (job, tool, recipe), col in model.x_cols.items()
        if x[col] > 1e-9
    )
    no_rho = np.array(x)
    no_rho[model.rho_col] = 0.0
    lhs = model.problem.matrix @ no_rho
    utilization = tuple(
        UtilizationEntry(tool, row_kind, float(lhs[idx].max()))
        for tool, row_kind, idx in model.util_rows
    )
    return assignments, utilization


# cut rows added per tool and round of row generation; on the plan-n5
# instances 4 halve the rounds that 1 takes, and 8 save two more rounds at
# a higher peak memory
ROWS_PER_ROUND = 4


def _solve_by_cut_rows(model: BuiltModel) -> tuple[lp.LpSolution, int]:
    """Solve a generalized model by row generation over its cut rows.

    HiGHS starts with every row that is not a cut row and, per tool, the cut
    row with the most 1/2 entries.  Each round adds, per tool, up to
    ROWS_PER_ROUND cut rows not yet held whose left-hand side (rho left out)
    exceeds rho by more than the feasibility tolerance, most violated first,
    and re-solves from the last basis.  The answer is certified against
    every row of the full LP.  Returns it, with iterations summed over the
    rounds, and the number of rounds.
    """
    a = model.problem.matrix
    m = a.shape[0]
    ranges = [idx for _, _, idx in model.util_rows]  # one block of cut rows per tool
    halves = np.bincount(np.repeat(np.arange(m), np.diff(a.indptr)), a.data == 0.5, m)
    held = np.ones(m, dtype=bool)
    for r in ranges:
        held[r.start : r.stop] = False
    held[[r.start + int(np.argmax(halves[r.start : r.stop])) for r in ranges]] = True
    handle = lp.Handle.of(model.problem, np.flatnonzero(held))
    iterations = rounds = 0
    while True:
        sol = handle.run()
        iterations += sol.iterations
        rounds += 1
        if sol.status != lp.OPTIMAL:
            break
        x = np.array(sol.x)
        rho = x[model.rho_col]
        x[model.rho_col] = 0.0
        lhs = a @ x
        new = []
        for r in ranges:
            block = lhs[r.start : r.stop]
            over = np.flatnonzero((block > rho + lp.TOL.feasibility) & ~held[r.start : r.stop])
            worst = over[np.argsort(-block[over], kind="stable")[:ROWS_PER_ROUND]]
            new += (r.start + worst).tolist()
        if not new:
            handle.certify(sol)  # a held row that is still violated fails here
            break
        held[new] = True
        handle.add_rows(new)
    return replace(sol, iterations=iterations), rounds


def solve_capacity(
    inst: Instance,
    kind: str,
    matrix: CutMatrix | None = None,
    cache_dir=None,
) -> CapacityResult:
    """Build and solve one model; wall times are recorded for benchmarking.

    The generalized model is solved by row generation over its cut rows,
    the others in one HiGHS run: the alternative model by IPM with
    crossover, the others by dual simplex.
    """
    t0 = time.perf_counter()
    model = build_model(inst, kind, matrix=matrix, cache_dir=cache_dir)
    t1 = time.perf_counter()
    if kind == "generalized":
        sol, rounds = _solve_by_cut_rows(model)
    else:
        # IPM with crossover is several times faster on the alternative model
        # only; the generalized model is slower under it
        method = lp.IPM if kind == "alternative" else lp.SIMPLEX
        sol, rounds = lp.solve(model.problem, method), 1
    t2 = time.perf_counter()
    assignments, utilization = _extract(model, sol) if sol.status == lp.OPTIMAL else ((), ())
    return CapacityResult(
        model=kind,
        status=sol.status,
        rho=sol.objective,
        assignments=assignments,
        utilization=utilization,
        build_ms=(t1 - t0) * 1e3,
        solve_ms=(t2 - t1) * 1e3,
        stats=model.stats,
        iterations=sol.iterations,
        rounds=rounds,
    )


@dataclass(frozen=True)
class SizePrediction:
    """Reference closed-form size formulas next to matrix-derived tallies.

    For the alternative model two reference nonzero counts circulate that
    disagree with each other (the term listing vs gamma_n); both are kept.
    Actual counts from built problems are the ground truth and are reported
    alongside by callers.
    """

    kind: str
    columns: int
    rows: int
    nonzeros: int
    nonzeros_gamma: int | None
    k_rows: int
    coeff_nonzeros: int
    delta_n: int
    gamma_n: int


def gamma_formula(n: int) -> int:
    return (3 ** (n + 1) - 2 ** (n + 1) + 1) // 2


def predict_sizes(
    kind: str, n: int, n_tools: int, n_jobs: int, n_quals: int, cache_dir=None
) -> SizePrediction:
    """Evaluate the closed-form size formulas for one model family.

    k_rows and coeff_nonzeros come from the built reduced matrix (n <= 5 is
    practical), never from a hardcoded table.
    """
    if kind not in ("generalized", "alternative"):
        raise DomainError("size formulas exist for 'generalized' and 'alternative' only")
    matrix = build_cut_matrix(n, reduce=True, cache_dir=cache_dir)
    n_recipes, n_edges = predict_graph_counts(n)
    k_rows = len(matrix.rows)
    coeff_nz = matrix.nonzeros()
    delta_n = 1 + k_rows + coeff_nz - 3**n
    gamma_n = gamma_formula(n)
    columns = 1 + n_quals + n_tools * (3**n - 1) // 2
    if kind == "generalized":
        rows = n_jobs + n_tools * (n_recipes + k_rows)
        nonzeros = 2 * n_quals + n_tools * (n_recipes + 1 + k_rows + coeff_nz)
        nonzeros_gamma = None
    else:
        rows = n_jobs + n_tools * (1 + 2 * n_recipes)
        nonzeros = 2 * n_quals + n_tools * (1 + 3 * n_recipes + 2 * n_edges)
        nonzeros_gamma = 2 * n_quals + n_tools * gamma_n
    return SizePrediction(
        kind=kind,
        columns=columns,
        rows=rows,
        nonzeros=nonzeros,
        nonzeros_gamma=nonzeros_gamma,
        k_rows=k_rows,
        coeff_nonzeros=coeff_nz,
        delta_n=delta_n,
        gamma_n=gamma_n,
    )
