"""Capacity-planning LP models for cluster tools with two load locks.

Four model builders share one instance format:

* basic        classical parallel-server load balancing; each job runs its
               full qualified chamber set, load locks ignored.
* serial       every wafer visits all qualified chambers in sequence; the
               slowest chamber sets the tool rate, and each chamber gets its
               own utilization row.
* generalized  per-recipe time variables with one makespan row per reduced
               cut of the doubled recipe graph.  Every tool's cut rows come
               from one cut template, the reduced matrix over the recipe
               slots; `solve_capacity` builds only one of them per tool and
               the others on demand, during row generation.
* alternative  per-recipe time variables plus explicit pairing-time variables
               on the parallelization-graph edges.

The generalized and alternative models bound the same quantity and must agree
on the optimal bottleneck utilization.
"""

from __future__ import annotations

import numbers
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import lp
from .cuts import CutMatrix, build_cut_matrix
from .errors import (
    DomainError, LpSolverError, NotQualifiedError, StructurallyInfeasibleError,
)
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
            if not _is_a(j.demand, numbers.Real) or not 0 <= j.demand <= sys.float_info.max:
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
                if not _is_a(rate, numbers.Real) or not 0 < rate <= sys.float_info.max:
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
            if not _is_a(ov.rate, numbers.Real) or not 0 < ov.rate <= sys.float_info.max:
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
    return _rate_table(inst)[list(inst.pair_rates).index((job, tool)), mask].item()


def _rate_table(inst: Instance) -> np.ndarray:
    """Each qualified pair's recipe rates, one row per pair in `pair_rates`
    order, indexed by recipe mask.  A recipe's pinned rate wins; by default
    it is the sum of its chambers' rates (each chamber processes wafers
    independently), added in ascending chamber order.  The sums come from
    the pairs' chamber rates against the masks' chamber membership, summed
    one chamber at a time: an absent chamber adds 0.0, which changes no
    sum.  Entries of masks outside a pair's chambers are not rates."""
    n, pairs = inst.chambers, inst.pair_rates
    rates = np.fromiter(
        (pair.chamber_rates.get(c, 0.0) for pair in pairs.values() for c in range(n)),
        float,
        len(pairs) * n,
    ).reshape(len(pairs), n)
    member = np.arange(1 << n)[:, None] >> np.arange(n) & 1  # mask, chamber
    table = np.zeros((len(pairs), 1 << n))
    for c in range(n):
        table += rates[:, c, None] * member[:, c]
    for p, pair in enumerate(pairs.values()):
        for mask, rate in pair.overrides.items():
            table[p, mask] = rate
    return table


@dataclass(frozen=True)
class BuiltModel:
    """A built LP plus what result extraction reads back from it.

    `x_cols` maps (job, tool, recipe) to its time column and `rates` to that
    column's wafers per time unit.  `util_rows` holds one (tool, row_kind,
    row range) entry per reported utilization: the model's own
    `... - rho <= 0` rows, whose largest left-hand side is the entry's value.

    A generalized model built for row generation sets `template`, the cut
    template (see `_cut_template`), and `aggs`, each tool's first aggregate
    column.  Its `problem` then holds of each tool's cut rows only the seed
    row, which `util_rows` names; the others are built on demand, as rows
    of the template placed by `_place`.  `stats` always count the full LP.
    """

    kind: str
    problem: lp.LpProblem
    rho_col: int
    x_cols: dict
    agg_cols: dict
    rates: dict
    util_rows: tuple
    stats: lp.SizeStats
    template: lp.Csr | None = None
    aggs: tuple[int, ...] = ()


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
    demand rows.  `recipes(key, pair)` lists the recipes of the pair `key`,
    (job, tool), whose `PairRates` is `pair`, as (label, column name suffix,
    rate).  Demand row j holds job j's time columns, each at its rate, and
    equals the job's demand.  Returns the builder, the time
    columns by (job, tool, recipe) and their rates."""
    missing = inst.unqualified_jobs()
    if missing:
        raise StructurallyInfeasibleError(f"jobs without any qualification: {', '.join(missing)}")
    build = lp.LpBuilder(f"{kind}[{inst.name}]", lp.MINIMIZE)
    build.set_objective([(build.add_var("rho"), 1.0)])
    rates, names, counts = {}, [], []
    for ji, job in enumerate(inst.jobs):
        first = len(names)
        for ti, tool in enumerate(inst.tools):
            pair = inst.pair_rates.get((job.id, tool))
            for label, suffix, rate in recipes((job.id, tool), pair) if pair else ():
                rates[(job.id, tool, label)] = rate
                names.append(f"x_j{ji}_t{ti}{suffix}")
        counts.append(len(names) - first)
    cols = build.add_cols(names)
    names = [f"dem_j{ji}" for ji in range(len(inst.jobs))]
    demands = [job.demand for job in inst.jobs]
    build.add_rows(names, counts, cols, list(rates.values()), lp.EQ, demands)
    return build, dict(zip(rates, cols)), rates


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
    qualified recipe at `pair_rate(key, pair)` (the arguments of `recipes`
    in `_time_columns`); the demand rows; then one block holding, per tool,
    a load row over the tool's time columns and, with `per_chamber`, a row
    per chamber that a pair of the tool qualifies, each column at its rate
    over the chamber's.
    """
    build, x_cols, rates = _time_columns(
        inst,
        kind,
        lambda key, pair: [(label_for_mask(pair.mask), "", pair_rate(key, pair))],
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
    masks = [pair.mask for pair in inst.pair_rates.values()]
    full = _rate_table(inst)[np.arange(len(masks)), masks]
    rates = dict(zip(inst.pair_rates, full.tolist()))
    return _time_model(inst, "basic", lambda key, pair: rates[key])


def build_serial(inst: Instance) -> BuiltModel:
    """Serial-mode model: pair rate is the slowest qualified chamber rate.

    On top of the per-tool rows, each qualified chamber gets a utilization
    row u_{i,v} = sum_j x_{ji} mu_{ji} / mu_{j,(i,v)} <= rho: the wafers sent
    to the tool occupy every chamber for that chamber's own service time.
    """
    return _time_model(inst, "serial", lambda key, pair: min(pair.chamber_rates.values()), True)


def _recipe_model(inst: Instance, kind: str, g: ParallelGraph, tool_rows) -> BuiltModel:
    """Core of `generalized` and `alternative`.

    One time column per qualification-set triple (job, tool, recipe), the
    recipes taken in graph order; the demand rows; then per tool one
    aggregate column per recipe, one block of balance rows (aggregate = sum
    of its time columns), and `tool_rows(build, ti, tool, agg)`.  Given the
    tool's first aggregate column, it adds the tool's other columns and rows
    and returns their utilization entries.
    """
    table = dict(zip(inst.pair_rates, _rate_table(inst).tolist()))

    def recipes(key, pair):
        rate = table[key]
        return [(r.label, "_" + r.label, rate[r.mask]) for r in g.recipes if r.mask & ~pair.mask == 0]

    build, x_cols, rates = _time_columns(inst, kind, recipes)
    members = {}  # (tool, recipe) -> its time columns, in column order
    for (_, tool, label), col in x_cols.items():
        members.setdefault((tool, label), []).append(col)
    agg_cols, util_rows = {}, []
    for ti, tool in enumerate(inst.tools):
        aggs = build.add_cols([f"agg_t{ti}_{label}" for label in g.labels])
        agg_cols.update(((tool, label), agg) for label, agg in zip(g.labels, aggs))
        parts = [members.get((tool, label), []) for label in g.labels]
        cols = [j for agg, part in zip(aggs, parts) for j in (agg, *part)]
        vals = [v for part in parts for v in (1.0, *(-1.0 for _ in part))]
        names = [f"bal_t{ti}_{label}" for label in g.labels]
        build.add_rows(names, [1 + len(part) for part in parts], cols, vals, lp.EQ, 0.0)
        util_rows += tool_rows(build, ti, tool, aggs.start)
    return _finish(kind, build, x_cols, agg_cols, rates, util_rows)


def _cut_template(matrix: CutMatrix) -> lp.Csr:
    """The reduced matrix as one `Csr` of K cut rows over one tool's columns:
    rho at column 0, then recipe slot s at column 1 + s, where slot s is the
    matrix's label s (its pinned digest covers its header, so these are the
    graph's labels in order).  Row k holds cut k's nonzero coefficients in
    slot order, then rho at -1.0, and reads `<= 0`; `_place` puts rows of
    it at a tool's columns of the LP."""
    coeffs = matrix.coeffs
    n_cuts, slots = coeffs.shape
    with_rho = np.hstack((coeffs, np.full((n_cuts, 1), -1.0)))  # rho after the slots
    rows, cols = np.nonzero(with_rho)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(with_rho, axis=1))))
    local = np.where(cols == slots, 0, cols + 1)
    return lp.Csr(indptr, local, with_rho[rows, cols], (n_cuts, 1 + slots))


def _seed_row(template: lp.Csr) -> int:
    """The cut row each tool starts row generation with: the first of those
    with the most 1/2 entries."""
    k = template.shape[0]
    return int(np.argmax(np.bincount(template.entry_rows, template.data == 0.5, k)))


def _place(rows: lp.Csr, aggs, columns: int) -> lp.Csr:
    """Rows of the cut template in an LP of `columns` columns: row i's slot s
    at column aggs[i] + s (`aggs` may be one column for all rows), and rho
    at column 0."""
    m = rows.shape[0]
    first = np.repeat(np.broadcast_to(aggs, m), np.diff(rows.indptr))
    cols = np.where(rows.indices == 0, 0, rows.indices - 1 + first)
    return lp.Csr(rows.indptr, cols, rows.data, (m, columns))


def _generalized(inst: Instance, matrix: CutMatrix, full: bool) -> BuiltModel:
    """The generalized model with every cut row (`full`), or with only each
    tool's seed row and the template to build the others from."""
    if matrix.n != inst.chambers:
        raise DomainError(f"cut matrix is for {matrix.n} chambers, instance has {inst.chambers}")
    if not matrix.reduced:
        raise DomainError("generalized model requires the reduced cut matrix")
    g = build_parallel_graph(inst.chambers)
    template = _cut_template(matrix)
    n_cuts = template.shape[0]
    seed = _seed_row(template)
    ks = range(n_cuts) if full else [seed]
    local = template[ks]
    counts = np.diff(local.indptr)
    aggs = []

    def cut_rows(build: lp.LpBuilder, ti: int, tool: str, agg: int):
        aggs.append(agg)
        # the aggregates of tool ti are the last columns built so far
        rows = _place(local, agg, agg + len(g.labels))
        names = [f"cut_t{ti}_k{k}" for k in ks]
        added = build.add_rows(names, counts, rows.indices, rows.data, lp.LE, 0.0)
        return [(tool, "cut_max", added)]

    model = _recipe_model(inst, "generalized", g, cut_rows)
    if full:
        return model
    # counted from the base LP (the model without its seed rows) and the template
    tools, seed_nnz = len(aggs), int(template.indptr[seed + 1] - template.indptr[seed])
    base_rows = model.stats.rows - tools
    base_nnz = model.stats.nonzeros - tools * seed_nnz
    stats = lp.SizeStats(
        base_rows + tools * n_cuts, model.stats.columns, base_nnz + tools * template.nnz
    )
    return replace(model, stats=stats, template=template, aggs=tuple(aggs))


def build_generalized(inst: Instance, matrix: CutMatrix) -> BuiltModel:
    """Cut-row model: per-recipe aggregate times bounded by every reduced cut.

    Requires the reduced matrix for the instance's chamber count; a matrix
    with `reduced` set has matched its pinned digest (see `cuts.CutMatrix`).
    Tool ti's row of cut k, `cut_t{ti}_k{k}`, is row k of the cut template
    placed at the tool's columns (see `_cut_template` and `_place`).  This
    is the full LP, which `export-lp` writes; `solve_capacity` builds the
    same model with one cut row per tool and adds the others as row
    generation needs them.
    """
    return _generalized(inst, matrix, full=True)


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
        build.add_cols([f"pair_t{ti}_{labels[i]}_{labels[j]}" for i, j in g.edges])
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


def _extract(model: BuiltModel, sol: lp.LpSolution, row_lhs) -> tuple:
    """The assignments with x > 1e-9, and utilization entry i: the largest
    of `row_lhs[i]`, its rows' left-hand sides (rho left out)."""
    x = sol.x
    assignments = tuple(
        Assignment(job, tool, recipe, x[col], x[col] * model.rates[(job, tool, recipe)])
        for (job, tool, recipe), col in model.x_cols.items()
        if x[col] > 1e-9
    )
    utilization = tuple(
        UtilizationEntry(tool, row_kind, float(values.max()))
        for (tool, row_kind, _), values in zip(model.util_rows, row_lhs, strict=True)
    )
    return assignments, utilization


# cut rows added per tool and round of row generation; on the plan-n5
# instances 4 halve the rounds that 1 takes, and 8 save two more rounds at
# a higher peak memory
ROWS_PER_ROUND = 4


def _violated(lhs: np.ndarray, held: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """The (tool, k) pairs of the cut rows to add, tool-major: per row ti of
    `lhs`, up to ROWS_PER_ROUND k not `held` whose lhs[ti, k] exceeds rho by
    more than the feasibility tolerance, most violated first, ties by k."""
    over = (lhs > rho + lp.TOL.feasibility) & ~held
    worst = np.argsort(np.where(over, -lhs, np.inf), axis=1, kind="stable")[:, :ROWS_PER_ROUND]
    tools, picks = np.nonzero(np.take_along_axis(over, worst, axis=1))
    return tools, worst[tools, picks]


def _solve_by_cut_rows(model: BuiltModel) -> tuple[lp.LpSolution, int, np.ndarray | None]:
    """Solve a generalized model, built with its cut template, by row
    generation over its cut rows.

    HiGHS starts with the model's problem: every row that is not a cut row
    and, per tool, the seed cut row.  Each round fills one (tools, K) array
    of cut-row left-hand sides, rho left out: row ti is the template's
    product with tool ti's columns, its aggregate times and rho at 0.0.  It
    adds the rows `_violated` picks from that array, as template rows placed
    at the tools' columns, and re-solves from the last basis.  The answer is
    certified against every bound, every row of the problem and the
    objective, and, from the last array, every cut row of every tool: every
    row of the full LP.  Returns it, with iterations summed over the rounds,
    the number of rounds and, at Optimal, the last array.
    """
    template, aggs = model.template, np.array(model.aggs)
    local = np.zeros(template.shape[1])  # one tool's columns, rho held at 0.0
    lhs = np.empty((len(aggs), template.shape[0]))
    held = np.tile(np.arange(lhs.shape[1]) == _seed_row(template), (len(aggs), 1))
    handle = lp.Handle(model.problem)
    iterations = rounds = 0
    while True:
        sol = handle.run()
        iterations += sol.iterations
        rounds += 1
        if sol.status != lp.OPTIMAL:
            return replace(sol, iterations=iterations), rounds, None
        x = np.array(sol.x)
        rho = x[model.rho_col]
        for ti, agg in enumerate(aggs):
            local[1:] = x[agg : agg + len(local) - 1]
            lhs[ti] = template @ local
        tools, ks = _violated(lhs, held, rho)
        if not ks.size:
            break
        held[tools, ks] = True
        rows = _place(template[ks], aggs[tools], len(x))
        handle.add_rows(rows, np.full(len(ks), -np.inf), np.zeros(len(ks)))
    handle.certify(sol)
    bad = np.argwhere(~(lhs - rho <= lp.TOL.feasibility))  # a held row still violated fails too
    if bad.size:
        ti, k = bad[0]
        violation = lhs[ti, k] - rho
        raise LpSolverError(f"{handle.problem.name}: row cut_t{ti}_k{k} violated by {violation:.3e}")
    return replace(sol, iterations=iterations), rounds, lhs


def solve_capacity(
    inst: Instance,
    kind: str,
    matrix: CutMatrix | None = None,
    cache_dir=None,
) -> CapacityResult:
    """Build and solve one model; wall times are recorded for benchmarking.

    The generalized model is built with one cut row per tool and its cut
    template, and solved by row generation over its cut rows; the others
    are solved in one HiGHS run: the alternative model by IPM with
    crossover, the others by dual simplex.  Either solve also gives
    `_extract` the utilization rows' left-hand sides, rho left out.  `stats`
    count the full LP.
    """
    t0 = time.perf_counter()
    if kind == "generalized":
        if matrix is None:
            matrix = build_cut_matrix(inst.chambers, reduce=True, cache_dir=cache_dir)
        model = _generalized(inst, matrix, full=False)
    else:
        model = build_model(inst, kind)
    t1 = time.perf_counter()
    if kind == "generalized":
        sol, rounds, row_lhs = _solve_by_cut_rows(model)
    else:
        # IPM with crossover is several times faster on the alternative model
        # only; the generalized model is slower under it
        method = lp.IPM if kind == "alternative" else lp.SIMPLEX
        sol, rounds, row_lhs = lp.solve(model.problem, method), 1, None
        if sol.status == lp.OPTIMAL:
            no_rho = np.array(sol.x)
            no_rho[model.rho_col] = 0.0
            lhs = model.problem.matrix @ no_rho
            row_lhs = [lhs[idx] for _, _, idx in model.util_rows]
    t2 = time.perf_counter()
    assignments, utilization = _extract(model, sol, row_lhs) if sol.status == lp.OPTIMAL else ((), ())
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
