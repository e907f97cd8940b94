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
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import lp
from .cuts import CutMatrix, reduced_matrix
from .errors import DomainError, LpSolverError, StructurallyInfeasibleError
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
    """`isinstance` for numbers.Integral or numbers.Real that rejects bools.
    An exact int or float, nearly every value an instance holds, is answered
    without the ABC check."""
    exact = type(value)
    if exact is int or exact is float:
        return exact is int or kind is numbers.Real
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
            mask = 0
            for c, rate in q.chamber_rates:
                if not _is_a(c, numbers.Integral) or not 0 <= c < self.chambers:
                    raise DomainError(f"({q.job}, {q.tool}): chamber index {c!r} out of range")
                if mask >> c & 1:
                    raise DomainError(f"({q.job}, {q.tool}): duplicate chamber {c}")
                if not _is_a(rate, numbers.Real) or not 0 < rate <= sys.float_info.max:
                    raise DomainError(f"({q.job}, {q.tool}): rate must be a finite number > 0")
                mask |= 1 << c
            # the chambers are distinct, so the pairs sort by chamber alone
            pairs[(q.job, q.tool)] = PairRates(mask, dict(sorted(q.chamber_rates)), {})
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


def _chamber_rates(inst: Instance) -> np.ndarray:
    """Each qualified pair's chamber base rates, one row per pair in
    `pair_rates` order, one column per chamber; 0.0 where it is not
    qualified."""
    n, pairs = inst.chambers, inst.pair_rates
    return np.fromiter(
        (pair.chamber_rates.get(c, 0.0) for pair in pairs.values() for c in range(n)),
        float,
        len(pairs) * n,
    ).reshape(len(pairs), n)


def _rate_table(inst: Instance) -> np.ndarray:
    """Each qualified pair's recipe rates, one row per pair in `pair_rates`
    order, indexed by recipe mask.  A recipe's pinned rate wins; by default
    it is the sum of its chambers' rates (each chamber processes wafers
    independently), added in ascending chamber order.  The sums come from
    the pairs' chamber rates against the masks' chamber membership, summed
    one chamber at a time: an absent chamber adds 0.0, which changes no
    sum.  Entries of masks outside a pair's chambers are not rates."""
    n, pairs = inst.chambers, inst.pair_rates
    rates = _chamber_rates(inst)
    member = np.arange(1 << n)[:, None] >> np.arange(n) & 1  # mask, chamber
    table = np.zeros((len(pairs), 1 << n))
    for c in range(n):
        table += rates[:, c, None] * member[:, c]
    for p, pair in enumerate(pairs.values()):
        for mask, rate in pair.overrides.items():
            table[p, mask] = rate
    return table


class TimeColumns(NamedTuple):
    """A model's time columns, one entry per column: entry i is LP column
    1 + i (rho is column RHO_COL).  It runs the recipe of mask `recipe[i]` on the
    qualified pair `pair[i]`, an index into `keys`, the (job, tool) of each
    pair in `Instance.pair_rates` order, at `rate[i]` wafers per time
    unit."""

    keys: tuple[tuple[str, str], ...]
    pair: np.ndarray
    recipe: np.ndarray
    rate: np.ndarray


@dataclass(frozen=True)
class BuiltModel:
    """A built LP plus what result extraction reads back from it.

    `x_cols` is the table of the time columns (see `TimeColumns`).  The
    `generalized` and `alternative` models set `aggs`, each tool's first
    aggregate column: tool ti's aggregate of recipe slot s, the graph's
    recipe s, is column aggs[ti] + s.  One column block holds every tool's
    columns, so aggs[ti] is aggs[0] + ti * (the columns of one tool).
    `util_rows` holds one (tool, row_kind, row range) entry per reported
    utilization: the model's own `... - rho <= 0` rows, whose largest
    left-hand side is the entry's value.

    A generalized model built for row generation sets `template`, the cut
    template (see `_cut_template`).  Its `problem` then holds of each tool's
    cut rows only the seed row, which `util_rows` names; the others are
    built on demand, as rows of the template placed by `_place`.  `stats`
    always count the full LP.
    """

    kind: str
    problem: lp.LpProblem
    x_cols: TimeColumns
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
    """A certified Optimal answer; `status`, always "Optimal", stays for the solution JSON."""

    model: str
    status: str
    rho: float
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
RHO_COL = 0  # rho's column in every model: `_time_columns` adds it first


def _time_columns(inst: Instance, kind: str, rates: np.ndarray, slots=None):
    """A model's LP so far: rho (column RHO_COL), the time columns and the demand
    rows.  Without `slots`, each qualified pair p (in `pair_rates` order)
    has one time column, running its own chamber set at `rates[p]`, named
    `x_j{j}_t{t}` for job j and tool t.  Given the graph's recipe masks
    `slots`, it has one per slot s inside its chamber set, at `rates[p, s]`,
    named `x_j{j}_t{t}_{recipe label}`.  The columns run jobs outer and
    tools inner, each pair's recipes in slot order.  Demand row j holds job
    j's time columns, each at its rate, and equals the job's demand.
    Returns the builder, the time columns' table, and each time column's
    tool index and slot (0 without `slots`)."""
    missing = inst.unqualified_jobs()
    if missing:
        raise StructurallyInfeasibleError(f"jobs without any qualification: {', '.join(missing)}")
    keys = tuple(inst.pair_rates)
    job_index = {job.id: ji for ji, job in enumerate(inst.jobs)}
    tool_index = {tool: ti for ti, tool in enumerate(inst.tools)}
    pair_job = np.array([job_index[job] for job, _ in keys], np.int64)
    pair_tool = np.array([tool_index[tool] for _, tool in keys], np.int64)
    masks = np.array([pair.mask for pair in inst.pair_rates.values()], np.int64)[:, None]
    if slots is None:
        recipes, rates = masks, rates[:, None]
    else:
        recipes = np.where(slots & ~masks == 0, slots, 0)  # 0: no recipe
    order = np.lexsort((pair_tool, pair_job))
    at, slot = np.nonzero(recipes[order] != 0)
    pair = order[at]
    table = TimeColumns(keys, pair, recipes[pair, slot], rates[pair, slot])
    tags = ["" if slots is None else "_" + label_for_mask(m) for m in range(1 << inst.chambers)]

    def names():
        jobs, tools = pair_job[pair].tolist(), pair_tool[pair].tolist()
        return [f"x_j{j}_t{t}{tags[r]}" for j, t, r in zip(jobs, tools, table.recipe.tolist())]

    build = lp.LpBuilder(f"{kind}[{inst.name}]", lp.MINIMIZE)
    build.set_objective([(build.add_var("rho"), 1.0)])
    cols = build.add_cols(lp.Names(len(pair), names))
    counts = np.bincount(pair_job[pair], minlength=len(inst.jobs))
    dem_names = [f"dem_j{ji}" for ji in range(len(inst.jobs))]
    demands = [job.demand for job in inst.jobs]
    build.add_rows(dem_names, counts, cols, table.rate, lp.EQ, demands)
    return build, table, pair_tool[pair], slot


def _names_by_tool(tools: int, parts) -> lp.Names:
    """Per tool ti, the names `{prefix}_t{ti}{suffix}` of each (prefix, suffix) in `parts`."""
    return lp.Names(
        tools * len(parts), lambda: [f"{p}_t{ti}{s}" for ti in range(tools) for p, s in parts]
    )


def _finish(kind, build, table, util_rows, aggs=()) -> BuiltModel:
    problem = build.problem()
    return BuiltModel(
        kind, problem, table, tuple(util_rows), lp.size_stats(problem), aggs=tuple(aggs)
    )


def _time_model(inst: Instance, kind: str, rate: np.ndarray, chamber=None) -> BuiltModel:
    """Core of `basic` and `serial`: one time column per qualified (job,
    tool) pair, running the full qualified recipe at `rate[p]` for pair p in
    `pair_rates` order; the demand rows; then, from one stable sort of all
    tools' entries by (tool, row kind), per tool a load row over the tool's
    time columns and, given the pairs' `chamber` rates (`_chamber_rates`), a
    row per chamber a pair of the tool qualifies, each column at its rate
    over the chamber's; rho last."""
    build, table, col_tool, _ = _time_columns(inst, kind, rate)
    chamber = np.zeros((len(table.pair), 0)) if chamber is None else chamber[table.pair]
    letters = [chamber_letter(c) for c in range(chamber.shape[1])]
    row_kinds = [("load", "", "total_time")] + [("cham", f"_{x}", f"chamber_{x}") for x in letters]
    weight = np.hstack((np.ones((len(col_tool), 1)), chamber))  # row kind 0, then each chamber's
    at, k = np.nonzero(weight > 0.0)  # each row kind's columns in column order
    keys = col_tool[at] * len(row_kinds) + k
    # every tool has a load row, one that no job qualifies `-rho <= 0`
    rows = np.union1d(keys, len(row_kinds) * np.arange(len(inst.tools)))
    keys = np.concatenate((keys, rows))  # rho, after each row's columns
    order = np.argsort(keys, kind="stable")
    cols = np.concatenate((1 + at, np.full(len(rows), RHO_COL)))[order]
    vals = np.where(k == 0, 1.0, table.rate[at] / weight[at, k])
    vals = np.concatenate((vals, np.full(len(rows), -1.0)))[order]
    row_tool, row_kind = (part.tolist() for part in np.divmod(rows, len(row_kinds)))
    tags = [(t, *row_kinds[k]) for t, k in zip(row_tool, row_kind)]
    names = lp.Names(len(rows), lambda: [f"{p}_t{t}{s}" for t, p, s, _ in tags])
    added = build.add_rows(names, np.unique(keys, return_counts=True)[1], cols, vals, lp.LE, 0.0)
    util_rows = [(inst.tools[t], kind, range(i, i + 1)) for (t, _, _, kind), i in zip(tags, added)]
    return _finish(kind, build, table, util_rows)


def build_basic(inst: Instance) -> BuiltModel:
    """Load-lock-free relaxation: one time variable per qualified pair.

    The pair rate is the full qualified-chamber recipe rate; one shared bound
    rho caps every tool's total committed time.
    """
    masks = [pair.mask for pair in inst.pair_rates.values()]
    return _time_model(inst, "basic", _rate_table(inst)[np.arange(len(masks)), masks])


def build_serial(inst: Instance) -> BuiltModel:
    """Serial-mode model: pair rate is the slowest qualified chamber rate.

    On top of the per-tool rows, each qualified chamber gets a utilization
    row u_{i,v} = sum_j x_{ji} mu_{ji} / mu_{j,(i,v)} <= rho: the wafers sent
    to the tool occupy every chamber for that chamber's own service time.
    """
    rates = _chamber_rates(inst)
    return _time_model(inst, "serial", np.where(rates > 0.0, rates, np.inf).min(1), rates)


def _row_entries(col_tool, col_slot, aggs: np.ndarray, n_slots: int, block: lp.Csr) -> tuple:
    """The counts, columns and values of every tool's rows, tool by tool:
    per tool ti its balance rows, row s holding column aggs[ti] + s at 1.0,
    then the time columns of (ti, s) at -1.0 in column order; then the rows
    of `block`, a `Csr` over one tool's local columns (`_local_columns`)."""
    tools = len(aggs)
    key = col_tool * n_slots + col_slot
    sizes = np.bincount(key, minlength=tools * n_slots).reshape(tools, n_slots)
    grouped = 1 + np.argsort(key, kind="stable")  # each (tool, slot) group in column order
    at = np.cumsum(sizes) - sizes.ravel()  # where each group starts
    bal_cols = np.insert(grouped, at, (aggs[:, None] + np.arange(n_slots)).ravel())
    bal_vals = np.insert(np.full(len(grouped), -1.0), at, 1.0)
    at = np.repeat(block.nnz * np.arange(tools), n_slots + sizes.sum(axis=1))  # each tool's start
    cols = np.insert(_local_columns(block.indices, aggs[:, None]).ravel(), at, bal_cols)
    vals = np.insert(np.tile(block.data, tools), at, bal_vals)
    counts = np.hstack((1 + sizes, np.broadcast_to(np.diff(block.indptr), (tools, block.shape[0]))))
    return counts.ravel(), cols, vals


def _recipe_model(
    inst: Instance, kind: str, g: ParallelGraph, block: lp.Csr, row_parts, util, col_parts=()
) -> BuiltModel:
    """Core of `generalized` and `alternative`.

    One time column per qualification-set triple (job, tool, recipe), the
    recipes taken in graph order; the demand rows; per tool its aggregate
    per recipe slot, then a column per (prefix, suffix) of `col_parts`; per
    tool its balance rows, then the rows of `block`, named by `row_parts`
    (see `_row_entries`).  `util` is the (row kind, block rows) of each tool's
    utilization entry."""
    slots = np.array([r.mask for r in g.recipes])
    build, table, col_tool, col_slot = _time_columns(inst, kind, _rate_table(inst)[:, slots], slots)
    tools, n_slots, n_rows = len(inst.tools), len(slots), block.shape[0]
    agg_parts = [("agg", f"_{label}") for label in g.labels]
    first = build.add_cols(_names_by_tool(tools, agg_parts + list(col_parts))).start
    aggs = first + (n_slots + len(col_parts)) * np.arange(tools)
    senses = ([lp.EQ] * n_slots + [lp.LE] * n_rows) * tools
    names = _names_by_tool(tools, [("bal", f"_{label}") for label in g.labels] + list(row_parts))
    entries = _row_entries(col_tool, col_slot, aggs, n_slots, block)
    added = build.add_rows(names, *entries, senses, 0.0)
    row_kind, mine = util
    firsts = added[n_slots + mine.start :: n_slots + n_rows]
    util_rows = [(tool, row_kind, range(i, i + len(mine))) for tool, i in zip(inst.tools, firsts)]
    return _finish(kind, build, table, util_rows, aggs.tolist())


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


def _local_columns(indices: np.ndarray, first) -> np.ndarray:
    """The LP columns of a tool's local columns: 0 (rho) is RHO_COL, c >= 1 is `first` + c - 1."""
    cols = indices - 1 + first
    cols[..., indices == 0] = RHO_COL
    return cols


def _place(rows: lp.Csr, aggs, columns: int) -> lp.Csr:
    """Rows of the cut template in an LP of `columns` columns: row i at the
    local columns of the tool whose first aggregate is aggs[i] (`aggs` may
    be one column for all rows)."""
    m = rows.shape[0]
    first = np.repeat(np.broadcast_to(aggs, m), np.diff(rows.indptr))
    return lp.Csr(rows.indptr, _local_columns(rows.indices, first), rows.data, (m, columns))


def _generalized(inst: Instance, matrix: CutMatrix | None, full: bool) -> BuiltModel:
    """The generalized model with every cut row (`full`), or with only each
    tool's seed row and the template to build the others from.  Without a
    `matrix`, it reads the shipped `reduced_matrix(inst.chambers)`."""
    if matrix is None:
        matrix = reduced_matrix(inst.chambers)
    if matrix.n != inst.chambers:
        raise DomainError(f"cut matrix is for {matrix.n} chambers, instance has {inst.chambers}")
    if not matrix.reduced:
        raise DomainError("generalized model requires the reduced cut matrix")
    g = build_parallel_graph(inst.chambers)
    template = _cut_template(matrix)
    n_cuts = template.shape[0]
    seed = _seed_row(template)
    ks = range(n_cuts) if full else [seed]
    block, util = template[ks], ("cut_max", range(len(ks)))
    model = _recipe_model(inst, "generalized", g, block, [("cut", f"_k{k}") for k in ks], util)
    if full:
        return model
    # the full LP holds every template row of each tool, where this one holds the seed row
    tools, (rows, columns, nonzeros) = len(model.aggs), astuple(model.stats)
    more_nonzeros = tools * (template.nnz - block.nnz)
    stats = lp.SizeStats(rows + tools * (n_cuts - 1), columns, nonzeros + more_nonzeros)
    return replace(model, stats=stats, template=template)


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
    one makespan row total-time-minus-paired-time <= rho.  Every tool holds
    the same block of these rows over its local columns: rho at 0, slot s's
    aggregate at 1 + s, and edge k's pairing column at 1 + S + k (S slots).
    """
    g = build_parallel_graph(inst.chambers)
    labels, incident = g.labels, g.incident
    n_rec, n_edges = len(labels), len(g.edges)
    counts = [len(inc) + 1 for inc in incident] + [n_rec + n_edges + 1]
    cols = [j for r, inc in enumerate(incident) for j in (*(1 + n_rec + k for k in inc), 1 + r)]
    vals = [v for inc in incident for v in (*(1.0 for _ in inc), -1.0)]
    cols += [*range(1, 1 + n_rec + n_edges), 0]
    vals += [1.0] * n_rec + [-1.0] * (n_edges + 1)
    shape = (n_rec + 1, 1 + n_rec + n_edges)
    block = lp.Csr(np.cumsum([0, *counts]), np.array(cols), np.array(vals), shape)
    edges = [("pair", f"_{labels[i]}_{labels[j]}") for i, j in g.edges]
    row_parts = [("par", f"_{label}") for label in labels] + [("mk", "")]
    util = ("makespan", range(n_rec, n_rec + 1))
    return _recipe_model(inst, "alternative", g, block, row_parts, util, edges)


def build_model(inst: Instance, kind: str, matrix: CutMatrix | None = None) -> BuiltModel:
    if kind == "basic":
        return build_basic(inst)
    if kind == "serial":
        return build_serial(inst)
    if kind == "generalized":
        return _generalized(inst, matrix, full=True)
    if kind == "alternative":
        return build_alternative(inst)
    raise DomainError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def _extract(model: BuiltModel, sol: lp.LpSolution, row_lhs) -> tuple:
    """The assignments of the time columns with x > 1e-9, in column order,
    and utilization entry i: the largest of `row_lhs[i]`, its rows'
    left-hand sides (rho left out).  Every field is a plain str or float."""
    table = model.x_cols
    x = np.array(sol.x[1 : 1 + len(table.rate)])
    on = np.flatnonzero(x > 1e-9)
    times = x[on]
    picked = zip(table.pair[on].tolist(), table.recipe[on].tolist())
    assignments = tuple(
        Assignment(*table.keys[p], label_for_mask(r), time, wafers)
        for (p, r), time, wafers in zip(picked, times.tolist(), (times * table.rate[on]).tolist())
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


def _optimal(sol: lp.LpSolution, name: str, round_: int | None = None) -> lp.LpSolution:
    """`sol`, a run of the capacity LP `name` (`{kind}[{instance}]`).  A model that
    builds is feasible (every job has a qualified pair at rates above 0, and rho has
    no upper bound) and bounded (no column is negative), so any status but Optimal
    raises LpSolverError naming the LP, the status and the round of row generation."""
    if sol.status != lp.OPTIMAL:
        where = "" if round_ is None else f" in round {round_} of row generation"
        raise LpSolverError(f"{name}: HiGHS ended {sol.status}{where}")
    return sol


def _solve_by_cut_rows(model: BuiltModel) -> tuple[lp.LpSolution, int, np.ndarray]:
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
    the number of rounds and the last array.
    """
    template, aggs = model.template, np.array(model.aggs)
    local = np.zeros(template.shape[1])  # one tool's columns, rho held at 0.0
    lhs = np.empty((len(aggs), template.shape[0]))
    held = np.tile(np.arange(lhs.shape[1]) == _seed_row(template), (len(aggs), 1))
    handle = lp.Handle(model.problem)
    iterations = rounds = 0
    while True:
        rounds += 1
        try:
            ran = handle.run()
        except LpSolverError as exc:  # a breakdown, which `Handle.run` reports without the round
            raise LpSolverError(f"{exc} in round {rounds} of row generation") from exc
        sol = _optimal(ran, handle.problem.name, rounds)
        iterations += sol.iterations
        x = np.array(sol.x)
        rho = x[RHO_COL]
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
        violation = f"row cut_t{ti}_k{k} violated by {lhs[ti, k] - rho:.3e}"
        raise LpSolverError(f"{handle.problem.name}: {violation}")
    return replace(sol, iterations=iterations), rounds, lhs


def solve_capacity(inst: Instance, kind: str, matrix: CutMatrix | None = None) -> CapacityResult:
    """Build and solve one model; wall times are recorded for benchmarking.

    The generalized model is built with one cut row per tool and its cut
    template, and solved by row generation over its cut rows; the others
    are solved in one HiGHS run: the alternative model by IPM with
    crossover, the others by dual simplex.  Either solve also gives
    `_extract` the utilization rows' left-hand sides, rho left out.  `stats`
    count the full LP.  There are two outcomes: a certified Optimal result,
    whose `status` is kept for the solution JSON, or LpSolverError, also when
    a run ends Infeasible or Unbounded (`_optimal`).
    """
    t0 = time.perf_counter()
    if kind == "generalized":
        model = _generalized(inst, matrix, full=False)
        t1 = time.perf_counter()
        sol, rounds, row_lhs = _solve_by_cut_rows(model)
    else:
        model = build_model(inst, kind)
        t1 = time.perf_counter()
        # IPM with crossover is several times faster on the alternative model
        # only; the generalized model is slower under it
        method = lp.IPM if kind == "alternative" else lp.SIMPLEX
        sol, rounds = _optimal(lp.solve(model.problem, method), model.problem.name), 1
        no_rho = np.array(sol.x)
        no_rho[RHO_COL] = 0.0
        lhs = model.problem.matrix @ no_rho
        row_lhs = [lhs[idx] for _, _, idx in model.util_rows]
    t2 = time.perf_counter()
    assignments, utilization = _extract(model, sol, row_lhs)
    return CapacityResult(
        model=kind,
        status=lp.OPTIMAL,
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


def predict_sizes(kind: str, n: int, n_tools: int, n_jobs: int, n_quals: int) -> SizePrediction:
    """Evaluate the closed-form size formulas for one model family.

    k_rows and coeff_nonzeros come from the shipped reduced matrix of n
    (`reduced_matrix`, n = 1..5), never from a hardcoded table.
    """
    if kind not in ("generalized", "alternative"):
        raise DomainError("size formulas exist for 'generalized' and 'alternative' only")
    matrix = reduced_matrix(n)
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
