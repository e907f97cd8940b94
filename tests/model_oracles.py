"""Slow references for the models: their time columns, built one Python
step per (job, tool, recipe) triple, against which the column table is
checked; the rate of one such triple; and each model's per-tool rows, built
one tool at a time, against which the array placement of every tool's rows
is checked."""

from dataclasses import replace

import numpy as np

from clustercap import lp, models
from clustercap.errors import DomainError
from clustercap.recipes import RECIPE_MASKS, build_parallel_graph, chamber_letter, label_for_mask


class NotQualifiedError(DomainError):
    """A (job, tool, recipe) triple outside the qualification set was queried."""


def derive_recipe_rate(inst, job: str, tool: str, recipe: str) -> float:
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
    return models._rate_table(inst)[list(inst.pair_rates).index((job, tool)), mask].item()


def reference_columns(inst, kind):
    """The time columns of a model of `kind`, built one at a time: their LP
    columns and rates by (job, tool, recipe), and their names in column
    order.  Jobs run outer and tools inner; a pair of `basic` or `serial`
    has one column, running its own chamber set, and a pair of the recipe
    models one per graph recipe inside its chamber set, in graph order."""
    table = dict(zip(inst.pair_rates, models._rate_table(inst).tolist()))
    graph = build_parallel_graph(inst.chambers)
    cols, rates, names = {}, {}, []
    for ji, job in enumerate(inst.jobs):
        for ti, tool in enumerate(inst.tools):
            key = (job.id, tool)
            pair = inst.pair_rates.get(key)
            if pair is None:
                continue
            if kind == "basic":
                recipes = [(label_for_mask(pair.mask), "", table[key][pair.mask])]
            elif kind == "serial":
                recipes = [(label_for_mask(pair.mask), "", min(pair.chamber_rates.values()))]
            else:
                recipes = [
                    (r.label, "_" + r.label, table[key][r.mask])
                    for r in graph.recipes
                    if r.mask & ~pair.mask == 0
                ]
            for label, suffix, rate in recipes:
                cols[(job.id, tool, label)] = 1 + len(names)
                rates[(job.id, tool, label)] = rate
                names.append(f"x_j{ji}_t{ti}{suffix}")
    return cols, rates, names


def table_columns(built):
    """The built model's time columns, from its column table, as the
    reference gives them: LP columns and rates by (job, tool, recipe)."""
    table = built.x_cols
    keys = [
        (*table.keys[p], label_for_mask(r))
        for p, r in zip(table.pair.tolist(), table.recipe.tolist())
    ]
    cols = {key: 1 + i for i, key in enumerate(keys)}
    return cols, dict(zip(keys, table.rate.tolist()))


def _tool_names(prefix, ti, parts):
    """The names `{prefix}_t{ti}_{part}` of a block of tool ti, one per part."""
    return lp.Names(len(parts), lambda: [f"{prefix}_t{ti}_{part}" for part in parts])


def _rho_rows(build, rows):
    """One block of rows `columns . values - rho <= 0` from (tool, row kind,
    name, columns, values); returns each row's utilization entry."""
    if not rows:  # an instance without tools
        return []
    tools, kinds, names, cols, vals = zip(*rows)
    counts = [len(c) + 1 for c in cols]
    flat_cols = np.concatenate([part for c in cols for part in (c, [0])])
    flat_vals = np.concatenate([part for v in vals for part in (v, [-1.0])])
    idx = build.add_rows(names, counts, flat_cols, flat_vals, lp.LE, 0.0)
    return [(tool, kind, range(i, i + 1)) for tool, kind, i in zip(tools, kinds, idx)]


def _time_model(inst, kind, rate, chamber=None):
    """`basic` and `serial` row by row: per tool, a load row over the tool's
    time columns, then a row per chamber that a pair of the tool qualifies."""
    build, table, col_tool, _ = models._time_columns(inst, kind, rate)
    chamber = np.zeros((len(table.pair), 0)) if chamber is None else chamber[table.pair]
    rows = []
    for ti, tool in enumerate(inst.tools):
        mine = np.flatnonzero(col_tool == ti)
        rows.append((tool, "total_time", f"load_t{ti}", 1 + mine, np.ones(len(mine))))
        for c in range(chamber.shape[1]):
            on = mine[chamber[mine, c] > 0.0]
            if on.size:
                letter = chamber_letter(c)
                terms = 1 + on, table.rate[on] / chamber[on, c]
                rows.append((tool, f"chamber_{letter}", f"cham_t{ti}_{letter}", *terms))
    return models._finish(kind, build, table, _rho_rows(build, rows))


def _recipe_model(inst, kind, g, tool_rows):
    """`generalized` and `alternative` tool by tool: the tool's aggregate
    columns, its balance rows, then `tool_rows(build, ti, tool, agg)`."""
    slots = np.array([r.mask for r in g.recipes])
    rates = models._rate_table(inst)[:, slots]
    build, table, col_tool, col_slot = models._time_columns(inst, kind, rates, slots)
    grouped = 1 + np.lexsort((col_slot, col_tool))
    sizes = np.bincount(col_tool * len(slots) + col_slot, minlength=len(inst.tools) * len(slots))
    sizes = sizes.reshape(len(inst.tools), len(slots))
    groups = np.split(grouped, np.cumsum(sizes.sum(axis=1))[:-1])
    aggs, util_rows = [], []
    for ti, (tool, group) in enumerate(zip(inst.tools, groups)):
        agg = build.add_cols(_tool_names("agg", ti, g.labels)).start
        at = np.cumsum(sizes[ti]) - sizes[ti]
        cols = np.insert(group, at, agg + np.arange(len(slots)))
        vals = np.insert(np.full(len(group), -1.0), at, 1.0)
        build.add_rows(_tool_names("bal", ti, g.labels), 1 + sizes[ti], cols, vals, lp.EQ, 0.0)
        aggs.append(agg)
        util_rows += tool_rows(build, ti, tool, agg)
    return models._finish(kind, build, table, util_rows, aggs)


def _generalized(inst, matrix, full):
    """The generalized model with a closure that places the tool's cut rows."""
    g = build_parallel_graph(inst.chambers)
    template = models._cut_template(matrix)
    n_cuts = template.shape[0]
    seed = models._seed_row(template)
    ks = range(n_cuts) if full else [seed]
    local = template[ks]
    counts = np.diff(local.indptr)
    parts = [f"k{k}" for k in ks]

    def cut_rows(build, ti, tool, agg):
        rows = models._place(local, agg, agg + len(g.labels))
        names = _tool_names("cut", ti, parts)
        added = build.add_rows(names, counts, rows.indices, rows.data, lp.LE, 0.0)
        return [(tool, "cut_max", added)]

    model = _recipe_model(inst, "generalized", g, cut_rows)
    if full:
        return model
    tools, seed_nnz = len(model.aggs), int(template.indptr[seed + 1] - template.indptr[seed])
    base_rows = model.stats.rows - tools
    base_nnz = model.stats.nonzeros - tools * seed_nnz
    stats = lp.SizeStats(
        base_rows + tools * n_cuts, model.stats.columns, base_nnz + tools * template.nnz
    )
    return replace(model, stats=stats, template=template)


def _alternative(inst):
    """The alternative model with a closure that adds the tool's pairing
    columns, availability rows and makespan row."""
    g = build_parallel_graph(inst.chambers)
    labels, incident = g.labels, g.incident
    n_rec, n_edges = len(labels), len(g.edges)
    par_counts = [len(inc) + 1 for inc in incident]
    par_cols = np.array(
        [j for r, inc in enumerate(incident) for j in (*(n_rec + k for k in inc), r)]
    )
    par_vals = np.array([v for inc in incident for v in (*(1.0 for _ in inc), -1.0)])
    mk_vals = [1.0] * n_rec + [-1.0] * n_edges
    edges = [f"{labels[i]}_{labels[j]}" for i, j in g.edges]

    def pairing_rows(build, ti, tool, agg):
        build.add_cols(_tool_names("pair", ti, edges))
        names = _tool_names("par", ti, labels)
        build.add_rows(names, par_counts, agg + par_cols, par_vals, lp.LE, 0.0)
        mk_cols = range(agg, agg + n_rec + n_edges)
        return _rho_rows(build, [(tool, "makespan", f"mk_t{ti}", mk_cols, mk_vals)])

    return _recipe_model(inst, "alternative", g, pairing_rows)


def reference_model(inst, kind, matrix=None, full=True):
    """The model of `kind`, its per-tool rows built one tool at a time, as
    the builders did before they placed every tool's rows in one array
    step.  Given `full=False`, the generalized model is the row-generation
    form: one seed cut row per tool, and the template."""
    if kind == "basic":
        masks = [pair.mask for pair in inst.pair_rates.values()]
        return _time_model(inst, kind, models._rate_table(inst)[np.arange(len(masks)), masks])
    if kind == "serial":
        rates = models._chamber_rates(inst)
        return _time_model(inst, kind, np.where(rates > 0.0, rates, np.inf).min(1), rates)
    if kind == "generalized":
        return _generalized(inst, matrix, full)
    return _alternative(inst)
