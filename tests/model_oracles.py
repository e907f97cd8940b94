"""Slow reference for the models' time columns, built one Python step per
(job, tool, recipe) triple, against which the column table is checked, and
the rate of one such triple."""

from clustercap import models
from clustercap.errors import NotQualifiedError
from clustercap.recipes import RECIPE_MASKS, build_parallel_graph, label_for_mask


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
