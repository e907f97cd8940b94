"""Slow references for the instance path: the generator that draws one
scalar from the stream at a time, the standard library's indented JSON
encoder, and the ABC check of a number's kind.  `generate`,
`render_instance` and `models._is_a` are held to them."""

import json
import math

import numpy as np

from clustercap.instances import (
    DEMAND_HIGH, DEMAND_LOW, DENSITY_P, RATE_HIGH, RATE_LOW, GenParams, instance_to_dict,
    planned_counts,
)
from clustercap.models import Instance, Job, Qualification


def generate_scalar(p: GenParams) -> Instance:
    """The instance of `p`, drawn one `random()`, `uniform()` or `integers`
    call at a time, in the order the stream defines."""
    rng = np.random.default_rng(p.seed)
    n_tools, n_jobs = planned_counts(p)
    tools = tuple(f"t{i}" for i in range(n_tools))
    jobs = tuple(
        Job(f"j{j}", float(rng.integers(DEMAND_LOW, DEMAND_HIGH + 1))) for j in range(n_jobs)
    )
    p_qual = DENSITY_P[p.density]
    p_locked = p.locked / 10.0

    def draw_rate() -> float:
        return float(np.exp(rng.uniform(math.log(RATE_LOW), math.log(RATE_HIGH))))

    quals: list[Qualification] = []
    by_job: dict[str, int] = {}
    by_tool: dict[str, int] = {}
    for job in jobs:
        for tool in tools:
            if rng.random() >= p_qual:
                continue
            rates = []
            for c in range(p.chambers):
                if rng.random() < p_locked:
                    continue
                rates.append((c, draw_rate()))
            if not rates:
                continue
            quals.append(Qualification(job.id, tool, tuple(rates)))
            by_job[job.id] = by_job.get(job.id, 0) + 1
            by_tool[tool] = by_tool.get(tool, 0) + 1
    for job in jobs:
        if by_job.get(job.id, 0) == 0:
            tool = tools[int(rng.integers(0, n_tools))]
            chamber = int(rng.integers(0, p.chambers))
            quals.append(Qualification(job.id, tool, ((chamber, draw_rate()),)))
            by_job[job.id] = 1
            by_tool[tool] = by_tool.get(tool, 0) + 1
    for tool in tools:
        if by_tool.get(tool, 0) == 0:
            job = jobs[int(rng.integers(0, n_jobs))]
            chamber = int(rng.integers(0, p.chambers))
            quals.append(Qualification(job.id, tool, ((chamber, draw_rate()),)))
            by_tool[tool] = 1
    quals.sort(key=lambda q: (int(q.job[1:]), int(q.tool[1:])))
    return Instance(
        name=p.name,
        chambers=p.chambers,
        tools=tools,
        jobs=jobs,
        qualifications=tuple(quals),
    )


def render_json(inst: Instance) -> str:
    """The instance text by the standard library's pure-Python encoder."""
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def is_a_abc(value, kind) -> bool:
    """`isinstance` against the numbers ABC, bools rejected."""
    return isinstance(value, kind) and not isinstance(value, bool)
