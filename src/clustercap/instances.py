"""Reproducible benchmark-instance generation and the instance file format.

Instances follow a four-factor design: sizecat scales the tool-times-job
product, shape sets the tool:job ratio, locked is the per-chamber
unavailability probability (in tenths), density drives the share of
qualified (job, tool) pairs.  Same parameters and seed reproduce the same
instance byte for byte.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InstanceFormatError
from .models import Instance, Job, Qualification, RateOverride
from .recipes import RECIPE_MASKS, chamber_letter

SHAPES = ("1:4", "1:1", "4:1", "16:1")
LOCKED = (0, 3, 6, 9)
DENSITIES = (1, 2, 3)
DENSITY_P = {1: 0.25, 2: 0.5, 3: 0.75}
SIZECATS = (0, 1, 2, 3)
CHAMBERS = (3, 4, 5)

RATE_LOW, RATE_HIGH = 0.1, 1.0
DEMAND_LOW, DEMAND_HIGH = 10, 100


@dataclass(frozen=True)
class GenParams:
    sizecat: int
    shape: str
    locked: int
    density: int
    chambers: int
    seed: int

    def __post_init__(self):
        for field in ("sizecat", "locked", "density", "chambers", "seed"):
            value = getattr(self, field)
            # a bool or a float would reach the name (gen_sTrue_..., _l0.0_)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{field} must be an integer, not {value!r}")
        if self.sizecat not in SIZECATS:
            raise DomainError(f"sizecat must be one of {SIZECATS}")
        if self.shape not in SHAPES:
            raise DomainError(f"shape must be one of {SHAPES}")
        if self.locked not in LOCKED:
            raise DomainError(f"locked must be one of {LOCKED}")
        if self.density not in DENSITIES:
            raise DomainError(f"density must be one of {DENSITIES}")
        if self.chambers not in CHAMBERS:
            raise DomainError(f"chambers must be one of {CHAMBERS}")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")

    @property
    def ratio(self) -> float:
        a, b = self.shape.split(":")
        return int(a) / int(b)

    @property
    def name(self) -> str:
        shape = self.shape.replace(":", "to")
        return (
            f"gen_s{self.sizecat}_{shape}_l{self.locked}"
            f"_d{self.density}_n{self.chambers}_seed{self.seed}"
        )


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def planned_counts(p: GenParams) -> tuple[int, int]:
    """(tool count, job count): sqrt split of 100 * 4^sizecat by the ratio."""
    size = 100 * 4**p.sizecat
    n_tools = max(1, _round_half_up(math.sqrt(size * p.ratio)))
    n_jobs = max(1, _round_half_up(size / n_tools))
    return n_tools, n_jobs


def generate(p: GenParams) -> Instance:
    """Deterministic instance for the given parameters and seed.

    Qualification: each (job, tool) pair qualifies with the density
    probability; within a qualified pair each chamber is independently locked
    with probability locked/10 (a pair losing all chambers is dropped).
    Chamber rates are log-uniform on [0.1, 1.0], demands uniform integers in
    [10, 100].  A repair step adds minimal qualifications so that every job
    reaches a tool and every tool serves a job.
    """
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


def parse_generated_name(name: str) -> dict | None:
    """Recover generator parameters from an instance name, if it has them."""
    import re

    m = re.fullmatch(
        r"gen_s(\d)_(\d+to\d+)_l(\d)_d(\d)_n(\d)_seed(-?\d+)", name
    )
    if not m:
        return None
    return {
        "sizecat": int(m.group(1)),
        "shape": m.group(2).replace("to", ":"),
        "locked": int(m.group(3)),
        "density": int(m.group(4)),
        "chambers": int(m.group(5)),
        "seed": int(m.group(6)),
    }


def instance_to_dict(inst: Instance) -> dict:
    d = {
        "name": inst.name,
        "chambers": inst.chambers,
        "jobs": [{"id": j.id, "demand": j.demand} for j in inst.jobs],
        "tools": [{"id": t} for t in inst.tools],
        "qualifications": [
            {
                "job": q.job,
                "tool": q.tool,
                "chamber_rates": {chamber_letter(c): r for c, r in q.chamber_rates},
            }
            for q in inst.qualifications
        ],
    }
    if inst.rate_overrides:
        d["recipe_rate_overrides"] = [
            {"job": ov.job, "tool": ov.tool, "recipe": ov.recipe, "rate": ov.rate}
            for ov in inst.rate_overrides
        ]
    return d


def render_instance(inst: Instance) -> str:
    """The instance as the JSON text `write_instance` and `clustercap gen` write."""
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def write_instance(inst: Instance, path: str | os.PathLike):
    Path(path).write_text(render_instance(inst))


def _number(value, what: str, where: str) -> float:
    # the comparison also rejects NaN, and integers too large for a float
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise InstanceFormatError(f"{where}: {what} must be a finite number")
    return float(value)


def _need(obj: dict, key: str, kind, where: str):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected a JSON object")
    if key not in obj:
        raise InstanceFormatError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is float:
        return _number(value, f"field {key!r}", where)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InstanceFormatError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def instance_from_dict(d: dict, where: str = "instance") -> Instance:
    if not isinstance(d, dict):
        raise InstanceFormatError(f"{where}: expected a JSON object")
    name = _need(d, "name", str, where)
    chambers = _need(d, "chambers", int, where)
    jobs = []
    for k, obj in enumerate(_need(d, "jobs", list, where)):
        wj = f"{where}.jobs[{k}]"
        jobs.append(Job(_need(obj, "id", str, wj), _need(obj, "demand", float, wj)))
    tools = []
    for k, obj in enumerate(_need(d, "tools", list, where)):
        tools.append(_need(obj, "id", str, f"{where}.tools[{k}]"))
    quals = []
    for k, obj in enumerate(_need(d, "qualifications", list, where)):
        wq = f"{where}.qualifications[{k}]"
        rates = _need(obj, "chamber_rates", dict, wq)
        pairs = []
        for letter, rate in sorted(rates.items()):
            mask = RECIPE_MASKS.get(letter, 0)  # a chamber letter is a one-chamber label
            if mask.bit_count() != 1:
                raise InstanceFormatError(f"{wq}: bad chamber {letter!r}")
            pairs.append((mask.bit_length() - 1, _number(rate, f"rate for {letter}", wq)))
        quals.append(
            Qualification(_need(obj, "job", str, wq), _need(obj, "tool", str, wq), tuple(pairs))
        )
    overrides = []
    listed = _need(d, "recipe_rate_overrides", list, where) if "recipe_rate_overrides" in d else []
    for k, obj in enumerate(listed):
        wo = f"{where}.recipe_rate_overrides[{k}]"
        overrides.append(
            RateOverride(
                _need(obj, "job", str, wo),
                _need(obj, "tool", str, wo),
                _need(obj, "recipe", str, wo),
                _need(obj, "rate", float, wo),
            )
        )
    try:
        return Instance(
            name=name,
            chambers=chambers,
            tools=tuple(tools),
            jobs=tuple(jobs),
            qualifications=tuple(quals),
            rate_overrides=tuple(overrides),
        )
    except DomainError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def read_instance(path: str | os.PathLike) -> Instance:
    """Load and validate an instance file; errors carry file/field context."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8; nested past the decoder
        raise InstanceFormatError(f"{path}: {exc}") from exc
    return instance_from_dict(data, where=str(path))
