"""Reproducible benchmark-instance generation and the instance file format.

Instances follow a four-factor design: sizecat scales the tool-times-job
product, shape sets the tool:job ratio, locked is the per-chamber
unavailability probability (in tenths), density drives the share of
qualified (job, tool) pairs.  Same parameters and seed reproduce the same
instance byte for byte.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from .errors import DomainError, InstanceFormatError
from .models import Instance, Job, Qualification, RateOverride
from .recipes import MAX_CHAMBERS, RECIPE_MASKS, chamber_letter

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

    The stream: one `integers` draw per job for its demand; then, walking the
    pairs job by job and tool by tool, one double for the pair's
    qualification and, if it qualifies, per chamber one double for locking
    and, if unlocked, one for its rate; then the repair step's draws.  Each
    double of the walk is one `random()` or `uniform()` draw, so the walk
    draws them as one block ahead, on a copy of the generator's state, and
    the generator then moves on by exactly the doubles the walk used: the
    repair step sees the stream a draw-by-draw walk would leave it.
    """
    rng = np.random.default_rng(p.seed)
    n_tools, n_jobs = planned_counts(p)
    tools = tuple(f"t{i}" for i in range(n_tools))
    jobs = tuple(
        Job(f"j{j}", float(rng.integers(DEMAND_LOW, DEMAND_HIGH + 1))) for j in range(n_jobs)
    )
    p_qual = DENSITY_P[p.density]
    p_locked = p.locked / 10.0
    low, high = math.log(RATE_LOW), math.log(RATE_HIGH)

    def draw_rate() -> float:
        return float(np.exp(rng.uniform(low, high)))

    # at most one double per pair and two per chamber of it
    ahead = copy.deepcopy(rng)
    block = ahead.random(n_jobs * n_tools * (1 + 2 * p.chambers))
    u = block.tolist()
    used = 0  # doubles of the block the walk has read
    walked = []  # (job index, tool index, unlocked chambers)
    at = []  # the position in the block of each unlocked chamber's rate double
    for ji in range(n_jobs):
        for ti in range(n_tools):
            qualifies = u[used] < p_qual
            used += 1
            if not qualifies:
                continue
            chambers = []
            for c in range(p.chambers):
                unlocked = u[used] >= p_locked
                used += 1
                if unlocked:
                    chambers.append(c)
                    at.append(used)  # its rate's double comes next
                    used += 1
            if chambers:
                walked.append((ji, ti, chambers))
    rng.random(used)  # discarded: the stream moves on past the walk's doubles
    rates = iter(np.exp(low + (high - low) * block[at]).tolist())
    placed = [(ji, ti, tuple(zip(chambers, rates))) for ji, ti, chambers in walked]
    served_jobs = {ji for ji, _, _ in placed}
    served_tools = {ti for _, ti, _ in placed}
    for ji in range(n_jobs):
        if ji not in served_jobs:
            ti = int(rng.integers(0, n_tools))
            chamber = int(rng.integers(0, p.chambers))
            placed.append((ji, ti, ((chamber, draw_rate()),)))
            served_tools.add(ti)
    for ti in range(n_tools):
        if ti not in served_tools:
            ji = int(rng.integers(0, n_jobs))
            chamber = int(rng.integers(0, p.chambers))
            placed.append((ji, ti, ((chamber, draw_rate()),)))
    placed.sort()  # by job, then tool: each pair is placed once
    quals = tuple(Qualification(jobs[ji].id, tools[ti], pairs) for ji, ti, pairs in placed)
    return Instance(
        name=p.name,
        chambers=p.chambers,
        tools=tools,
        jobs=jobs,
        qualifications=quals,
    )


def parse_generated_name(name: str) -> dict | None:
    """The generator parameters an instance name was made from, or None when
    no `GenParams` makes that name (a factor out of its domain, a leading
    zero, a sign)."""
    m = re.fullmatch(r"gen_s(\d+)_(\d+to\d+)_l(\d+)_d(\d+)_n(\d+)_seed(\d+)", name)
    if not m:
        return None
    try:  # int() refuses a seed past its digit limit, which no name can hold
        factors = {
            "sizecat": int(m.group(1)),
            "shape": m.group(2).replace("to", ":"),
            "locked": int(m.group(3)),
            "density": int(m.group(4)),
            "chambers": int(m.group(5)),
            "seed": int(m.group(6)),
        }
        made = GenParams(**factors).name
    except (DomainError, ValueError):
        return None
    return factors if made == name else None


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


def _scalar(value, pad: str) -> str:
    """`value` as `json.dumps(..., indent=2, sort_keys=True)` writes it on a
    line indented by `pad`.  An exact str, finite float or int is written as
    the encoder writes it; anything else goes through `json.dumps` itself,
    which raises for what it cannot encode."""
    exact = type(value)
    if exact is str:
        return _encode_str(value)
    if exact is float and math.isfinite(value):
        return float.__repr__(value)
    if exact is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _array(items: list[str]) -> str:
    """A JSON array of the instance's top level in the layout of `indent=2`:
    `items` are its rendered elements."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


# one line of a qualification's "chamber_rates" object, up to its rate
_RATE_KEY = tuple(f'        "{chamber_letter(c)}": ' for c in range(MAX_CHAMBERS))


def render_instance(inst: Instance) -> str:
    """The instance as the JSON text `write_instance` and `clustercap gen` write.

    The text is written directly, and it is byte for byte
    `json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"`:
    the keys of each object in sorted order, each value as `_scalar` writes
    it, so that a value `json.dumps` rejects raises the same error here.
    A qualification's chambers are distinct, and their letters sort as
    their indices do.
    """
    s = _scalar
    p1, p3 = "  ", "      "  # the indents of the top level's values and of a record's
    jobs = [
        f'{{\n{p3}"demand": {s(j.demand, p3)},\n{p3}"id": {s(j.id, p3)}\n    }}' for j in inst.jobs
    ]
    quals = []
    for q in inst.qualifications:
        rates = ",\n".join([_RATE_KEY[c] + s(r, "        ") for c, r in sorted(q.chamber_rates)])
        quals.append(
            f'{{\n{p3}"chamber_rates": {{\n{rates}\n{p3}}},\n'
            f'{p3}"job": {s(q.job, p3)},\n{p3}"tool": {s(q.tool, p3)}\n    }}'
        )
    overrides = [
        f'{{\n{p3}"job": {s(ov.job, p3)},\n{p3}"rate": {s(ov.rate, p3)},\n'
        f'{p3}"recipe": {s(ov.recipe, p3)},\n{p3}"tool": {s(ov.tool, p3)}\n    }}'
        for ov in inst.rate_overrides
    ]
    # an instance without overrides has no such key, as in `instance_to_dict`
    listed = f'\n{p1}"recipe_rate_overrides": {_array(overrides)},' if overrides else ""
    tools = [f'{{\n{p3}"id": {s(t, p3)}\n    }}' for t in inst.tools]
    return (
        f'{{\n{p1}"chambers": {s(inst.chambers, p1)},\n{p1}"jobs": {_array(jobs)},\n'
        f'{p1}"name": {s(inst.name, p1)},\n{p1}"qualifications": {_array(quals)},{listed}\n'
        f'{p1}"tools": {_array(tools)}\n}}\n'
    )


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
