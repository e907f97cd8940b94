import itertools
import json
import math
import numbers
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercap import GenParams, generate, models, read_instance, write_instance
from clustercap.errors import DomainError, InstanceFormatError
from clustercap.instances import (
    CHAMBERS,
    DENSITIES,
    LOCKED,
    SHAPES,
    instance_from_dict,
    instance_to_dict,
    parse_generated_name,
    planned_counts,
    render_instance,
)
from clustercap.models import Instance, Job, Qualification, RateOverride
from clustercap.recipes import label_for_mask

from conftest import DATA, example1_instance
from instance_oracles import generate_scalar, is_a_abc, render_json


def params(**kw):
    base = dict(sizecat=0, shape="1:1", locked=0, density=2, chambers=3, seed=7)
    base.update(kw)
    return GenParams(**base)


class TestSizing:
    def test_square_split(self):
        assert planned_counts(params(shape="1:1")) == (10, 10)

    def test_wide_split_rounds_half_up(self):
        # sqrt(1600) = 40 tools; 100/40 = 2.5 jobs rounds up to 3
        assert planned_counts(params(shape="16:1")) == (40, 3)

    def test_oblong_split(self):
        assert planned_counts(params(shape="1:4")) == (5, 20)

    def test_sizecat_scales_product(self):
        n_tools, n_jobs = planned_counts(params(sizecat=1))
        assert n_tools * n_jobs == 400

    def test_generated_counts_match_plan(self):
        p = params()
        inst = generate(p)
        n_tools, n_jobs = planned_counts(p)
        assert len(inst.tools) == n_tools
        assert len(inst.jobs) == n_jobs


class TestParamValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"sizecat": 4},
            {"shape": "8:1"},
            {"locked": 5},
            {"density": 0},
            {"chambers": 2},
            {"chambers": 6},
            {"seed": -1},
        ],
    )
    def test_rejects_out_of_domain(self, kw):
        with pytest.raises(DomainError):
            params(**kw)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sizecat", True),
            ("locked", 0.0),
            ("density", 2.0),
            ("chambers", False),
            ("seed", 1.5),
            ("seed", np.True_),
            ("seed", "7"),
        ],
    )
    def test_rejects_bools_and_non_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            params(**{field: value})

    def test_takes_numpy_integers(self):
        p = params(sizecat=np.int64(1), locked=np.int8(3), seed=np.uint32(7))
        assert p.name == "gen_s1_1to1_l3_d2_n3_seed7"
        assert parse_generated_name(p.name)["locked"] == 3
        assert generate(p) == generate(params(sizecat=1, locked=3, seed=7))


class TestGeneration:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(generate(params(seed=42)), a)
        write_instance(generate(params(seed=42)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        patterns = {
            tuple((q.job, q.tool, q.chamber_rates) for q in generate(params(seed=s)).qualifications)
            for s in range(10)
        }
        assert len(patterns) == 10

    def test_locked_zero_keeps_all_chambers(self):
        inst = generate(params(locked=0, density=3))
        assert all(len(q.chamber_rates) == inst.chambers for q in inst.qualifications)

    def test_high_locking_still_structurally_feasible(self):
        for seed in range(5):
            inst = generate(params(locked=9, density=1, seed=seed))
            assert not inst.unqualified_jobs()
            served = {q.tool for q in inst.qualifications}
            assert served == set(inst.tools)

    def test_rates_within_documented_range(self):
        inst = generate(params(seed=3))
        for q in inst.qualifications:
            for _, rate in q.chamber_rates:
                assert 0.1 <= rate <= 1.0

    def test_demands_are_integers_in_range(self):
        inst = generate(params(seed=3))
        for job in inst.jobs:
            assert job.demand == int(job.demand)
            assert 10 <= job.demand <= 100

    def test_name_encodes_params_and_parses_back(self):
        p = params(sizecat=1, shape="1:4", locked=3, density=1, chambers=4, seed=99)
        inst = generate(p)
        assert parse_generated_name(inst.name) == {
            "sizecat": 1,
            "shape": "1:4",
            "locked": 3,
            "density": 1,
            "chambers": 4,
            "seed": 99,
        }
        assert parse_generated_name("example1") is None

    @given(
        sizecat=st.sampled_from([0, 1]),
        shape=st.sampled_from(["1:4", "1:1", "4:1", "16:1"]),
        locked=st.sampled_from([0, 3, 6, 9]),
        density=st.sampled_from([1, 2, 3]),
        chambers=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25)
    def test_generated_instances_are_valid(self, sizecat, shape, locked, density, chambers, seed):
        inst = generate(
            GenParams(sizecat, shape, locked, density, chambers, seed)
        )
        assert not inst.unqualified_jobs()
        assert {q.tool for q in inst.qualifications} == set(inst.tools)


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        inst = generate(params(seed=13))
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_reference_file_parses_and_matches(self):
        assert read_instance(f"{DATA}/example1.json") == example1_instance()

    def test_overrides_roundtrip(self, tmp_path):
        from clustercap.models import Instance, Job, Qualification, RateOverride

        inst = Instance(
            name="ov",
            chambers=2,
            tools=("t0",),
            jobs=(Job("j0", 4.0),),
            qualifications=(Qualification("j0", "t0", ((0, 0.5), (1, 0.5))),),
            rate_overrides=(RateOverride("j0", "t0", "AB", 1.25),),
        )
        path = tmp_path / "ov.json"
        write_instance(inst, path)
        assert read_instance(path) == inst


def override(recipe, rate=0.5):
    return {"job": "lot1", "tool": "tool1", "recipe": recipe, "rate": rate}


class TestParsing:
    def test_missing_chambers_field(self, tmp_path):
        d = instance_to_dict(example1_instance())
        del d["chambers"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(InstanceFormatError, match="chambers"):
            read_instance(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": "x",\n  broken\n}')
        with pytest.raises(InstanceFormatError, match="line 3"):
            read_instance(path)

    @pytest.mark.parametrize("data", [b"\xff\xfe{", b"[" * 100000], ids=["not-utf8", "too-deep"])
    def test_unreadable_bytes_name_the_file(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(InstanceFormatError, match="bad.json: "):
            read_instance(path)

    def test_bad_chamber_letter(self):
        d = instance_to_dict(example1_instance())
        d["qualifications"][0]["chamber_rates"] = {"Z": 0.5}
        with pytest.raises(InstanceFormatError, match="bad chamber"):
            instance_from_dict(d)

    def test_non_numeric_demand(self):
        d = instance_to_dict(example1_instance())
        d["jobs"][0]["demand"] = "lots"
        with pytest.raises(InstanceFormatError, match="demand"):
            instance_from_dict(d)

    @pytest.mark.parametrize(
        "edit,context",
        [
            pytest.param(
                lambda d: d["jobs"][0].update(demand=float("nan")),
                r"jobs\[0\]: field 'demand' must be a finite number",
                id="nan-demand",
            ),
            pytest.param(
                lambda d: d["jobs"][1].update(demand=float("inf")),
                r"jobs\[1\]: field 'demand'",
                id="inf-demand",
            ),
            pytest.param(
                lambda d: d["jobs"][0].update(demand=10**400),
                r"jobs\[0\]: field 'demand'",
                id="huge-int-demand",
            ),
            pytest.param(
                lambda d: d["qualifications"][0]["chamber_rates"].update(B=float("nan")),
                r"qualifications\[0\]: rate for B must be a finite number",
                id="nan-rate",
            ),
            pytest.param(
                lambda d: d["qualifications"][1]["chamber_rates"].update(A=float("-inf")),
                r"qualifications\[1\]: rate for A",
                id="inf-rate",
            ),
            pytest.param(
                lambda d: d.update(
                    recipe_rate_overrides=[
                        {"job": "lot1", "tool": "tool1", "recipe": "AB", "rate": float("inf")}
                    ]
                ),
                r"recipe_rate_overrides\[0\]: field 'rate'",
                id="inf-override-rate",
            ),
            pytest.param(
                lambda d: d.update(chambers=True),
                "field 'chambers' must be int",
                id="bool-chambers",
            ),
            pytest.param(
                lambda d: d["jobs"].__setitem__(0, "lot1"),
                r"jobs\[0\]: expected a JSON object",
                id="job-not-object",
            ),
            pytest.param(
                lambda d: d["tools"].__setitem__(0, 7),
                r"tools\[0\]: expected a JSON object",
                id="tool-not-object",
            ),
            pytest.param(
                lambda d: d["qualifications"].__setitem__(1, None),
                r"qualifications\[1\]: expected a JSON object",
                id="qualification-not-object",
            ),
            pytest.param(
                lambda d: d.update(recipe_rate_overrides=5),
                "field 'recipe_rate_overrides' must be list",
                id="overrides-not-list",
            ),
            pytest.param(
                lambda d: d.update(recipe_rate_overrides=[["lot1", "tool1", "AB", 0.5]]),
                r"recipe_rate_overrides\[0\]: expected a JSON object",
                id="override-not-object",
            ),
            pytest.param(
                lambda d: d.update(recipe_rate_overrides=[override("BA")]),
                r"rate override 0 \(lot1, tool1, 'BA'\): recipe is not a canonical label",
                id="override-recipe-out-of-order",
            ),
            pytest.param(
                lambda d: d.update(recipe_rate_overrides=[override("AAB")]),
                r"rate override 0 \(lot1, tool1, 'AAB'\): recipe is not a canonical label",
                id="override-recipe-repeated-chamber",
            ),
            pytest.param(
                lambda d: d.update(recipe_rate_overrides=[override("")]),
                r"rate override 0 \(lot1, tool1, ''\): recipe is not a canonical label",
                id="override-recipe-empty",
            ),
            pytest.param(
                lambda d: d.update(recipe_rate_overrides=[override("AB"), override("AB", 0.7)]),
                r"rate override 1 \(lot1, tool1, 'AB'\): duplicate of an earlier override",
                id="override-repeated",
            ),
        ],
    )
    def test_non_finite_or_mistyped_field(self, edit, context):
        d = instance_to_dict(example1_instance())
        edit(d)
        with pytest.raises(InstanceFormatError, match=context):
            instance_from_dict(d)

    def test_non_finite_literal_in_file(self, tmp_path):
        # Python's JSON reader accepts NaN and Infinity, which are not JSON
        text = json.dumps(instance_to_dict(example1_instance()))
        path = tmp_path / "nan.json"
        path.write_text(text.replace('"demand": 90.0', '"demand": NaN', 1))
        with pytest.raises(InstanceFormatError, match=r"nan.json.jobs\[0\].*demand"):
            read_instance(path)

    def test_unknown_tool_reference(self):
        d = instance_to_dict(example1_instance())
        d["qualifications"][0]["tool"] = "ghost"
        with pytest.raises(InstanceFormatError, match="ghost"):
            instance_from_dict(d)


class IntSubclass(int):
    pass


class FloatSubclass(float):
    pass


# ids with every character class the encoder escapes: quote, backslash,
# control characters and non-ASCII, inside the BMP and past it
IDS = st.text(st.sampled_from('a7"\\/\n\t\x00\x1f\x7fé€😀'), max_size=4) | st.text(max_size=3)
POSITIVE = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300).map(np.float64),
    st.integers(min_value=1, max_value=10**20),
)


@st.composite
def st_instances(draw):
    """Valid instances, with empty job and tool lists, int and `np.float64`
    numbers, chambers listed in any order, rate overrides and, at times, an
    `np.int64` chamber count, which the encoder rejects."""
    chambers = draw(st.integers(min_value=1, max_value=4))
    jobs = draw(st.lists(IDS, unique=True, max_size=3))
    tools = draw(st.lists(IDS, unique=True, max_size=3))
    demands = st.one_of(st.floats(min_value=0, max_value=1e300), st.integers(0, 10**6))
    quals, overrides = [], []
    for job, tool in itertools.product(jobs, tools):
        if not draw(st.booleans()):
            continue
        mine = draw(st.permutations(range(chambers)))[: draw(st.integers(1, chambers))]
        quals.append(Qualification(job, tool, tuple((c, draw(POSITIVE)) for c in mine)))
        mask = sum(1 << c for c in mine)
        picked = draw(st.sets(st.integers(1, mask).filter(lambda m: not m & ~mask), max_size=2))
        overrides += [RateOverride(job, tool, label_for_mask(m), draw(POSITIVE)) for m in picked]
    return Instance(
        name=draw(IDS),
        chambers=draw(st.sampled_from([int, np.int64]))(chambers),
        tools=tuple(tools),
        jobs=tuple(Job(j, draw(demands)) for j in jobs),
        qualifications=tuple(quals),
        rate_overrides=tuple(overrides),
    )


class TestNameParsing:
    @pytest.mark.parametrize(
        "name",
        [
            "gen_s7_2to3_l5_d9_n8_seed-4",  # factors out of their domains, a signed seed
            "gen_s1_01to4_l3_d2_n4_seed007",  # leading zeros
            "gen_s1_1to4_l3_d2_n4_seed" + "1" * 5000,  # past int's digit limit
        ],
    )
    def test_a_name_no_params_make_is_not_parsed(self, name):
        assert parse_generated_name(name) is None

    def test_every_factor_parses_back(self):
        for p in (params(sizecat=3, shape="16:1", locked=9, density=3, chambers=5, seed=0),
                  params(seed=2**70)):
            assert GenParams(**parse_generated_name(p.name)) == p


def grid(sizecats, seeds, shapes=SHAPES, locked=LOCKED, densities=DENSITIES, chambers=CHAMBERS):
    return [
        GenParams(*factors)
        for factors in itertools.product(sizecats, shapes, locked, densities, chambers, seeds)
    ]


class TestFastPathsMatchReferences:
    """`generate`, `render_instance` and `models._is_a` against the slow
    references in `instance_oracles`.  Every factor of the grid, at three
    seeds, is held at sizecat 0 and 1; sizecat 2 and 3, whose instances
    take 40 and 170 ms each through both paths, hold a slice of it."""

    @pytest.mark.parametrize(
        "todo",
        [
            pytest.param(grid((0, 1), (1, 2, 3)), id="s0-s1-full-grid"),
            pytest.param(grid((2,), (1,), densities=(2,), chambers=(5,)), id="s2"),
            pytest.param(grid((3,), (1,), locked=(3,), densities=(2,), chambers=(4,)), id="s3"),
        ],
    )
    def test_generated_text_is_the_scalar_generators(self, todo):
        for p in todo:
            assert render_instance(generate(p)) == render_json(generate_scalar(p)), p.name

    def test_the_stream_after_the_walk_is_the_scalar_walks(self):
        """locked 9 at density 1 leaves jobs and tools for the repair step,
        which draws after the walk's doubles."""
        for p in grid((0,), range(6), locked=(9,), densities=(1,)):
            assert generate(p) == generate_scalar(p), p.name

    @given(inst=st_instances())
    @settings(max_examples=200)
    def test_rendered_text_is_the_encoders(self, inst):
        try:
            want = render_json(inst)
        except Exception as exc:  # the encoder's verdict, whatever it is
            with pytest.raises(type(exc)):
                render_instance(inst)
        else:
            assert render_instance(inst) == want

    def test_a_rejected_scalar_raises_the_encoders_error(self):
        inst = replace(example1_instance(), chambers=np.int64(3))
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            render_instance(inst)

    @pytest.mark.parametrize("kind", [numbers.Integral, numbers.Real])
    @pytest.mark.parametrize(
        "value",
        [
            0, 1, -3, 2**100, 0.0, -0.5, 1e308, math.nan, math.inf, True, False, np.True_,
            np.int64(3), np.int8(-1), np.uint32(7), np.float64(0.5), np.float32(0.25),
            np.float64(math.nan), Fraction(1, 3), Decimal("1.5"), complex(1, 0), "3", None,
            IntSubclass(4), FloatSubclass(0.5),
        ],
        ids=repr,
    )
    def test_is_a_gives_the_abc_verdict(self, value, kind):
        assert models._is_a(value, kind) == is_a_abc(value, kind)

