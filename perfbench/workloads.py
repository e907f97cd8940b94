"""The three clustercap workloads: set-up, one timed pass, output checks.

Each workload is a closed loop: one operation at a time, the next started
only after the previous one returned.  The benchmark generates every input
(the run's seed sets what varies between runs, see each workload); the
program only sees the instance files, allocations and the n = 5 matrix.
Every operation is checked, and a wrong or failed one counts in
`Outcome.failed`.

Span names are `<module>.<function>` of the public clustercap call they
time, besides the benchmark's own grouping spans `pass` and
`verify.allocation`; `layer_metrics` turns the spans of a traced run into
the per-layer metrics.  A layer the workload never calls reports 0.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clustercap import cuts, flows, instances, lp, models, redundancy
from clustercap.recipes import build_parallel_graph

DATA = Path(__file__).resolve().parent / "data"
N5_COPY = DATA / "cuts_n5.csv"  # `clustercap cuts --chambers 5` output, kept as is
TOL = 1e-6
ROW_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23, 5: 590}
KINDS = ("generalized", "alternative")
SHORT = {"generalized": "gen", "alternative": "alt"}
SEP_SAMPLE = 32  # raw n = 5 rows timed through is_redundant_lp
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a))


def _result_problem(inst: models.Instance, res: models.CapacityResult) -> str | None:
    """Why a solve result is wrong, or None: Optimal and every demand met."""
    if res.status != lp.OPTIMAL:
        return f"status {res.status}"
    produced: dict[str, float] = {}
    for a in res.assignments:
        produced[a.job] = produced.get(a.job, 0.0) + a.wafers
    for job in inst.jobs:
        got = produced.get(job.id, 0.0)
        if abs(got - job.demand) / max(1.0, job.demand) > TOL:
            return f"job {job.id} gets {got} of {job.demand}"
    return None


def _load_n5(tracer) -> cuts.CutMatrix:
    with tracer.span("cuts.read_matrix_csv", n=5):
        return cuts.read_matrix_csv(N5_COPY, reduced=True)


def _write_instances(work: Path, params: list[instances.GenParams]) -> list[Path]:
    paths = []
    for p in params:
        path = work / f"{p.name}.json"
        instances.write_instance(instances.generate(p), path)
        paths.append(path)
    return paths


class CutsCold:
    """Cold `build_cut_matrix` for n = 1..5 into an empty cache, then an n = 5
    cache hit.  The timed pass is the cold build."""

    name = "cuts-cold"

    def setup(self, root: Path, work: Path, seed: int, tracer):
        # The input is the chamber range alone; the seed changes nothing here.
        self.work = work
        self.expected = {
            3: (root / "tests" / "data" / "cuts_n3_reference.csv").read_text(),
            4: (root / "tests" / "data" / "cuts_n4_reference.csv").read_text(),
            5: N5_COPY.read_text(),
        }
        self.kept5: cuts.CutMatrix | None = None

    def run_pass(self, k: int, tracer, out: Outcome) -> dict:
        cache = self.work / f"cache-{k}"
        cache.mkdir()
        built: dict[int, cuts.CutMatrix] = {}
        t0 = time.perf_counter()
        for n in range(1, 6):
            try:
                with tracer.span("cuts.build_cut_matrix", n=n, cached=False) as attrs:
                    built[n] = cuts.build_cut_matrix(n, cache_dir=cache)
                    attrs["rows"] = len(built[n].rows)
            except Exception as exc:  # counted, the pass goes on
                out.check(False, f"build n={n}: {exc!r}")
        cold = time.perf_counter() - t0
        t1 = time.perf_counter()
        try:
            with tracer.span("cuts.build_cut_matrix", n=5, cached=True):
                hit = cuts.build_cut_matrix(5, cache_dir=cache)
            hit_ms = (time.perf_counter() - t1) * 1e3
            out.check(5 in built and hit.rows == built[5].rows, "n=5 cache hit differs")
        except Exception as exc:
            hit_ms = float("nan")
            out.check(False, f"n=5 cache hit: {exc!r}")
        for n, m in built.items():
            ok = len(m.rows) == ROW_COUNTS[n] and m.reduced
            if ok and n in self.expected:
                ok = cuts.render_matrix_csv(m) == self.expected[n]
            out.check(ok, f"n={n}: {len(m.rows)} rows or content differs from reference")
        files = sorted(p.name for p in cache.iterdir())
        out.check(files == [f"cuts_n{n}.csv" for n in range(1, 6)], f"cache holds {files}")
        shutil.rmtree(cache)
        self.kept5 = built.get(5)
        return {"pass_s": cold, "cut_build_s": cold, "cache_hit_ms": hit_ms}

    def probe(self, tracer, out: Outcome):
        """Stage breakdown at n = 5 through the public stage functions."""
        with tracer.span("recipes.build_parallel_graph", n=5):
            g = build_parallel_graph(5)
        with tracer.span("cuts.double_graph", n=5):
            dg = cuts.double_graph(g)
        with tracer.span("cuts.enumerate_minimal_cuts", n=5) as attrs:
            covers = cuts.enumerate_minimal_cuts(dg)
            attrs["covers"] = len(covers)
        with tracer.span("cuts.cuts_to_matrix", n=5) as attrs:
            raw = cuts.cuts_to_matrix(g, covers)
            attrs["rows"] = len(raw.rows)
        kept = set(self.kept5.rows) if self.kept5 is not None else set()
        rows = np.asarray(raw.rows, dtype=float)
        for i in np.linspace(0, len(rows) - 1, SEP_SAMPLE).round().astype(int):
            others = np.delete(rows, i, axis=0)
            try:
                with tracer.span("redundancy.is_redundant_lp", row=int(i)):
                    verdict = redundancy.is_redundant_lp(rows[i], others)
                # A kept row is a vertex of conv(raw) + R+, every other row is not.
                out.check(
                    verdict.redundant != (raw.rows[i] in kept),
                    f"separation LP verdict on raw row {i}",
                )
            except Exception as exc:
                out.check(False, f"separation LP on raw row {i}: {exc!r}")


class _ModelWorkload:
    """Shared part of the workloads that solve both cut-based models.

    Their instances are generated from a fixed seed, so LP sizes, iteration
    counts and solve times repeat from run to run; the run's seed varies the
    order of the solves (plan-n5) or the sampled allocations (verify-n5).
    """

    INSTANCE_SEED = 1

    def _solve(self, path: Path, kind: str, tracer, out: Outcome, small: bool) -> float:
        """Read the file, solve one model, check the result; returns the wall time."""
        t0 = time.perf_counter()
        try:
            with tracer.span("instances.read_instance"):
                inst = instances.read_instance(path)
            with tracer.span(
                "models.solve_capacity", kind=kind, instance=path.stem, small=small
            ) as attrs:
                res = models.solve_capacity(
                    inst, kind, matrix=self.matrix if kind == "generalized" else None
                )
                attrs.update(build_ms=res.build_ms, solve_ms=res.solve_ms)
            problem = _result_problem(inst, res)
            out.check(problem is None, f"{path.stem} {kind}: {problem}")
            if problem is None:
                self.rho[path, kind] = res.rho
        except Exception as exc:  # counted, the pass goes on
            out.check(False, f"{path.stem} {kind}: {exc!r}")
        return time.perf_counter() - t0

    def _check_agreement(self, path: Path, out: Outcome):
        gen = self.rho.get((path, "generalized"))
        alt = self.rho.get((path, "alternative"))
        if gen is not None and alt is not None:  # a failed solve is counted already
            gap = _rel_gap(gen, alt)
            out.check(gap <= TOL, f"{path.stem}: rho {gen} vs {alt} (rel gap {gap:.2e})")

    def probe(self, tracer, out: Outcome):
        """Per instance and model: rebuild and solve once more for LP counts."""
        for path in self.paths:
            inst = instances.read_instance(path)
            for kind in KINDS:
                try:
                    with tracer.span("models.build_model", kind=kind) as attrs:
                        built = models.build_model(
                            inst, kind, matrix=self.matrix if kind == "generalized" else None
                        )
                        attrs.update(
                            rows=built.stats.rows,
                            cols=built.stats.columns,
                            nonzeros=built.stats.nonzeros,
                        )
                    with tracer.span("lp.solve", kind=kind) as attrs:
                        sol = lp.solve(built.problem)
                        attrs["iterations"] = sol.iterations
                    rho = self.rho.get((path, kind))
                    out.check(
                        sol.status == lp.OPTIMAL
                        and rho is not None
                        and _rel_gap(rho, sol.objective) <= TOL,
                        f"{path.stem} {kind}: re-solve gives {sol.status} {sol.objective}",
                    )
                except Exception as exc:
                    out.check(False, f"{path.stem} {kind} re-solve: {exc!r}")


class PlanN5(_ModelWorkload):
    """`clustercap solve` with both models on each instance of a fixed batch,
    from instance file to checked rho, in an order set by the run's seed."""

    name = "plan-n5"
    # (shape, locked) at sizecat 2, density 2, five chambers
    BATCH = (("1:4", 0), ("1:1", 3), ("4:1", 0))

    def setup(self, root: Path, work: Path, seed: int, tracer):
        self.matrix = _load_n5(tracer)
        self.paths = _write_instances(
            work,
            [
                instances.GenParams(2, shape, locked, 2, 5, self.INSTANCE_SEED)
                for shape, locked in self.BATCH
            ],
        )
        ops = [(path, kind) for path in self.paths for kind in KINDS]
        self.order = [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]
        self.rho: dict[tuple, float] = {}

    def run_pass(self, k: int, tracer, out: Outcome) -> dict:
        self.rho = {}
        total = {kind: 0.0 for kind in KINDS}
        for path, kind in self.order:
            total[kind] += self._solve(path, kind, tracer, out, small=False)
        for path in self.paths:
            self._check_agreement(path, out)
        return {
            "pass_s": sum(total.values()),
            "plan_gen_s": total["generalized"],
            "plan_alt_s": total["alternative"],
        }


class VerifyN5(_ModelWorkload):
    """`clustercap verify` on small instances: the three pairing oracles on
    allocations drawn from the run's seed, then both models."""

    name = "verify-n5"
    # (sizecat, shape, locked) at density 2, five chambers
    SET = ((0, "1:1", 3), (1, "1:4", 3))
    ALLOCATIONS = 32  # per instance and pass; short passes give the median more samples

    def setup(self, root: Path, work: Path, seed: int, tracer):
        self.matrix = _load_n5(tracer)
        self.graph = build_parallel_graph(5)
        self.paths = _write_instances(
            work,
            [
                instances.GenParams(sc, shape, locked, 2, 5, self.INSTANCE_SEED)
                for sc, shape, locked in self.SET
            ],
        )
        # Drawn the way `clustercap verify` draws them: uniform on [0, 10], ~30 % zeroed.
        rng = np.random.default_rng(seed)
        m = len(self.graph.recipes)
        self.allocations = {}
        for path in self.paths:
            xs = rng.uniform(0.0, 10.0, (self.ALLOCATIONS, m))
            xs *= rng.random((self.ALLOCATIONS, m)) < 0.7
            self.allocations[path] = xs
        self.rho: dict[tuple, float] = {}

    def run_pass(self, k: int, tracer, out: Outcome) -> dict:
        self.rho = {}
        t0 = time.perf_counter()
        for path in self.paths:
            for a, x in enumerate(self.allocations[path]):
                try:
                    with tracer.span("verify.allocation", instance=path.stem, a=a) as attrs:
                        with tracer.span("flows.solve_maxflow"):
                            flow = flows.solve_maxflow(x, self.graph)
                        with tracer.span("flows.solve_parallelization_lp"):
                            _, paired = flows.solve_parallelization_lp(x, self.graph)
                        with tracer.span("flows.makespan_via_cuts"):
                            span = flows.makespan_via_cuts(x, self.matrix)
                        dev = max(
                            abs((x.sum() - flow.value) - span), abs(paired - flow.value)
                        )
                        attrs["dev"] = dev
                    out.check(dev <= TOL, f"{path.stem} allocation {a}: oracles differ by {dev}")
                except Exception as exc:
                    out.check(False, f"{path.stem} allocation {a}: {exc!r}")
            for kind in KINDS:
                self._solve(path, kind, tracer, out, small=True)
            self._check_agreement(path, out)
        took = time.perf_counter() - t0
        return {"pass_s": took, "verify_s": took}


WORKLOADS = {w.name: w for w in (CutsCold, PlanN5, VerifyN5)}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _tail(values: list[float]) -> tuple[float, float]:
    """(level, value) of the highest percentile with >= 10 samples beyond it."""
    if not values:
        return 0.0, 0.0
    for level in TAIL_LEVELS:
        if len(values) * (1.0 - level / 100.0) >= 10:
            break
    return level, float(np.percentile(values, level))


def layer_metrics(tracer, passes: int) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run."""
    t = tracer
    out: dict[str, float] = {}

    def attr_sum(name, key, **match):  # a call that raised has no attributes
        return sum(s["attrs"].get(key, 0) for s in t.find(name, **match))

    # cuts and redundancy (cuts-cold)
    stage_s = sum(
        sum(t.durations(name))
        for name in (
            "recipes.build_parallel_graph",
            "cuts.double_graph",
            "cuts.enumerate_minimal_cuts",
            "cuts.cuts_to_matrix",
        )
    )
    cold5 = t.find("cuts.build_cut_matrix", n=5, cached=False)
    raw_rows = attr_sum("cuts.cuts_to_matrix", "rows")
    kept = max((s["attrs"].get("rows", 0) for s in cold5), default=0)
    out["cuts.enumerate_s"] = sum(t.durations("cuts.enumerate_minimal_cuts"))
    out["cuts.covers"] = attr_sum("cuts.enumerate_minimal_cuts", "covers")
    out["cuts.collapse_s"] = sum(t.durations("cuts.cuts_to_matrix"))
    out["cuts.raw_rows"] = raw_rows
    out["cuts.cache_read_ms"] = 1e3 * _median(
        t.durations("cuts.build_cut_matrix", cached=True) + t.durations("cuts.read_matrix_csv")
    )
    out["redundancy.reduce_s"] = (
        _median(s["end"] - s["start"] - stage_s for s in cold5) if stage_s else 0.0
    )
    out["redundancy.rows_kept"] = kept
    out["redundancy.kept_ratio"] = kept / raw_rows if raw_rows else 0.0
    out["redundancy.sep_lp_ms"] = 1e3 * _median(t.durations("redundancy.is_redundant_lp"))

    # instances, models and lp (plan-n5, verify-n5)
    out["instances.read_ms"] = 1e3 * _median(t.durations("instances.read_instance"))
    for kind, short in SHORT.items():
        build = attr_sum("models.solve_capacity", "build_ms", kind=kind) / 1e3
        solve = attr_sum("models.solve_capacity", "solve_ms", kind=kind) / 1e3
        wall = sum(t.durations("models.solve_capacity", kind=kind))
        out[f"models.build_s.{short}"] = build / passes
        out[f"lp.solve_s.{short}"] = solve / passes
        out[f"models.extract_s.{short}"] = (wall - build - solve) / passes
        out[f"lp.iterations.{short}"] = attr_sum("lp.solve", "iterations", kind=kind)
        for key in ("rows", "cols", "nonzeros"):
            out[f"lp.{key}.{short}"] = attr_sum("models.build_model", key, kind=kind)
    out["models.solve_small_s"] = sum(t.durations("models.solve_capacity", small=True)) / passes

    # flows (verify-n5)
    for name, metric in (
        ("flows.solve_maxflow", "flows.maxflow_ms"),
        ("flows.solve_parallelization_lp", "flows.pairing_lp_ms"),
        ("flows.makespan_via_cuts", "flows.cut_rows_ms"),
    ):
        values = [1e3 * d for d in t.durations(name)]
        out["flows.tail_pct"], out[f"{metric}.tail"] = _tail(values)
        out[metric] = _median(values)
    out["flows.samples"] = len(values)  # one call of each oracle per allocation
    out["flows.max_dev"] = max(
        (s["attrs"].get("dev", 0.0) for s in t.find("verify.allocation")), default=0.0
    )
    return out
