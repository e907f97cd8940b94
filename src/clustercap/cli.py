"""Command-line front end: cut matrices, instance generation, solving,
cross-verification, and benchmark reports.

Exit codes: 0 success, 1 domain or solver error or failed verification, 2 usage error.
All output is deterministic for fixed inputs except wall-clock timings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cuts as cuts_mod
from . import flows, instances, lp, models
from .errors import ClusterCapError, DomainError
from .recipes import build_parallel_graph

VERIFY_TOL = 1e-6

BENCH_HEADER = (
    "record_type",
    "instance",
    "sizecat",
    "shape",
    "locked",
    "density",
    "chambers",
    "seed",
    "model",
    "rep",
    "rows",
    "cols",
    "nonzeros",
    "build_ms",
    "solve_ms",
    "rho",
    "status",
    "speedup_gen_over_alt",
    "nonzeros_gen_over_alt",
    "iterations",
    "rounds",
)


@dataclass(frozen=True)
class BenchRecord:
    """One (instance, model, repetition) of `bench`: the solve's result, or
    the error that stopped the read or the solve."""

    instance: str
    params: dict
    model: str
    rep: int
    result: models.CapacityResult | None = None
    error: str = ""

    @property
    def status(self) -> str:
        return self.result.status if self.result else f"Error: {self.error}"


# the report's cells of a record that reached no result; its rho cell stays empty
_NO_RESULT = models.CapacityResult(
    model="", status="", rho=0.0, assignments=(), utilization=(), build_ms=0.0,
    solve_ms=0.0, stats=lp.SizeStats(0, 0, 0), iterations=0, rounds=0,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercap",
        description="Capacity planning LPs for cluster tools with two load locks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cuts", help="emit the cut matrix for a chamber count")
    p.add_argument("--chambers", type=int, required=True)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--raw", action="store_true", help="emit the unreduced matrix")
    p.add_argument("--graph-out", help="also dump recipes and edges as CSV")

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--sizecat", type=int, required=True, choices=instances.SIZECATS)
    p.add_argument("--shape", required=True, choices=instances.SHAPES)
    p.add_argument("--locked", type=int, required=True, choices=instances.LOCKED)
    p.add_argument("--density", type=int, required=True, choices=instances.DENSITIES)
    p.add_argument("--chambers", type=int, required=True, choices=instances.CHAMBERS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("solve", help="solve one model on an instance")
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("instance")
    p.add_argument("--out", help="solution JSON path (default: stdout)")

    p = sub.add_parser("verify", help="run the oracle cross-checks on an instance")
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="benchmark models on instance files")
    p.add_argument("instances", nargs="+")
    p.add_argument("--models", default="generalized,alternative")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", help="report CSV path (default: stdout)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="instances benched at once (default 1); more finish the run sooner but "
        "slow each solve, so use 1 when the timings themselves matter",
    )

    p = sub.add_parser("export-lp", help="write one model as an LP-format file")
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    return parser


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_cuts(args) -> int:
    matrix = cuts_mod.build_cut_matrix(args.chambers, reduce=not args.raw)
    _write_text(args.out, matrix.csv_text)
    if args.graph_out:
        g = build_parallel_graph(args.chambers)
        lines = ["kind,first,second"]
        for r in g.recipes:
            lines.append(f"recipe,{r.label},")
        for i, j in g.edges:
            lines.append(f"edge,{g.labels[i]},{g.labels[j]}")
        _write_text(args.graph_out, "\n".join(lines) + "\n")
    return 0


def _cmd_gen(args) -> int:
    params = instances.GenParams(
        sizecat=args.sizecat,
        shape=args.shape,
        locked=args.locked,
        density=args.density,
        chambers=args.chambers,
        seed=args.seed,
    )
    inst = instances.generate(params)
    _write_text(args.out, instances.render_instance(inst))
    return 0


def _cmd_solve(args) -> int:
    inst = instances.read_instance(args.instance)
    result = models.solve_capacity(inst, args.model)
    text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    return 0


def verify_instance(
    inst: models.Instance, samples: int = 200, seed: int = 0
) -> list[tuple[str, bool, str]]:
    """Cross-checks for one instance; returns (check name, passed, detail)."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    checks: list[tuple[str, bool, str]] = []
    g = build_parallel_graph(inst.chambers)
    matrix = cuts_mod.reduced_matrix(inst.chambers)
    rng = np.random.default_rng(seed)
    worst_flow, worst_lp = 0.0, 0.0
    for _ in range(samples):
        x = rng.uniform(0.0, 10.0, len(g.recipes))
        x *= rng.random(len(g.recipes)) < 0.7
        flow = flows.solve_maxflow(x, g)
        _, objective = flows.solve_parallelization_lp(x, g)
        span = flows.makespan_via_cuts(x, matrix)
        worst_flow = max(worst_flow, abs((x.sum() - flow.value) - span))
        worst_lp = max(worst_lp, abs(objective - flow.value))
    checks.append(
        (
            "cut rows equal total-minus-maxflow",
            worst_flow <= VERIFY_TOL,
            f"max deviation {worst_flow:.2e} over {samples} samples",
        )
    )
    checks.append(
        (
            "pairing LP equals maxflow",
            worst_lp <= VERIFY_TOL,
            f"max deviation {worst_lp:.2e} over {samples} samples",
        )
    )
    raw = cuts_mod.build_cut_matrix(inst.chambers, reduce=False)
    worst = 0.0
    for _ in range(min(samples, 100)):
        x = rng.uniform(0.0, 10.0, len(g.recipes))
        worst = max(
            worst,
            abs(flows.makespan_via_cuts(x, raw) - flows.makespan_via_cuts(x, matrix)),
        )
    checks.append(
        ("reduction preserves worst cut row", worst <= VERIFY_TOL, f"max deviation {worst:.2e}")
    )
    res_gen = models.solve_capacity(inst, "generalized", matrix=matrix)
    res_alt = models.solve_capacity(inst, "alternative")
    scale = max(abs(res_gen.rho), abs(res_alt.rho))
    gap = abs(res_gen.rho - res_alt.rho) / scale if scale else 0.0
    checks.append(
        (
            "generalized and alternative agree",
            gap <= VERIFY_TOL,
            f"rho {res_gen.rho:.9g} vs {res_alt.rho:.9g} (rel gap {gap:.2e})",
        )
    )
    for res in (res_gen, res_alt):
        tool, top = _flow_makespan(res, g)
        gap = abs(top - res.rho) / abs(res.rho) if res.rho else abs(top)
        checks.append(
            (
                f"{res.model} rho equals the largest total-minus-maxflow",
                gap <= VERIFY_TOL,
                f"{top:.9g} on {tool or 'no tool'} vs rho {res.rho:.9g} (rel gap {gap:.2e})",
            )
        )
    produced: dict[str, float] = {}
    for a in res_gen.assignments:
        produced[a.job] = produced.get(a.job, 0.0) + a.wafers
    worst = 0.0
    for job in inst.jobs:
        off = abs(produced.get(job.id, 0.0) - job.demand)
        worst = max(worst, off / job.demand if job.demand else off)
    checks.append(
        ("demands are met", worst <= VERIFY_TOL, f"max relative deviation {worst:.2e}")
    )
    return checks


def _flow_makespan(res: models.CapacityResult, g) -> tuple[str | None, float]:
    """The tool with the largest makespan by the paper's flow form, and that
    makespan, from the result's assignments alone: per tool, its times summed
    per recipe into x, and then sum(x) - maxflow(x).  (None, 0.0) when no
    tool has an assignment."""
    index = {label: k for k, label in enumerate(g.labels)}
    times: dict[str, np.ndarray] = {}
    for a in res.assignments:
        times.setdefault(a.tool, np.zeros(len(index)))[index[a.recipe]] += a.time
    spans = {tool: x.sum() - flows.solve_maxflow(x, g).value for tool, x in times.items()}
    return max(spans.items(), key=lambda item: item[1], default=(None, 0.0))


def _cmd_verify(args) -> int:
    inst = instances.read_instance(args.instance)
    checks = verify_instance(inst, samples=args.samples, seed=args.seed)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = not all(ok for _, ok, _ in checks)
    print("FAIL" if failed else "PASS")
    return int(failed)


def _bench_instance(path: str, kinds: list[str], reps: int) -> list[BenchRecord]:
    records: list[BenchRecord] = []
    try:
        inst = instances.read_instance(path)
    except (ClusterCapError, OSError) as exc:
        return [BenchRecord(path, {}, kind, 0, error=str(exc)) for kind in kinds]
    params = instances.parse_generated_name(inst.name) or {}
    matrix = None
    for kind in kinds:
        for rep in range(reps):
            try:
                # read once, outside the timed solve; a chamber count with
                # no cut matrix fails each generalized record, not the run
                if kind == "generalized" and matrix is None:
                    matrix = cuts_mod.reduced_matrix(inst.chambers)
                res = models.solve_capacity(
                    inst, kind, matrix=matrix if kind == "generalized" else None
                )
                records.append(BenchRecord(inst.name, params, kind, rep, res))
            except ClusterCapError as exc:
                records.append(BenchRecord(inst.name, params, kind, rep, error=str(exc)))
    return records


def run_bench(
    instance_paths: list[str],
    kinds: list[str],
    reps: int = 3,
    workers: int = 1,
) -> tuple[list[BenchRecord], list[dict]]:
    """One record per (instance, model, repetition) plus per-instance summary.

    Speedup is median generalized solve time over median alternative solve
    time, so values above 1 mean the alternative model is faster.
    """
    if not kinds:
        raise DomainError("no model kinds given")
    for kind in kinds:
        if kind not in models.MODEL_KINDS:
            raise DomainError(f"unknown model kind {kind!r}")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        groups = list(
            pool.map(lambda path: _bench_instance(path, kinds, reps), instance_paths)
        )
    records = [rec for group in groups for rec in group]
    summaries = []
    for group in groups:
        if not group:
            continue
        by_kind: dict[str, list[BenchRecord]] = {}
        for rec in group:
            if rec.result is not None:
                by_kind.setdefault(rec.model, []).append(rec)
        gen = by_kind.get("generalized")
        alt = by_kind.get("alternative")
        if not gen or not alt:
            continue
        speedup = statistics.median(r.result.solve_ms for r in gen) / max(
            statistics.median(r.result.solve_ms for r in alt), 1e-9
        )
        summaries.append(
            {
                "instance": group[0].instance,
                "params": group[0].params,
                "speedup_gen_over_alt": speedup,
                "nonzeros_gen_over_alt": gen[0].result.stats.nonzeros
                / max(alt[0].result.stats.nonzeros, 1),
            }
        )
    return records, summaries


def render_bench_csv(records: list[BenchRecord], summaries: list[dict]) -> str:
    """One row per record, then one per summary; missing cells are empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, BENCH_HEADER, restval="", lineterminator="\n")
    writer.writeheader()
    for r in records:
        res = r.result or _NO_RESULT
        writer.writerow(
            {
                **r.params,
                "record_type": "bench",
                "instance": r.instance,
                "model": r.model,
                "rep": r.rep,
                "rows": res.stats.rows,
                "cols": res.stats.columns,
                "nonzeros": res.stats.nonzeros,
                "build_ms": f"{res.build_ms:.3f}",
                "solve_ms": f"{res.solve_ms:.3f}",
                "rho": "" if r.result is None else f"{res.rho:.9g}",
                "status": r.status,
                "iterations": res.iterations,
                "rounds": res.rounds,
            }
        )
    for s in summaries:
        writer.writerow(
            {
                **s["params"],
                "record_type": "summary",
                "instance": s["instance"],
                "speedup_gen_over_alt": f"{s['speedup_gen_over_alt']:.4f}",
                "nonzeros_gen_over_alt": f"{s['nonzeros_gen_over_alt']:.4f}",
            }
        )
    return buf.getvalue()


def _cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    records, summaries = run_bench(args.instances, kinds, reps=args.reps, workers=args.workers)
    _write_text(args.out, render_bench_csv(records, summaries))
    return 0


def _cmd_export_lp(args) -> int:
    inst = instances.read_instance(args.instance)
    model = models.build_model(inst, args.model)
    _write_text(args.out, lp.export_lp_text(model.problem))
    return 0


_HANDLERS = {
    "cuts": _cmd_cuts,
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "export-lp": _cmd_export_lp,
}


def cli(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ClusterCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
