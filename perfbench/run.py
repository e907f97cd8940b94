"""clustercap benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cuts-cold|plan-n5|verify-n5 \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports clustercap from
`src/` and fails if that is missing.  A run sets up its workload, then
repeats the workload's pass in a closed loop while another pass fits in
`--seconds` (at least once), checking every output.  The last stdout line
is one JSON object with `correct`, `attempted`, `failed` and the metrics
listed in BENCHMARK.json:

* `--trace 0`, end to end: `setup_s`, the median wall time of three fresh
  interpreters doing the imports, instance generation and matrix loading;
  `pass_s`, the median wall time of one pass; `peak_rss_mb`, the peak
  resident memory through set-up and the first pass.
* `--trace 1`, per layer: from the spans the benchmark records around its
  own calls into each clustercap module (see workloads.layer_metrics).

A record of the machine, library versions, thread caps, seed, per-pass
details and failures goes to `.bench_out/<run>/record.json`, the spans of
a traced run beside it.  Load is one process with BLAS/OpenMP pools capped
at one thread.  Every cut-matrix cache the run touches is a fresh
directory inside `.bench_out`; the user cache and an inherited
CLUSTERCAP_CACHE are never used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import NullTracer, Tracer, span_cost_s

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _parser(contract: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _import_program():
    if not (SRC / "clustercap" / "__init__.py").is_file():
        raise SystemExit(f"error: no clustercap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports clustercap

    loaded = Path(workloads.cuts.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"error: clustercap imported from {loaded}, not {SRC}")
    return workloads


def _fresh_dir(tag: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))


def _setup_only(args) -> int:
    """Child mode: import, set up once into a scratch directory, exit."""
    workloads = _import_program()
    work = _fresh_dir(f"setup-{args.workload}")
    try:
        workloads.WORKLOADS[args.workload]().setup(ROOT, work, args.seed, NullTracer())
    finally:
        shutil.rmtree(work)
    return 0


def _time_setup(args) -> list[float]:
    """Wall times of fresh interpreters that import and set up the workload."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def _environment(args) -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return {}

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else ""
    except OSError:
        pass
    np_blas = blas(numpy.show_config)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{np_blas.get('name', '?')} {np_blas.get('version', '?')}",
        "scipy_blas": blas(scipy.show_config).get("version", "?"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _trace_cost(tracer, pass_s: float) -> dict[str, float]:
    """The traced pass time (compare with an untraced run's `pass_s`) and the
    share of it spent recording spans, from the measured cost of one span."""
    passes = tracer.find("pass")
    inside = sum(
        1
        for s in tracer.spans
        if s["name"] != "pass" and any(p["start"] <= s["start"] <= p["end"] for p in passes)
    )
    busy = sum(p["end"] - p["start"] for p in passes)
    return {
        "trace.pass_s": pass_s,
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100.0 * inside * span_cost_s() / busy,
    }


def main(argv=None) -> int:
    contract = _load_contract()
    args = _parser(contract).parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    if args.setup_only:
        return _setup_only(args)
    workloads = _import_program()
    run_dir = _fresh_dir(f"{args.workload}-s{args.seed}-t{args.trace}")
    work = run_dir / "work"
    cache = work / "cut-cache"
    cache.mkdir(parents=True)
    # An inherited cache location is dropped; anything that falls back to the
    # default location lands in this run's own empty directory instead.
    os.environ[workloads.cuts.CACHE_ENV_VAR] = str(cache)
    tracer = Tracer() if args.trace else NullTracer()
    outcome = workloads.Outcome()
    workload = workloads.WORKLOADS[args.workload]()
    try:
        setup_samples = [] if args.trace else _time_setup(args)  # traced runs skip setup_s
        t0 = time.perf_counter()
        workload.setup(ROOT, work, args.seed, tracer)
        main_setup_s = time.perf_counter() - t0

        details: list[dict] = []
        t_start = time.perf_counter()
        while not details or (
            time.perf_counter() - t_start + statistics.median(d["pass_s"] for d in details)
            <= args.seconds
        ):
            with tracer.span("pass", k=len(details)):
                details.append(workload.run_pass(len(details), tracer, outcome))
            if len(details) == 1:
                # Later passes only add allocator drift that depends on how
                # many passes fit in the run, not on the work.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            workload.probe(tracer, outcome)
        left = sorted(p.name for p in cache.iterdir())
        outcome.check(not left, f"the default cut cache was used: {left}")

        summary = {
            key: statistics.median(d[key] for d in details) for key in details[0]
        }
        if args.trace:
            values = workloads.layer_metrics(tracer, len(details))
            values.update(_trace_cost(tracer, summary["pass_s"]))
            wanted = contract["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup_samples),
                "pass_s": summary["pass_s"],
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = contract["end_to_end"]
        metrics = {
            m["name"]: {
                "value": (int if m["unit"] == "count" else float)(values[m["name"]]),
                "unit": m["unit"],
            }
            for m in wanted
        }

        record = {
            "workload": args.workload,
            "why": {w["name"]: w["why"] for w in contract["workloads"]},
            "environment": _environment(args),
            "setup_samples_s": setup_samples,
            "main_setup_s": main_setup_s,
            "passes": details,
            "summary": summary,
            "peak_rss_mb": peak_rss_mb,
            "peak_rss_mb_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "error_rate": outcome.failed / max(outcome.attempted, 1),
            "problems": outcome.problems,
            "metrics": metrics,
        }
        with open(run_dir / "record.json", "w") as fh:
            json.dump(record, fh, indent=2)
        if args.trace:
            tracer.write(run_dir / "spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, value in summary.items():
        print(f"{args.workload} {key} {value:.6g}")
    print(
        f"{args.workload} error_rate {record['error_rate']:.6g}"
        f" ({outcome.failed}/{outcome.attempted})"
    )
    for problem in outcome.problems:
        print(f"{args.workload} problem: {problem}")
    print(f"record: {run_dir / 'record.json'}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
