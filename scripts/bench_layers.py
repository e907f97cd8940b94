#!/usr/bin/env python3
"""Time one layer of the pipeline; merge the run into BENCH_<layer>.json.

    python scripts/bench_layers.py oracles --label after --repeats 3
    python scripts/bench_layers.py reduce --label after --repeats 5
    python scripts/bench_layers.py solve --label after --repeats 3
    python scripts/bench_layers.py startup --label after --repeats 5

Each layer is timed `--repeats` times; the medians go into the JSON file
(`--out`, by default `BENCH_<layer>.json` at the repository root) under
`--label`, next to the runs stored under other labels, and the file's `what`
line is the first line of the layer's docstring.  A layer exits non-zero
when its own check fails.  `--src` times the package of another checkout
with the same API under the same script, e.g. a parent commit.  BLAS threads
are capped at one, as in the benchmark.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # after the thread caps: BLAS reads them when it loads

ROOT = Path(__file__).resolve().parents[1]
N5_COPY = ROOT / "perfbench" / "data" / "cuts_n5.csv"


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def traced_build(inst, kind, matrix) -> tuple[float, float]:
    """The model `solve_capacity` builds for `kind` (for generalized, the
    model with one cut row per tool): the tracemalloc size, in MB, that the
    built model holds, and the traced peak of its build.  One untraced build
    goes first, so that what a build leaves cached counts in neither."""
    from clustercap import models

    def build():
        if kind == "generalized":
            return models._generalized(inst, matrix, full=False)
        return models.build_model(inst, kind, matrix)

    build()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model = build()  # alive while the size it holds is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (held - start) / 2**20, (peak - start) / 2**20


def watch_highs() -> dict:
    """Wrap `lp._run`, the one place HiGHS solves, to sum the time ("s") and
    iterations of its runs and record the rows and nonzeros HiGHS held at
    each ("rows", "nonzeros"), and `lp.Handle.__init__`, where a handle
    loads its LP into HiGHS, to sum the time spent in it ("load_s"); the
    returned dict holds the sums, which the caller resets."""
    from clustercap import lp

    highs = {"s": 0.0, "iterations": 0, "rows": [], "nonzeros": [], "load_s": 0.0}
    run_highs, init = lp._run, lp.Handle.__init__

    def watched_init(handle, *args, **kwargs):
        t = time.perf_counter()
        try:
            init(handle, *args, **kwargs)
        finally:
            highs["load_s"] += time.perf_counter() - t

    def watched_run(handle):
        t = time.perf_counter()
        try:
            answer = run_highs(handle)
        finally:
            highs["s"] += time.perf_counter() - t
            highs["rows"].append(handle.highs.getNumRow())
            highs["nonzeros"].append(handle.highs.getNumNz())
        highs["iterations"] += answer.iterations
        return answer

    lp._run = watched_run
    lp.Handle.__init__ = watched_init
    return highs


def oracles(repeats):
    """Time one call of each pairing oracle at three to five chambers; write BENCH_oracles.json.

    Oracles: `solve_maxflow` (augmenting paths), `solve_parallelization_lp`
    (the pairing LP on HiGHS) and `makespan_via_cuts` (the worst row of the
    reduced cut matrix).  Allocations are drawn as `clustercap verify` draws
    them: uniform on [0, 10] with about 30 % of the entries zeroed, from a
    fixed seed per chamber count, 64 per chamber count (as many as verify-n5
    draws per pass).  Every call is timed on its own; per-call medians in ms.
    The matrices are the checked-in reduced ones (`tests/data` for n = 3, 4,
    `perfbench/data` for n = 5).  Fails if, on any draw, sum(x) minus the
    flow value differs from the cut-row makespan, or the pairing LP from the
    flow value, by more than 1e-6.
    """
    from clustercap import build_parallel_graph, cuts, flows

    draws, tol = 64, 1e-6
    results = {}
    for n in (3, 4, 5):
        path = N5_COPY if n == 5 else ROOT / "tests" / "data" / f"cuts_n{n}_reference.csv"
        matrix = cuts.read_matrix_csv(path, reduced=True)
        g = build_parallel_graph(n)
        m = len(g.recipes)
        rng = np.random.default_rng(1000 + n)
        xs = rng.uniform(0.0, 10.0, (draws, m)) * (rng.random((draws, m)) < 0.7)
        ms = {"maxflow_ms": [], "pairing_lp_ms": [], "cut_rows_ms": []}
        max_dev = 0.0
        for _ in range(repeats):
            for x in xs:
                flow, t_flow = timed(flows.solve_maxflow, x, g)
                (_, paired), t_lp = timed(flows.solve_parallelization_lp, x, g)
                span, t_cuts = timed(flows.makespan_via_cuts, x, matrix)
                for key, t in zip(ms, (t_flow, t_lp, t_cuts)):
                    ms[key].append(t * 1e3)
                dev = max(abs((x.sum() - flow.value) - span), abs(paired - flow.value))
                max_dev = max(max_dev, dev)
        entry = {key: round(statistics.median(v), 4) for key, v in ms.items()}
        entry.update(draws=draws, max_dev=max_dev)
        results[f"n={n}"] = entry
        print(f"n={n}", json.dumps(entry), flush=True)
        if not max_dev <= tol:
            sys.exit(f"n={n}: the oracles differ by {max_dev:.2e} (more than {tol:g})")
    return {"chambers": results}


def reduce(repeats):
    """Time each stage of the cold five-chamber cut reduction; write BENCH_reduce.json.

    Stages, in the order `build_cut_matrix` runs them: enumerate (the closed
    sets of the doubled graph, by intersection closure), collapse (the copy
    counts of their covers and the distinct rows), orbits (the 120 chamber
    relabelings, the one sort of the rows and their representatives under
    the relabelings), perceptron (certificates and midpoint exits on the
    representatives, each verdict spread over its orbit) and lps (separation
    LPs on the rows left neither certified nor dropped).  Counts: covers,
    raw rows, orbits, the representatives certified and dropped by the
    perceptron, LPs run and rows kept; `lp_iterations` sums the HiGHS
    iterations of the LPs.  Stage times are medians in s.  Fails if the kept
    rows differ from the checked-in five-chamber matrix.
    """
    from clustercap import cuts, recipes, redundancy

    highs = watch_highs()
    reference = set(cuts.read_matrix_csv(N5_COPY, reduced=True).coeff_rows())
    stages = ("enumerate", "collapse", "orbits", "perceptron", "lps")
    runs = []
    for _ in range(repeats):
        highs["iterations"] = 0
        secs = {}
        t = time.perf_counter()
        g = cuts.build_parallel_graph(5)
        nbr = cuts._neighbours(cuts.double_graph(g))
        sets = cuts._closed_sets(nbr, cuts.DEFAULT_NODE_BUDGET)
        secs["enumerate"] = time.perf_counter() - t
        t = time.perf_counter()
        counts = cuts._collapse(cuts._cover_counts(sets, nbr))
        secs["collapse"] = time.perf_counter() - t
        t = time.perf_counter()
        perms = recipes.chamber_permutations(5)
        arr, keys = redundancy._sort_distinct(1.0 - counts / 2)
        rep_of = redundancy._representatives(arr, keys, perms)
        secs["orbits"] = time.perf_counter() - t
        t = time.perf_counter()
        reps = rep_of == np.arange(len(arr))
        certified, dropped = redundancy._perceptron(arr, reps)
        settled, alive = certified[rep_of], ~dropped[rep_of]
        secs["perceptron"] = time.perf_counter() - t
        # separate_remaining clears the rows it finds redundant from `alive`
        lps, secs["lps"] = timed(redundancy.separate_remaining, arr, alive, settled)
        counts = {
            "covers": len(sets),
            "raw_rows": len(arr),
            "orbits": int(reps.sum()),
            "certified": int(certified.sum()),
            "dropped": int(dropped.sum()),
            "lps": lps,
            "kept": int(alive.sum()),
        }
        if set(map(tuple, arr[alive].tolist())) != reference:
            sys.exit(f"kept rows differ from {N5_COPY.name}: {counts['kept']} vs {len(reference)}")
        runs.append(secs)
        print(" ".join(f"{k}={secs[k]:.4f}" for k in stages), counts, flush=True)
    stage_s = {k: round(statistics.median(r[k] for r in runs), 4) for k in stages}
    return {
        "stage_s": stage_s,
        "reduce_s": round(sum(stage_s[k] for k in stages[2:]), 4),
        "total_s": round(sum(stage_s.values()), 4),
        "counts": counts,
        "lp_iterations": highs["iterations"],
        "matches_reference": True,
    }


def solve(repeats):
    """Time the HiGHS solves of the cut models on the benchmark's instances; write BENCH_solve.json.

    Instances: the three plan-n5 instances (sizecat 2, n = 5: shapes 1:4,
    1:1 with 3 locked chambers, 4:1) and the two verify-n5 ones (sizecat 0
    1:1 and sizecat 1 1:4, 3 locked), all from generator seed 1, as in
    `perfbench/workloads.py`.  The n = 5 matrix is the checked-in copy.

    Variants, each timed from model build to checked answer:

    * gen_full     the full generalized LP in one dual-simplex run;
    * gen_rows     the generalized model by row generation (`solve_capacity`);
    * alt_simplex  the alternative model in one dual-simplex run;
    * alt_ipm      the alternative model under IPM with crossover.

    For each: build_s, solve_s (everything after the build: HiGHS,
    separation, contract check), highs_s (inside HiGHS runs alone), load_s
    (inside `Handle.__init__`, loading the LP into HiGHS), iterations,
    rounds, rows added by row generation, nonzeros (all HiGHS was handed:
    the model it started with plus the rows added), and rho; gen_rows also
    has extract_s, the rest of `solve_capacity` (result extraction).  Per
    instance, build_s holds the best of max(10, repeats) back-to-back
    `models.build_model` calls of each of the four model kinds, timed for
    all of them before the first HiGHS run, so that it resolves a change of
    a few ms.  It is the build_s of gen_full and of both alternative
    variants.  gen_rows reports the least build time `solve_capacity`
    itself records over its repeats, for that is the build it runs.  The
    other times are medians of the repeats, in s; counts repeat exactly.
    Per instance and model kind, model_mb is the tracemalloc size that the
    model `solve_capacity` builds holds, and build_peak_mb the traced peak
    of that build, both in MB (see `traced_build`).  Fails if rho of
    gen_rows differs from gen_full, or alt_ipm from alt_simplex, by more
    than 1e-9 relative.
    """
    from clustercap import cuts, instances, lp, models

    # name -> (sizecat, shape, locked); density 2, five chambers, seed 1
    todo = {
        "plan_1:4": (2, "1:4", 0),
        "plan_1:1_L3": (2, "1:1", 3),
        "plan_4:1": (2, "4:1", 0),
        "verify_s0_1:1_L3": (0, "1:1", 3),
        "verify_s1_1:4_L3": (1, "1:4", 3),
    }
    highs = watch_highs()

    def single(method):
        def run(inst, kind, matrix):
            built = models.build_model(inst, kind, matrix)
            sol, solve_s = timed(lp.solve, built.problem, method)
            return {"solve_s": solve_s}, sol.objective, sol.iterations, 1

        return run

    def by_rows(inst, kind, matrix):
        res, wall = timed(models.solve_capacity, inst, kind, matrix)
        build, solve = res.build_ms / 1e3, res.solve_ms / 1e3
        times = {"build_s": build, "solve_s": solve, "extract_s": wall - build - solve}
        return times, res.rho, res.iterations, res.rounds

    variants = {
        "gen_full": ("generalized", single(lp.SIMPLEX)),
        "gen_rows": ("generalized", by_rows),
        "alt_simplex": ("alternative", single(lp.SIMPLEX)),
        "alt_ipm": ("alternative", single(lp.IPM)),
    }
    matrix = cuts.read_matrix_csv(N5_COPY, reduced=True)
    insts = {
        name: instances.generate(instances.GenParams(sizecat, shape, locked, 2, 5, 1))
        for name, (sizecat, shape, locked) in todo.items()
    }
    builds = range(max(10, repeats))
    build_s = {
        name: {
            kind: round(min(timed(models.build_model, inst, kind, matrix)[1] for _ in builds), 4)
            for kind in models.MODEL_KINDS
        }
        for name, inst in insts.items()
    }
    results = {}
    for name, inst in insts.items():
        got = results[name] = {"build_s": build_s[name], "model_mb": {}, "build_peak_mb": {}}
        for kind in models.MODEL_KINDS:
            held, peak = traced_build(inst, kind, matrix)
            got["model_mb"][kind], got["build_peak_mb"][kind] = round(held, 3), round(peak, 3)
        for key in ("build_s", "model_mb", "build_peak_mb"):
            print(name, key, json.dumps(got[key]), flush=True)
        for variant, (kind, run) in variants.items():
            samples = []
            for _ in range(repeats):
                highs.update(s=0.0, rows=[], nonzeros=[], load_s=0.0)
                times, rho, iterations, rounds = run(inst, kind, matrix)
                samples.append({**times, "highs_s": highs["s"], "load_s": highs["load_s"]})
            entry = {"build_s": build_s[name][kind]}
            for key in samples[0]:
                pick = min if key == "build_s" else statistics.median
                entry[key] = round(pick(s[key] for s in samples), 4)
            added = highs["rows"][-1] - highs["rows"][0]
            entry.update(iterations=iterations, rounds=rounds, rows_added=added)
            entry.update(nonzeros=highs["nonzeros"][-1], rho=rho)
            got[variant] = entry
            print(name, variant, json.dumps(entry), flush=True)
        for fast, slow in (("gen_rows", "gen_full"), ("alt_ipm", "alt_simplex")):
            a, b = got[fast]["rho"], got[slow]["rho"]
            gap = got[fast]["rho_gap"] = abs(a - b) / max(1.0, abs(b))
            if not gap <= 1e-9:
                sys.exit(f"{name}: {fast} rho {a!r} vs {slow} {b!r} (rel gap {gap:.2e})")
    return {"instances": results}


def run_child(argv, env) -> tuple[float, float]:
    """Run one child process to its end, waited for with `os.wait4`: its
    wall time in s and its own peak resident memory in MB."""
    t = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv)
    return wall, usage.ru_maxrss / 1024


def startup(repeats):
    """Time fresh interpreters that import clustercap, solve the shipped instance, bench the plan instances or build the n = 5 cut matrix; write BENCH_startup.json.

    Commands, each run in a new interpreter with PYTHONPATH set to `--src`:

    * import  `python -c "import clustercap"`;
    * solve   `python -m clustercap.cli solve --model generalized
              tests/data/example1.json`, which reads the n = 3 cut matrix
              the package ships;
    * plan    `python -m clustercap.cli bench --reps 1 --models
              generalized,alternative` on perfbench's three plan-n5
              instances (sizecat 2, density 2, 5 chambers, seed 1: shapes
              1:4, 1:1 with 3 locked chambers, 4:1), written once beforehand
              with `clustercap gen` of `--src`;
    * cuts    `python -m clustercap.cli cuts --chambers 5`, the cold
              n = 5 build, which solves no LP, its CSV to stdout.

    For each: wall_s, the median wall time of `--repeats` runs, in s;
    max_rss_mb, the largest of the runs' own peak resident memory, each
    read from `os.wait4` as its child ends; scipy, whether the child
    imported scipy at all, and scipy_optimize and scipy_sparse, whether any
    module of `scipy.optimize` or of `scipy.sparse` was imported, from one
    more run under `python -X importtime`, which counts in no number.
    Fails if a run fails.
    """
    import clustercap  # from `--src`, as the other layers import it

    env = {**os.environ, "PYTHONPATH": str(Path(clustercap.__file__).parents[1])}
    results = {}
    with tempfile.TemporaryDirectory() as plans:
        paths = []
        for shape, locked in (("1:4", 0), ("1:1", 3), ("4:1", 0)):
            paths.append(str(Path(plans, f"plan_{shape.replace(':', 'to')}_l{locked}.json")))
            subprocess.run(
                [sys.executable, "-m", "clustercap.cli", "gen", "--sizecat", "2", "--shape", shape,
                 "--locked", str(locked), "--density", "2", "--chambers", "5", "--seed", "1",
                 "--out", paths[-1]],
                env=env, cwd=ROOT, check=True,
            )
        commands = {
            "import": ["-c", "import clustercap"],
            "solve": ["-m", "clustercap.cli", "solve", "--model", "generalized",
                      str(ROOT / "tests" / "data" / "example1.json")],
            "plan": ["-m", "clustercap.cli", "bench", "--reps", "1",
                     "--models", "generalized,alternative", *paths],
            "cuts": ["-m", "clustercap.cli", "cuts", "--chambers", "5"],
        }
        for name, words in commands.items():
            traced = subprocess.run(
                [sys.executable, "-X", "importtime", *words],
                env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            )
            times, rss_mb = zip(*(run_child([sys.executable, *words], env) for _ in range(repeats)))
            # a subpackage, or any module in it (`from scipy import sparse`
            # leaves no line of `scipy.sparse` itself)
            imported = set(re.findall(r"\|\s*(scipy(?:\.\w+)?)", traced.stderr))
            entry = results[name] = {
                "wall_s": round(statistics.median(times), 4),
                "max_rss_mb": round(max(rss_mb), 1),
                "scipy": bool(imported),
                "scipy_optimize": "scipy.optimize" in imported,
                "scipy_sparse": "scipy.sparse" in imported,
            }
            print(name, json.dumps(entry), flush=True)
    return {"commands": results}


LAYERS = {"oracles": oracles, "reduce": reduce, "solve": solve, "startup": startup}


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), "")


def tree_label(src) -> str:
    """The commit holding `src`, by `git describe`, with `-dirty` when a
    tracked file other than a BENCH_*.json file at the root differs from it:
    the file an earlier run of this script rewrote does not count."""

    def git(*words):
        return subprocess.run(["git", "-C", src, *words], capture_output=True, text=True).stdout

    changed = git("diff", "--name-only", "HEAD").splitlines()
    dirty = any(not re.fullmatch(r"BENCH_[^/]*\.json", path) for path in changed)
    return git("describe", "--always").strip() + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--label", required=True, help="key of this run in the JSON file")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="JSON file to merge into (default BENCH_<layer>.json)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    import scipy

    layer = LAYERS[args.layer]
    entry = {"tree": tree_label(args.src), "repeats": args.repeats, **layer(args.repeats)}
    out = Path(args.out or ROOT / f"BENCH_{args.layer}.json")
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["what"] = layer.__doc__.split("\n")[0]
    doc.setdefault("host", {}).update(
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        cpu=cpu_model(),
        nproc=os.cpu_count(),
        blas_threads=os.environ["OPENBLAS_NUM_THREADS"],
    )
    doc.setdefault("runs", {})[args.label] = entry
    out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
