"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
expensive five-chamber reduction runs once per session and is reused.
"""

import time

import numpy as np

from clustercap import (
    build_parallel_graph,
    is_redundant_lp,
    lp,
    makespan_via_cuts,
    read_matrix_csv,
    reduce_to_minimal,
    solve_capacity,
    solve_maxflow,
    solve_parallelization_lp,
)
from clustercap import models as models_mod
from clustercap.cli import cli
from clustercap.instances import GenParams, generate
from clustercap.models import build_model, predict_sizes

from conftest import DATA, random_instance
from lp_oracles import read_lp_text
from redundancy_oracles import is_redundant_hull, lp_problem_for

EXPECTED_ROW_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23, 5: 590}
REFERENCE_NONZEROS = {1: 1, 2: 4, 3: 22, 4: 245, 5: 13740}
REFERENCE_DELTA = {1: 0, 2: -2, 3: 1, 4: 188, 5: 14088}
REFERENCE_GAMMA = {1: 3, 2: 10, 3: 33, 4: 106, 5: 333}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_cut_matrix_ground_truth(tmp_path, monkeypatch):
    monkeypatch.setenv("CLUSTERCAP_CACHE", str(tmp_path))
    start = time.perf_counter()
    out3 = tmp_path / "m3.csv"
    out4 = tmp_path / "m4.csv"
    assert cli(["cuts", "--chambers", "3", "--out", str(out3)]) == 0
    assert cli(["cuts", "--chambers", "4", "--out", str(out4)]) == 0
    elapsed = time.perf_counter() - start
    ok = True
    details = []
    for n, out in ((3, out3), (4, out4)):
        got = read_matrix_csv(out, reduced=True)
        want = read_matrix_csv(f"{DATA}/cuts_n{n}_reference.csv", reduced=True)
        rows_equal = set(got.rows) == set(want.rows) and got.labels == want.labels
        ok = ok and rows_equal and len(got.rows) == EXPECTED_ROW_COUNTS[n]
        details.append(f"n={n}: {len(got.rows)} rows {'==' if rows_equal else '!='} reference")
    ok = ok and elapsed < 10.0
    report(1, "cut-matrix ground truth", ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_2_row_count_sequence(matrices, cuts5):
    matrix5, elapsed5 = cuts5
    all_m = dict(matrices)
    all_m[5] = matrix5
    ok = True
    details = []
    for n in range(1, 6):
        rows = len(all_m[n].rows)
        ok = ok and rows == EXPECTED_ROW_COUNTS[n]
        details.append(f"|K|({n})={rows}")
    ok = ok and elapsed5 < 600.0
    details.append(f"n=5 fresh build {elapsed5:.1f}s")
    for n in range(1, 6):
        nz = all_m[n].nonzeros()
        if n == 3:
            flagged = "documented off-by-one vs reference tally 22" if nz == 23 else "UNEXPECTED"
            details.append(f"nz(3)={nz} [{flagged}]")
            ok = ok and nz == 23
        else:
            if nz != REFERENCE_NONZEROS[n]:
                offending = [
                    row for row in all_m[n].coeff_rows() if any(v != 0 for v in row)
                ]
                details.append(f"nz({n})={nz} != {REFERENCE_NONZEROS[n]}; rows: {offending}")
                ok = False
            else:
                details.append(f"nz({n})={nz}")
    report(2, "reduced row counts and nonzero tallies", ok, "; ".join(details))


def test_criterion_3_redundancy_example():
    cut_1 = (1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    cut_2 = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    cut_3 = (1.0, 1.0, 0.5, 0.5, 0.0, 0.0)
    by_lp = is_redundant_lp(cut_3, [cut_1, cut_2])
    by_hull = is_redundant_hull(cut_3, [cut_1, cut_2])
    sol = lp.solve(lp_problem_for(cut_3, [cut_1, cut_2]))
    lam = np.array(by_hull.witness) if by_hull.witness is not None else None
    lam_ok = lam is not None and np.allclose(lam, [0.5, 0.5], atol=1e-9)
    ok = by_lp.redundant and by_hull.redundant and sol.status == lp.INFEASIBLE and lam_ok
    report(
        3,
        "redundancy example by both criteria",
        ok,
        f"lp={by_lp.redundant}, hull={by_hull.redundant}, lambda={by_hull.witness}",
    )


def test_criterion_4_oracle_triple_equality(matrices):
    start = time.perf_counter()
    worst_cut_gap = 0.0
    worst_lp_gap = 0.0
    for n in (2, 3, 4):
        g = build_parallel_graph(n)
        rng = np.random.default_rng(1000 + n)
        for _ in range(1000):
            x = rng.uniform(0.0, 10.0, len(g.recipes))
            x *= rng.random(len(g.recipes)) < 0.7
            flow = solve_maxflow(x, g)
            span = makespan_via_cuts(x, matrices[n])
            _, objective = solve_parallelization_lp(x, g)
            worst_cut_gap = max(worst_cut_gap, abs((x.sum() - flow.value) - span))
            worst_lp_gap = max(worst_lp_gap, abs(objective - flow.value))
    elapsed = time.perf_counter() - start
    ok = worst_cut_gap <= 1e-6 and worst_lp_gap <= 1e-6 and elapsed < 60.0
    report(
        4,
        "oracle triple equality (3000 samples)",
        ok,
        f"cut gap {worst_cut_gap:.2e}, lp gap {worst_lp_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_model_equivalence(matrices):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 5))
        inst = random_instance(rng, n, max_tools=5, max_jobs=5)
        res_g = solve_capacity(inst, "generalized", matrix=matrices[n])
        res_a = solve_capacity(inst, "alternative")
        assert res_g.status == res_a.status == lp.OPTIMAL
        worst = max(worst, abs(res_g.rho - res_a.rho) / max(1.0, abs(res_g.rho)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 300.0
    report(
        5,
        "generalized vs alternative on 100 instances",
        ok,
        f"worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_reference_instance(matrices):
    from clustercap import read_instance

    inst = read_instance(f"{DATA}/example1.json")
    rho_g = solve_capacity(inst, "generalized", matrix=matrices[3]).rho
    rho_a = solve_capacity(inst, "alternative").rho
    ok = abs(rho_g - 330.0) <= 1e-6 and abs(rho_a - 330.0) <= 1e-6
    report(6, "shipped instance solves to 330", ok, f"generalized={rho_g}, alternative={rho_a}")


def test_criterion_7_size_formula_audit(matrices, cuts5):
    matrix5, _ = cuts5
    all_m = dict(matrices)
    all_m[5] = matrix5
    ok = True
    details = []
    for n in range(1, 6):
        k_rows = len(all_m[n].rows)
        nz = all_m[n].nonzeros()
        delta = 1 + k_rows + nz - 3**n
        gamma = (3 ** (n + 1) - 2 ** (n + 1) + 1) // 2
        if n == 3:
            # built matrices give 2; the reference value 1 inherits the
            # reference n=3 nonzero tally (22 vs the matrix's actual 23)
            flag = "flagged: reference 1 assumes the off-by-one tally"
            ok = ok and delta == 2
            details.append(f"delta(3)={delta} [{flag}]")
        else:
            ok = ok and delta == REFERENCE_DELTA[n]
            details.append(f"delta({n})={delta}")
        ok = ok and gamma == REFERENCE_GAMMA[n]
    pred = predict_sizes("alternative", 3, 1, 1, 7)
    details.append(
        f"nonzero_alt listing={pred.nonzeros} vs gamma form={pred.nonzeros_gamma} "
        "[flagged: reference counts disagree with each other]"
    )
    ok = ok and pred.nonzeros == 48 and pred.nonzeros_gamma == 47
    report(7, "size-formula audit", ok, "; ".join(details))


def test_criterion_8_size_ratio_trend(matrices, cuts5):
    # all chambers released and at least the reference smallest size class,
    # where the qualification entries dominate the per-tool constants
    matrix5, _ = cuts5
    all_m = dict(matrices)
    all_m[5] = matrix5
    ok = True
    details = []
    for sizecat, shape in ((1, "1:4"), (2, "1:1")):
        for density in (2, 3):
            ratios = {}
            for n in (3, 4, 5):
                inst = generate(
                    GenParams(
                        sizecat=sizecat,
                        shape=shape,
                        locked=0,
                        density=density,
                        chambers=n,
                        seed=7,
                    )
                )
                gen_built = build_model(inst, "generalized", matrix=all_m[n])
                alt_built = build_model(inst, "alternative")
                ratios[n] = gen_built.stats.nonzeros / alt_built.stats.nonzeros
            band = 0.98 <= ratios[3] <= 1.05
            rising = ratios[3] < ratios[4] < ratios[5]
            ok = ok and band and rising
            details.append(
                f"s{sizecat}/{shape}/d{density}: "
                + ", ".join(f"n={n}:{ratios[n]:.3f}" for n in (3, 4, 5))
            )
    report(8, "size-ratio band at n=3 and growth in n", ok, "; ".join(details))


def test_criterion_9_property_suites(matrices):
    rng = np.random.default_rng(9)
    checks = []

    agree = True
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        b = rng.choice([0.0, 0.5, 1.0, 1.5], size=dim)
        a_set = rng.choice([0.0, 0.5, 1.0, 1.5], size=(int(rng.integers(1, 6)), dim))
        agree = agree and (
            is_redundant_lp(b, a_set).redundant == is_redundant_hull(b, a_set).redundant
        )
    checks.append(("redundancy criteria agree", agree))

    half = all(
        v in (0.0, 0.5, 1.0) for n in (1, 2, 3, 4) for row in matrices[n].rows for v in row
    )
    checks.append(("half-integrality", half))

    inst = random_instance(rng, 3)
    base = solve_capacity(inst, "alternative").rho
    scaled_inst = models_mod.Instance(
        name=inst.name,
        chambers=inst.chambers,
        tools=inst.tools,
        jobs=tuple(models_mod.Job(j.id, 2.5 * j.demand) for j in inst.jobs),
        qualifications=inst.qualifications,
    )
    scaled = solve_capacity(scaled_inst, "alternative").rho
    checks.append(("demand scaling", abs(scaled - 2.5 * base) <= 1e-6 * max(1.0, scaled)))

    monotone = True
    for _ in range(3):
        inst = random_instance(rng, 3, max_tools=3, max_jobs=3)
        victim = next((q for q in inst.qualifications if len(q.chamber_rates) > 1), None)
        if victim is None:
            continue
        smaller = models_mod.Instance(
            name=inst.name,
            chambers=inst.chambers,
            tools=inst.tools,
            jobs=inst.jobs,
            qualifications=tuple(
                q
                if q is not victim
                else models_mod.Qualification(q.job, q.tool, q.chamber_rates[1:])
                for q in inst.qualifications
            ),
        )
        before = solve_capacity(inst, "generalized", matrix=matrices[3]).rho
        after = solve_capacity(smaller, "generalized", matrix=matrices[3]).rho
        monotone = monotone and after >= before - 1e-7
    checks.append(("qualification monotonicity", monotone))

    from clustercap import cuts_to_matrix, double_graph, enumerate_minimal_cuts

    g = build_parallel_graph(3)
    raw_rows = cuts_to_matrix(g, enumerate_minimal_cuts(double_graph(g))).rows
    once = reduce_to_minimal(raw_rows)
    checks.append(("reduction idempotence", reduce_to_minimal(once) == once))

    builder = lp.LpBuilder("roundtrip", lp.MAXIMIZE)
    x = builder.add_var("x", upper=3.0)
    y = builder.add_var("y")
    builder.set_objective([(x, 1.0), (y, 2.0)])
    builder.add_constraint("cap", [(x, 1.0), (y, 1.5)], lp.LE, 6.0)
    problem = builder.problem()
    back = read_lp_text(lp.export_lp_text(problem)).problem()
    a, b = lp.solve(problem), lp.solve(back)
    checks.append(
        ("LP export round-trip", a.status == b.status and abs(a.objective - b.objective) < 1e-9)
    )

    ok = all(flag for _, flag in checks)
    report(9, "property suites", ok, "; ".join(name for name, flag in checks if not flag) or "all held")
