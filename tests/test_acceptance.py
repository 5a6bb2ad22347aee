"""Acceptance gate: one test per published criterion, each printing a
pass/fail line with its measured numbers (run with -s to see them), and one
pinning the tolerances and solver constants the criteria are met with."""

import os
import time

import numpy as np

from suplab import exponent_space, measure_tools, reports, solve
from suplab.cli import parse_config, run as cli_run
from suplab.discretize import BoundarySpec, MeshSpec
from suplab.energy import DensitySpec
from suplab.exponent_space import (
    POWER_IDENTITY_RTOL,
    ExponentSequence,
    Grid,
    GridFunction,
)
from suplab.gamma_lab import (
    StudyConfig,
    norm_limit_study,
    run_integral_dichotomy_study,
    run_minimizer_convergence,
    run_norm_gamma_study,
)
from suplab.measure_tools import DiscreteYoungMeasure, young_q_limit
from suplab.verification import (
    embedding_suite,
    jensen_suite,
    norm_modular_suite,
    power_identity_suite,
)

from _oracles import (
    brentq_luxemburg,
    el_nodes_inverse_weight,
    limit_minimizer_inverse_weight,
    power_minimum_constant_q,
    power_minimum_variable_p,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def benchmark_config(kind, schedule, threshold):
    mesh = MeshSpec(1, (1.0,), (200,), BoundarySpec.endpoints(0.0, 1.0))
    dens = DensitySpec.weighted_norm(mesh.grid(), lambda x: 1.0 / (1.0 + x), alpha=0.5)
    return StudyConfig(kind=kind, density=dens, mesh=mesh, profile="constant",
                       n_schedule=schedule, threshold=threshold)


def test_criterion_01_norm_modular_relations():
    start = time.perf_counter()
    table = norm_modular_suite(np.random.default_rng(2024), instances=1000)
    elapsed = time.perf_counter() - start
    failures = sum(r[2] for r in table.rows)
    report(
        1,
        failures == 0 and elapsed < 10.0,
        f"norm/modular relations on 1000 random instances: {failures} failures, "
        f"{elapsed:.2f} s (< 10 s)",
    )


def test_criterion_02_power_identity():
    table = power_identity_suite(np.random.default_rng(2025), instances=200)
    failures = table.rows[0][2]
    report(2, failures == 0,
           f"power rescaling identity at {POWER_IDENTITY_RTOL:g} on 200 instances: "
           f"{failures} failures")


def test_criterion_03_embedding_bound():
    table = embedding_suite(np.random.default_rng(2026), instances=200)
    failures = table.rows[0][2]
    report(3, failures == 0,
           f"embedding bound incl. the q = p_minus edge on 200 instances: "
           f"{failures} violations")


def test_criterion_04_norm_limit():
    grid = Grid.uniform_1d(0.0, 1.0, 32)
    u = GridFunction(grid, grid.points)
    schedule = [4, 8, 16, 32, 64, 128, 200]
    ok = True
    details = []
    for label, profile in (
        ("flat", np.ones(grid.n_cells)),
        ("sine", 2.0 + np.sin(2.0 * np.pi * grid.cells[:, 0])),
    ):
        seq = ExponentSequence(grid, profile)
        table = norm_limit_study(u, seq, schedule)
        max_dev = 0.0
        for n, _, _, norm, _, _ in table.rows:
            p = seq.field(n)
            ref = brentq_luxemburg(u.values, p.values, grid.weights)
            max_dev = max(max_dev, abs(norm - ref) / ref)
        errs = table.column("error")
        decreasing = table.verdicts["error_eventually_decreasing"]
        final_rel = errs[-1] / table.meta["sup"]
        ok = ok and max_dev < 1e-10 and decreasing and final_rel < 0.02
        details.append(
            f"{label}: oracle dev {max_dev:.1e}, final error {final_rel:.3%}"
        )
    report(4, ok, "norm limit vs brute-force oracle and supremum; " + "; ".join(details))


def test_criterion_05_jensen():
    table = jensen_suite(np.random.default_rng(2027), trials=10000)
    family_failures = sum(r[2] for r in table.rows if not r[0].endswith("violations_found"))
    probe_hits = [r[2] for r in table.rows if r[0].endswith("violations_found")][0]
    report(
        5,
        family_failures == 0 and probe_hits >= 1,
        f"Jensen bound: {family_failures} failures over 10^4 atom sets per built-in "
        f"family; non-level-convex probe produced {probe_hits} recorded violations",
    )


def test_criterion_06_young_q_limit():
    grid = Grid(1, np.array([[0.5]]), np.array([1.0]))
    f = DensitySpec.weighted_norm(grid, 1.0)
    u = GridFunction.constant(grid, 0.0)
    mu = DiscreteYoungMeasure(grid, np.array([[[1.0], [3.0]]]), np.array([[0.5, 0.5]]))
    start = time.perf_counter()
    table = young_q_limit(f, u, mu)
    elapsed = time.perf_counter() - start
    final_q, final_val, final_err = table.rows[-1]
    rel = final_err / table.meta["limit"]
    report(
        6,
        final_q == 1024 and rel < 0.02 and elapsed < 1.0,
        f"mixed power means reach {final_val:.6f} at q = 1024 "
        f"(limit 3, rel err {rel:.3%}), {elapsed * 1e3:.1f} ms (< 1 s)",
    )


def solver_gaps(table, reference):
    """(minimum - m_n) / m_n of each row, with m_n = reference(n)."""
    exact = [reference(r[0]) for r in table.rows]
    return [(r[3] - m) / m for r, m in zip(table.rows, exact)]


def test_criterion_07_gamma_convergence_of_minima():
    cfg = benchmark_config("norm_gamma", (4, 8, 16, 32, 64), threshold=0.02)
    start = time.perf_counter()
    res = run_norm_gamma_study(cfg)
    elapsed = time.perf_counter() - start
    errs = [r[5] for r in res.rows]
    # every row is also gated on the exact discrete minimum of its exponent
    a, w = cfg.density.coefficients["a"], cfg.mesh.grid().weights
    gaps = solver_gaps(res, lambda n: power_minimum_constant_q(a, w, float(n), 1.0))
    report(
        7,
        res.passed and elapsed < 60.0 and all(-1e-12 <= g <= 1e-5 for g in gaps),
        f"norm-form minima vs oracle 2/3: rel errors {['%.4f' % e for e in errs]} "
        f"decreasing to {errs[-1]:.3%} (< 2%), {elapsed:.1f} s (< 60 s); gaps to the "
        f"exact discrete minima {['%.2e' % g for g in gaps]} (<= 1e-5)",
    )


def test_variable_exponent_minima_reach_the_discrete_minimum():
    # gamma_sine.ini is the only shipped solve with a variable exponent;
    # its exact discrete minima come from the nested-root reference
    with open(os.path.join(CONFIG_DIR, "gamma_sine.ini")) as fh:
        cfg = parse_config(fh.read())
    res = run_norm_gamma_study(cfg)
    a, w, seq = cfg.density.coefficients["a"], cfg.mesh.grid().weights, cfg.sequence()
    gaps = solver_gaps(res, lambda n: power_minimum_variable_p(a, w, seq.field(n).values, 1.0))
    passed = res.passed and all(-1e-12 <= g <= 1e-6 for g in gaps)
    line = (f"[gamma_sine.ini] {'PASS' if passed else 'FAIL'}: gaps to the exact discrete "
            f"minima {['%.2e' % g for g in gaps]} (<= 1e-6)")
    print(line)
    assert passed, line


def test_criterion_08_minimizer_convergence():
    cfg = benchmark_config("constant_exponent", (4, 8, 16, 32, 64), threshold=0.01)
    res = run_minimizer_convergence(cfg)
    nodes = np.linspace(0.0, 1.0, 201)
    ustar = limit_minimizer_inverse_weight(nodes)
    final_field = res.meta["fields"][64].node_values
    dist_star = float(np.max(np.abs(final_field - ustar)))
    el_devs = {}
    for n, field in res.meta["fields"].items():
        ref = el_nodes_inverse_weight(float(n), nodes)
        el_devs[n] = float(np.max(np.abs(field.node_values - ref)))
    report(
        8,
        dist_star < 0.01 and all(d < 0.01 for d in el_devs.values()) and res.passed,
        f"minimizers: sup distance to (2/3)(x + x^2/2) at n = 64 is {dist_star:.2e} "
        f"(< 1e-2); per-n closed-form deviations "
        f"{['%d: %.1e' % (n, d) for n, d in sorted(el_devs.items())]} all < 1e-2",
    )


def test_criterion_09_dichotomy():
    mesh = MeshSpec(1, (1.0,), (32,), BoundarySpec.endpoints(0.0, 1.0))
    dens = DensitySpec.weighted_norm(mesh.grid(), 1.0)

    low = StudyConfig(kind="integral_dichotomy", density=dens, mesh=mesh,
                      profile="sine", n_schedule=(5, 10, 20, 30, 40, 50),
                      probe_scale=0.5)
    res_low = run_integral_dichotomy_study(low)
    low_final = res_low.rows[-1][3]

    high = StudyConfig(kind="integral_dichotomy", density=dens, mesh=mesh,
                       profile="sine", n_schedule=(5, 10, 15, 20, 25, 30),
                       probe_scale=2.0)
    res_high = run_integral_dichotomy_study(high)
    high_final = res_high.rows[-1][3]

    report(
        9,
        res_low.passed and low_final < 1e-8
        and res_high.passed and (high_final >= 1e8 or np.isinf(high_final)),
        f"dichotomy: sup 1/2 probe down to {low_final:.2e} by n = 50 (< 1e-8); "
        f"sup 2 probe up to {high_final:.2e} by n = 30 (>= 1e8 or overflow)",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "norms.ini")
    cli_run("norms", cfg, str(tmp_path / "a"), seed=41)
    cli_run("norms", cfg, str(tmp_path / "b"), seed=41)
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("norms.csv", "manifest.csv")
    )
    vq = os.path.join(CONFIG_DIR, "verify.ini")
    cli_run("verify", vq, str(tmp_path / "va"), seed=9)
    cli_run("verify", vq, str(tmp_path / "vb"), seed=9)
    identical = identical and (
        (tmp_path / "va" / "verify.csv").read_bytes()
        == (tmp_path / "vb" / "verify.csv").read_bytes()
    )
    report(10, identical, "repeated runs with a fixed seed emit byte-identical CSVs")


def test_gates_keep_their_values():
    # a gate is never loosened: each is the value the criteria were first
    # met with, and the solver's schedule, tolerance and budget likewise
    assert exponent_space.RELATION_TOL == 1e-9
    assert exponent_space.POWER_IDENTITY_RTOL == 1e-8
    assert measure_tools.JENSEN_TOL == 1e-10
    assert reports.TAIL_RTOL == 1e-12
    assert reports.MIN_TAIL == 2
    assert solve._EPSILONS == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    assert solve._TOL == 1e-10
    assert solve._MAX_ITER == 20000
