"""Seeded randomized property runs over the inequality checkers.

Each suite draws instances from a fixed RNG, feeds them to the relation
checkers, and counts failures; the CLI's ``verify`` subcommand turns the
resulting table into a report, and the acceptance tests assert zero
failures at the published trial counts.
"""

from __future__ import annotations

import numpy as np

from .energy import DensitySpec, growth_check, level_convexity_probe
from .exponent_space import (
    ExponentField,
    Grid,
    GridFunction,
    embedding_bound_check,
    holder_check,
    power_identity_check,
    verify_norm_modular_relations,
)
from .measure_tools import jensen_check
from .reports import Table

__all__ = [
    "random_grid",
    "random_grid_function",
    "random_exponent_field",
    "norm_modular_suite",
    "holder_suite",
    "power_identity_suite",
    "embedding_suite",
    "jensen_suite",
    "density_probe_suite",
    "full_verification",
]

# trials per jensen_check call: the arrays of a batch stay small, so peak
# memory does not grow with the trial count
JENSEN_BATCH = 256


def random_grid(rng, min_cells=16, max_cells=256) -> Grid:
    cells = int(rng.integers(min_cells, max_cells + 1))
    length = float(rng.uniform(0.5, 2.0))
    return Grid.uniform_1d(0.0, length, cells)


def random_grid_function(rng, grid, allow_zeros=True) -> GridFunction:
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    vals = scale * rng.normal(size=grid.n_cells)
    if allow_zeros and rng.uniform() < 0.2:
        vals[rng.uniform(size=grid.n_cells) < 0.3] = 0.0
    return GridFunction(grid, vals)


def random_exponent_field(rng, grid, p_floor=1.05, p_cap=40.0) -> ExponentField:
    if rng.uniform() < 0.25:
        return ExponentField.constant(grid, float(rng.uniform(p_floor, 12.0)))
    lo = float(rng.uniform(p_floor, 4.0))
    hi = min(lo * float(rng.uniform(1.0, 5.0)), p_cap)
    return ExponentField(grid, rng.uniform(lo, hi, size=grid.n_cells))


def norm_modular_suite(rng, instances=1000) -> Table:
    """Randomized (u, p) instances through every norm/modular relation."""
    counts: dict = {}
    for _ in range(instances):
        grid = random_grid(rng)
        u = random_grid_function(rng, grid)
        p = random_exponent_field(rng, grid)
        rep = verify_norm_modular_relations(u, p)
        for check in rep:
            ok, bad = counts.get(check.name, (0, 0))
            counts[check.name] = (ok + check.passed, bad + (not check.passed))
    rows = [
        (name, instances, bad, int(bad == 0)) for name, (ok, bad) in sorted(counts.items())
    ]
    failures = sum(r[2] for r in rows)
    return Table(
        columns=("check", "instances", "failures", "passed"),
        rows=rows,
        verdicts={"norm_modular_zero_failures": failures == 0},
        meta={"instances": instances},
    )


def holder_suite(rng, instances=200) -> Table:
    failures = 0
    for _ in range(instances):
        grid = random_grid(rng, max_cells=128)
        sv = rng.uniform(1.0, 3.0, size=grid.n_cells)
        theta = rng.uniform(0.2, 0.8, size=grid.n_cells)
        p = ExponentField(grid, sv / theta)
        q = ExponentField(grid, sv / (1.0 - theta))
        s = ExponentField(grid, sv)
        f = random_grid_function(rng, grid)
        g = random_grid_function(rng, grid)
        failures += 0 if holder_check(f, g, p, q, s).passed else 1
    return Table(
        columns=("check", "instances", "failures", "passed"),
        rows=[("holder_inequality", instances, failures, int(failures == 0))],
        verdicts={"holder_zero_failures": failures == 0},
    )


def power_identity_suite(rng, instances=200, rtol=1e-8) -> Table:
    failures = 0
    for _ in range(instances):
        grid = random_grid(rng, max_cells=128)
        p = random_exponent_field(rng, grid, p_floor=2.2)
        u = random_grid_function(rng, grid)
        s = float(rng.uniform(1.0 + 1e-6, p.p_minus - 1e-9))
        failures += 0 if power_identity_check(u, p, s, rtol=rtol).passed else 1
    return Table(
        columns=("check", "instances", "failures", "passed"),
        rows=[("power_rescaling_identity", instances, failures, int(failures == 0))],
        verdicts={"power_identity_zero_failures": failures == 0},
    )


def embedding_suite(rng, instances=200) -> Table:
    failures = 0
    for k in range(instances):
        grid = random_grid(rng, max_cells=128)
        p = random_exponent_field(rng, grid)
        u = random_grid_function(rng, grid)
        # exercise the q = p_minus edge on every other instance
        q = p.p_minus if k % 2 == 0 else float(rng.uniform(1.0, p.p_minus))
        beta = max(1.0, p.p_plus / p.p_minus) * float(rng.uniform(1.0, 1.5))
        failures += 0 if embedding_bound_check(u, p, q, beta=beta).passed else 1
    return Table(
        columns=("check", "instances", "failures", "passed"),
        rows=[("embedding_bound", instances, failures, int(failures == 0))],
        verdicts={"embedding_zero_failures": failures == 0},
    )


def _jensen_trials(rng, density, trials, xi_dim=1):
    """Failing trials among ``trials`` random atom sets, checked per batch.

    Each trial has 1..5 atoms with Dirichlet(1, ..., 1) weights, drawn as
    normalized exponentials; the unused atom slots of a trial get weight
    zero, which marks them as padding.
    """
    max_atoms = 5
    failures = 0
    for start in range(0, trials, JENSEN_BATCH):
        size = min(JENSEN_BATCH, trials - start)
        cells = rng.integers(density.grid.n_cells, size=size)
        m = rng.integers(1, max_atoms + 1, size=size)
        scale = 10.0 ** rng.uniform(-1.0, 1.0, size=size)
        pts = rng.normal(size=(size, max_atoms, xi_dim)) * scale[:, None, None]
        wts = rng.standard_exponential(size=(size, max_atoms))
        wts[np.arange(max_atoms) >= m[:, None]] = 0.0
        wts /= wts.sum(axis=1, keepdims=True)
        rep = jensen_check(density, cells, rng.normal(size=size), (pts, wts))
        failures += rep.meta["violations"]
    return failures


def jensen_suite(rng, trials=10000, cells=16) -> Table:
    """Jensen bound over random atoms for each built-in family, plus the
    deliberately non-level-convex probe, which must record a violation.

    The anisotropic family has component weights a = (1, 3) and gets
    2-component atoms, so its row exercises the max over components.
    """
    grid = Grid.uniform_1d(0.0, 1.0, cells)
    rows = []
    families = [
        ("weighted_norm", DensitySpec.weighted_norm(grid, lambda x: 1.0 + x), 1),
        ("shifted_norm", DensitySpec.shifted_norm(grid, np.array([0.4])), 1),
        ("anisotropic", DensitySpec.anisotropic(grid, np.array([1.0, 3.0])), 2),
    ]
    all_clean = True
    for name, dens, xi_dim in families:
        bad = _jensen_trials(rng, dens, trials, xi_dim)
        all_clean = all_clean and bad == 0
        rows.append((f"jensen_{name}", trials, bad, int(bad == 0)))
    probe = DensitySpec.custom(grid, "unit_sphere_distance", level_convex=False)
    probe_bad = _jensen_trials(rng, probe, trials)
    rows.append(("jensen_probe_violations_found", trials, probe_bad, int(probe_bad >= 1)))
    return Table(
        columns=("check", "trials", "failures", "passed"),
        rows=rows,
        verdicts={
            "jensen_zero_failures": all_clean,
            "jensen_probe_detects_nonconvexity": probe_bad >= 1,
        },
    )


def density_probe_suite(density: DensitySpec, seed=0, trials=10000) -> Table:
    """Level-convexity and growth probes for a configured density."""
    lc = level_convexity_probe(density, trials=trials, seed=seed)
    gr = growth_check(density, trials=trials, seed=seed + 1)
    # a declared level-convex density must survive the probe; an undeclared
    # one is allowed to fail it
    lc_ok = lc.passed or not density.level_convex
    rows = [
        ("level_convexity", trials, lc.meta["violations"], int(lc_ok)),
        ("growth_lower_bound", trials, gr.meta["violations"], int(gr.passed)),
    ]
    return Table(
        columns=("check", "trials", "failures", "passed"),
        rows=rows,
        verdicts={
            "level_convexity_consistent": bool(lc_ok),
            "growth_bound_holds": gr.passed,
        },
        meta={"level_convexity_witnesses": lc.meta["witnesses"],
              "growth_witnesses": gr.meta["witnesses"]},
    )


def full_verification(seed=0, density: DensitySpec | None = None,
                      instances=1000, pair_instances=200, jensen_trials=10000,
                      probe_trials=10000) -> Table:
    """The whole property battery with one seed; one row per check."""
    rng = np.random.default_rng(seed)
    tables = [
        norm_modular_suite(rng, instances),
        holder_suite(rng, pair_instances),
        power_identity_suite(rng, pair_instances),
        embedding_suite(rng, pair_instances),
        jensen_suite(rng, jensen_trials),
    ]
    if density is not None:
        tables.append(density_probe_suite(density, seed=seed, trials=probe_trials))
    rows = []
    verdicts = {}
    for t in tables:
        rows.extend(t.rows)
        verdicts.update(t.verdicts)
    return Table(
        columns=("check", "trials", "failures", "passed"),
        rows=rows,
        verdicts=verdicts,
        meta={"seed": seed},
    )
