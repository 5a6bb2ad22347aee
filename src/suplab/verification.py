"""Seeded randomized property runs over the inequality checkers.

Each suite draws instances from a fixed RNG, feeds them to the relation
checkers, and counts failures; the CLI's ``verify`` subcommand turns the
resulting table into a report, and the acceptance tests assert zero
failures at the published trial counts.

The norm/modular, Hoelder, power-identity and embedding suites draw their
instances one at a time, in a fixed order of generator calls, and check
them :data:`CHUNK` at a time: a chunk's instances are padded to one
(instances, cells) array per field and passed to the checker's core, the
code behind the public single-instance checker, which returns the failure
count of each check over the chunk.  The Jensen suite draws and checks
:data:`JENSEN_BATCH` trials per ``jensen_check`` call.
"""

from __future__ import annotations

import numpy as np

from .energy import DensitySpec, growth_check, level_convexity_probe
from .exponent_space import (
    ExponentField,
    Grid,
    GridFunction,
    _embedding_rows,
    _holder_rows,
    _norm_modular_rows,
    _power_identity_rows,
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

# instances checked per chunk: a chunk's padded (CHUNK, cells) arrays stay
# at 128 KB or less, so peak memory does not grow with the instance count
# (chunks of 256 instances raised the verify run's peak RSS by 6 MB and ran
# no faster)
CHUNK = 64

# trials per jensen_check call; the batch size also fixes the order of the
# suite's draws from the generator
JENSEN_BATCH = 256


def _chunks(total):
    """Sizes of the consecutive chunks of ``total`` instances."""
    return [min(CHUNK, total - start) for start in range(0, total, CHUNK)]


def _stack(rows, fill):
    """1-D arrays of varying length as the rows of one array, padded with ``fill``."""
    out = np.full((len(rows), max(r.size for r in rows)), fill)
    for i, r in enumerate(rows):
        out[i, :r.size] = r
    return out


# Raw draws: the suites take the arrays, random_grid* and
# random_exponent_field wrap them in validated objects; both consume the
# generator identically.

def _grid_draw(rng, min_cells=16, max_cells=256):
    """Cell count and length of random_grid's uniform grid on [0, length]."""
    return int(rng.integers(min_cells, max_cells + 1)), float(rng.uniform(0.5, 2.0))


def _log_weights(cells, length):
    """Grid.uniform_1d(0, length, cells).log_weights, without the grid."""
    return np.log(np.full(cells, length / cells))


def _values_draw(rng, n, allow_zeros=True):
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    vals = scale * rng.normal(size=n)
    if allow_zeros and rng.uniform() < 0.2:
        vals[rng.uniform(size=n) < 0.3] = 0.0
    return vals


def _exponents_draw(rng, n, p_floor=1.05, p_cap=40.0):
    if rng.uniform() < 0.25:
        return np.full(n, float(rng.uniform(p_floor, 12.0)))
    lo = float(rng.uniform(p_floor, 4.0))
    hi = min(lo * float(rng.uniform(1.0, 5.0)), p_cap)
    return rng.uniform(lo, hi, size=n)


def random_grid(rng, min_cells=16, max_cells=256) -> Grid:
    cells, length = _grid_draw(rng, min_cells, max_cells)
    return Grid.uniform_1d(0.0, length, cells)


def random_grid_function(rng, grid, allow_zeros=True) -> GridFunction:
    return GridFunction(grid, _values_draw(rng, grid.n_cells, allow_zeros))


def random_exponent_field(rng, grid, p_floor=1.05, p_cap=40.0) -> ExponentField:
    return ExponentField(grid, _exponents_draw(rng, grid.n_cells, p_floor, p_cap))


def _suite_table(name, instances, failures, verdict):
    return Table(
        columns=("check", "instances", "failures", "passed"),
        rows=[(name, instances, failures, int(failures == 0))],
        verdicts={verdict: failures == 0},
    )


def norm_modular_suite(rng, instances=1000) -> Table:
    """Randomized (u, p) instances through every norm/modular relation."""
    counts: dict = {}
    for size in _chunks(instances):
        logws, us, ps = [], [], []
        for _ in range(size):
            logws.append(_log_weights(*_grid_draw(rng)))
            us.append(_values_draw(rng, logws[-1].size))
            ps.append(_exponents_draw(rng, logws[-1].size))
        logw = _stack(logws, -np.inf)
        rep = _norm_modular_rows(_stack(us, 0.0), logw, _stack(ps, 1.0), logw > -np.inf)
        for name, bad in rep.meta["violations"].items():
            counts[name] = counts.get(name, 0) + bad
    rows = [(name, instances, bad, int(bad == 0)) for name, bad in sorted(counts.items())]
    failures = sum(r[2] for r in rows)
    return Table(
        columns=("check", "instances", "failures", "passed"),
        rows=rows,
        verdicts={"norm_modular_zero_failures": failures == 0},
        meta={"instances": instances},
    )


def holder_suite(rng, instances=200) -> Table:
    failures = 0
    for size in _chunks(instances):
        logws, fs, gs, ps, qs, ss = [], [], [], [], [], []
        for _ in range(size):
            logws.append(_log_weights(*_grid_draw(rng, max_cells=128)))
            n = logws[-1].size
            sv = rng.uniform(1.0, 3.0, size=n)
            theta = rng.uniform(0.2, 0.8, size=n)
            ps.append(sv / theta)
            qs.append(sv / (1.0 - theta))
            ss.append(sv)
            fs.append(_values_draw(rng, n))
            gs.append(_values_draw(rng, n))
        logw = _stack(logws, -np.inf)
        rep = _holder_rows(_stack(fs, 0.0), _stack(gs, 0.0), logw, _stack(ps, 1.0),
                           _stack(qs, 1.0), _stack(ss, 1.0), logw > -np.inf)
        failures += int(rep.meta["failing"].sum())
    return _suite_table("holder_inequality", instances, failures, "holder_zero_failures")


def power_identity_suite(rng, instances=200, rtol=1e-8) -> Table:
    failures = 0
    for size in _chunks(instances):
        logws, us, ps, powers = [], [], [], []
        for _ in range(size):
            logws.append(_log_weights(*_grid_draw(rng, max_cells=128)))
            ps.append(_exponents_draw(rng, logws[-1].size, p_floor=2.2))
            us.append(_values_draw(rng, logws[-1].size))
            powers.append(float(rng.uniform(1.0 + 1e-6, float(np.min(ps[-1])) - 1e-9)))
        logw = _stack(logws, -np.inf)
        rep = _power_identity_rows(_stack(us, 0.0), logw, _stack(ps, 1.0), logw > -np.inf,
                                   np.array(powers), rtol=rtol)
        failures += int(rep.meta["failing"].sum())
    return _suite_table("power_rescaling_identity", instances, failures,
                        "power_identity_zero_failures")


def embedding_suite(rng, instances=200) -> Table:
    failures = 0
    k = 0
    for size in _chunks(instances):
        logws, us, ps, qs, betas = [], [], [], [], []
        for _ in range(size):
            logws.append(_log_weights(*_grid_draw(rng, max_cells=128)))
            ps.append(_exponents_draw(rng, logws[-1].size))
            us.append(_values_draw(rng, logws[-1].size))
            p_minus, p_plus = float(np.min(ps[-1])), float(np.max(ps[-1]))
            # exercise the q = p_minus edge on every other instance
            qs.append(p_minus if k % 2 == 0 else float(rng.uniform(1.0, p_minus)))
            betas.append(max(1.0, p_plus / p_minus) * float(rng.uniform(1.0, 1.5)))
            k += 1
        logw = _stack(logws, -np.inf)
        rep = _embedding_rows(_stack(us, 0.0), logw, _stack(ps, 1.0), logw > -np.inf,
                              np.array(qs), np.array(betas))
        failures += int(rep.meta["failing"].sum())
    return _suite_table("embedding_bound", instances, failures, "embedding_zero_failures")


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
