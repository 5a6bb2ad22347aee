"""Seeded randomized property runs over the inequality checkers.

Each suite draws instances from a fixed RNG, feeds them to the relation
checkers, and counts failures; the CLI's ``verify`` subcommand turns the
resulting table into a report, and the acceptance tests assert zero
failures at the published trial counts.

The norm/modular, Hoelder, power-identity and embedding suites share one
chunk loop, :func:`_checked`: a suite supplies only its per-instance draw,
which makes its generator calls in a fixed order.  The loop checks the
instances :data:`CHUNK` at a time: a chunk's instances are padded to one
(instances, cells) array per field and passed to the checker's core, the
code behind the public single-instance checker, whose report counts the
failures of each check over the chunk.  The Jensen suite draws and checks
:data:`JENSEN_BATCH` trials per ``jensen_check`` call.

Every suite's table, and the battery's, has one shape, built by
:func:`_table`: a row per check under the columns ``verify.csv`` prints,
``(check, trials, failures, passed)``.
"""

from __future__ import annotations

import numpy as np

from .energy import DensitySpec, growth_check, level_convexity_probe
from .exponent_space import (
    Grid,
    _embedding_rows,
    _holder_rows,
    _norm_modular_rows,
    _power_identity_rows,
)
from .measure_tools import jensen_check
from .reports import Table

__all__ = [
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

# padding of the cell fields of a chunk: a padded cell has value 0,
# log-weight -inf and exponent 1 (see the relation checks in exponent_space)
_VALUES, _LOGW, _EXPONENTS = 0.0, -np.inf, 1.0


def _stack(rows, fill):
    """1-D arrays of varying length as the rows of one array, padded with ``fill``."""
    out = np.full((len(rows), max(r.size for r in rows)), fill)
    for i, r in enumerate(rows):
        out[i, :r.size] = r
    return out


def _checked(rng, instances, draw, core, fills):
    """Draw ``instances`` instances one at a time and check them a chunk at a time.

    ``draw(rng, k)`` draws instance k as the arguments of ``core`` for one
    instance: first one 1-D array per cell field, padded in a chunk with
    its entry of ``fills``, then one scalar per instance.  Returns the
    failure count of each check and the count of instances failing any.
    """
    counts: dict = {}
    failing = 0
    for start in range(0, instances, CHUNK):
        drawn = list(zip(*(draw(rng, k) for k in range(start, min(start + CHUNK, instances)))))
        rep = core(*(_stack(rows, fill) for rows, fill in zip(drawn, fills)),
                   *(np.array(col) for col in drawn[len(fills):]))
        for name, bad in rep.meta["violations"].items():
            counts[name] = counts.get(name, 0) + bad
        failing += int(rep.meta["failing"].sum())
    return counts, failing


# The raw draws of the suites' instances; the test reference wraps them in
# validated grids, functions and exponent fields.

def _grid_draw(rng, max_cells=256):
    """Cell count (16 to max_cells) and length of a random uniform grid on [0, length]."""
    return int(rng.integers(16, max_cells + 1)), float(rng.uniform(0.5, 2.0))


def _log_weights(cells, length):
    """Grid.uniform_1d(0, length, cells).log_weights, without the grid."""
    return np.log(np.full(cells, length / cells))


def _values_draw(rng, n):
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    vals = scale * rng.normal(size=n)
    if rng.uniform() < 0.2:
        vals[rng.uniform(size=n) < 0.3] = 0.0
    return vals


def _exponents_draw(rng, n, p_floor=1.05):
    if rng.uniform() < 0.25:
        return np.full(n, float(rng.uniform(p_floor, 12.0)))
    lo = float(rng.uniform(p_floor, 4.0))
    hi = min(lo * float(rng.uniform(1.0, 5.0)), 40.0)
    return rng.uniform(lo, hi, size=n)


def _table(rows, verdicts) -> Table:
    """The battery's one table shape, the columns ``verify.csv`` prints."""
    return Table(("check", "trials", "failures", "passed"), rows, verdicts)


def _zero_failures(failures, trials, verdict) -> Table:
    """One row per check of ``failures`` (check -> count), each passed at zero
    failures, and the verdict that every count is zero."""
    rows = [(name, trials, bad, int(bad == 0)) for name, bad in failures.items()]
    return _table(rows, {verdict: not any(failures.values())})


def _norm_modular_draw(rng, k):
    logw = _log_weights(*_grid_draw(rng))
    return _values_draw(rng, logw.size), logw, _exponents_draw(rng, logw.size)


def norm_modular_suite(rng, instances=1000) -> Table:
    """Randomized (u, p) instances through every norm/modular relation."""
    counts, _ = _checked(rng, instances, _norm_modular_draw, _norm_modular_rows,
                         (_VALUES, _LOGW, _EXPONENTS))
    return _zero_failures(dict(sorted(counts.items())), instances, "norm_modular_zero_failures")


def _holder_draw(rng, k):
    logw = _log_weights(*_grid_draw(rng, max_cells=128))
    n = logw.size
    sv = rng.uniform(1.0, 3.0, size=n)
    theta = rng.uniform(0.2, 0.8, size=n)
    fv = _values_draw(rng, n)
    gv = _values_draw(rng, n)
    if k % 4 == 0:
        p = 1.0 / theta[0]
        sv, pv, qv = np.ones(n), np.full(n, p), np.full(n, p / (p - 1.0))
        gv = np.sign(fv) * np.abs(fv) ** (p - 1.0)
    else:
        pv, qv = sv / theta, sv / (1.0 - theta)
    return fv, gv, logw, pv, qv, sv


def holder_suite(rng, instances=200) -> Table:
    """Hoelder instances; every fourth is the equality case of the s = 1 bounds.

    That case has s = 1, a constant p = 1/theta_0 with its conjugate
    q = p/(p-1), and g = sign(f) |f|^(p-1), so ||fg||_1 = ||f||_p ||g||_q
    and both checks, the product bound and the dual pairing bound, hold
    with equality.  Its usual draws are made and then overwritten, so the
    generator calls are those of every other instance.
    """
    _, failures = _checked(rng, instances, _holder_draw, _holder_rows,
                           (_VALUES, _VALUES, _LOGW, _EXPONENTS, _EXPONENTS, _EXPONENTS))
    return _zero_failures({"holder_inequality": failures}, instances, "holder_zero_failures")


def _power_identity_draw(rng, k):
    logw = _log_weights(*_grid_draw(rng, max_cells=128))
    pv = _exponents_draw(rng, logw.size, p_floor=2.2)
    vals = _values_draw(rng, logw.size)
    return vals, logw, pv, float(rng.uniform(1.0 + 1e-6, float(np.min(pv)) - 1e-9))


def power_identity_suite(rng, instances=200) -> Table:
    _, failures = _checked(rng, instances, _power_identity_draw, _power_identity_rows,
                           (_VALUES, _LOGW, _EXPONENTS))
    return _zero_failures({"power_rescaling_identity": failures}, instances,
                          "power_identity_zero_failures")


def _embedding_draw(rng, k):
    logw = _log_weights(*_grid_draw(rng, max_cells=128))
    pv = _exponents_draw(rng, logw.size)
    vals = _values_draw(rng, logw.size)
    p_minus, p_plus = float(np.min(pv)), float(np.max(pv))
    # exercise the q = p_minus edge on every other instance
    q = p_minus if k % 2 == 0 else float(rng.uniform(1.0, p_minus))
    beta = max(1.0, p_plus / p_minus) * float(rng.uniform(1.0, 1.5))
    return vals, logw, pv, q, beta


def embedding_suite(rng, instances=200) -> Table:
    _, failures = _checked(rng, instances, _embedding_draw, _embedding_rows,
                           (_VALUES, _LOGW, _EXPONENTS))
    return _zero_failures({"embedding_bound": failures}, instances, "embedding_zero_failures")


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
        failures += int(rep.meta["failing"].sum())
    return failures


def jensen_suite(rng, trials=10000) -> Table:
    """Jensen bound over random atoms for each built-in family, plus the
    deliberately non-level-convex probe, which must record a violation.

    The anisotropic family has component weights a = (1, 3) and gets
    2-component atoms, so its row exercises the max over components.
    """
    grid = Grid.uniform_1d(0.0, 1.0, 16)
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
    probe = DensitySpec(grid, "unit_sphere_distance")
    probe_bad = _jensen_trials(rng, probe, trials)
    rows.append(("jensen_probe_violations_found", trials, probe_bad, int(probe_bad >= 1)))
    return _table(rows, {
        "jensen_zero_failures": all_clean,
        "jensen_probe_detects_nonconvexity": probe_bad >= 1,
    })


def density_probe_suite(density: DensitySpec, seed=0, trials=10000) -> Table:
    """Level-convexity and growth probes for a configured density."""
    lc = level_convexity_probe(density, trials=trials, seed=seed)
    gr = growth_check(density, trials=trials, seed=seed + 1)
    # a declared level-convex density must survive the probe; an undeclared
    # one is allowed to fail it
    lc_ok = lc.passed or not density.level_convex
    rows = [
        ("level_convexity", trials, int(lc.meta["failing"].sum()), int(lc_ok)),
        ("growth_lower_bound", trials, int(gr.meta["failing"].sum()), int(gr.passed)),
    ]
    return _table(rows, {
        "level_convexity_consistent": bool(lc_ok),
        "growth_bound_holds": gr.passed,
    })


def full_verification(density: DensitySpec, seed=0) -> Table:
    """The whole property battery with one seed, each suite at its default
    count, and the probes of ``density``; one row per check."""
    rng = np.random.default_rng(seed)
    tables = [
        norm_modular_suite(rng),
        holder_suite(rng),
        power_identity_suite(rng),
        embedding_suite(rng),
        jensen_suite(rng),
        density_probe_suite(density, seed=seed),
    ]
    return _table([row for t in tables for row in t.rows],
                  {name: ok for t in tables for name, ok in t.verdicts.items()})
