"""Convergence studies for the power-law approximation of supremal energies.

Each study sweeps an exponent schedule p_n(x) = n * profile(x), whose
minima grow with n (pn1) under the ratio bound beta = max(profile) /
min(profile) (pn2), and tabulates how a quantity of interest approaches its
closed-form limit (from :mod:`suplab.oracles`).  Every study kind is one
row of the study table (``_STUDIES``): the subcommand that runs it, its
help text, the ``[study]`` fields it reads and the name of its runner here,
looked up on each call so that a rebinding of the runner is the one called:

* ``norm_limit`` (``norms``): plain variable-exponent norms of a fixed field
  against its supremum; :func:`norm_limit_study` builds that table for any
  scalar grid function;
* ``norm_gamma`` (``gamma-study``): minima of the norm-form energy against
  the supremal oracle (the convergence-of-minima story);
* ``integral_dichotomy`` (``dichotomy``): the power integral on a fixed
  probe field, which collapses to zero or blows up as the probe's supremal
  value sits below or above one;
* ``constant_exponent`` (``minimizers``): the norm-form sweep with a flat
  profile, whose unique finite-n minimizer is tracked to the limiting profile.

Every runner returns a :class:`~suplab.reports.Table` with the columns
``n, p_minus, p_plus``, then the study's quantity, its limit and its error,
plus named boolean verdicts; the meta of the two solving studies carries
the per-n objective ``traces`` and the ``stagnant_rows``.  Those two share
one sweep: rows are computed in increasing n with warm-started solves (each
minimizer seeds the next exponent's descent); results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discretize import DiscreteField, MeshSpec, gradient, interpolate_boundary
from .energy import DensitySpec, eval_calFn, eval_Fn, eval_supremal
from .exponent_space import (
    ExponentSequence,
    GridFunction,
    PreconditionError,
    StructuralError,
    _require_same_grid,
    _require_scalar,
    _schedule,
    embedding_constant,
    luxemburg_norm,
)
from .oracles import limit_minimizer, study_oracle
from .reports import Table, eventually_decreasing
from .solve import FUNCTIONAL_NORM, minimize_power

__all__ = [
    "DICHOTOMY_MARGIN",
    "DIVERGENCE_THRESHOLD",
    "CONVERGENCE_THRESHOLD",
    "named_profile",
    "StudyConfig",
    "run_norm_gamma_study",
    "run_integral_dichotomy_study",
    "run_minimizer_convergence",
    "norm_limit_study",
    "run_norm_limit",
]


class _Study(NamedTuple):
    subcommand: str
    help: str
    fields: tuple           # the StudyConfig fields read besides mesh, density and exponents
    runner: str             # a module-level function of this module, named, not held


# study kind -> its row; cli lists the subcommands in this order, after verify
_STUDIES = {
    "norm_limit": _Study("norms", "tabulate variable-exponent norms against the supremum",
                         ("threshold", "probe_scale"), "run_norm_limit"),
    "norm_gamma": _Study("gamma-study", "sweep the norm-form minima toward the supremal oracle",
                         ("threshold",), "run_norm_gamma_study"),
    "integral_dichotomy": _Study("dichotomy", "evaluate the power integral on a fixed probe",
                                 ("probe_scale",), "run_integral_dichotomy_study"),
    "constant_exponent": _Study("minimizers", "track minimizers toward the limiting profile",
                                ("threshold",), "run_minimizer_convergence"),
}

# the dichotomy study: the probe's supremal value must be at least this far
# from 1, and the power integral must end above DIVERGENCE_THRESHOLD (or
# overflow) on the diverging branch, below CONVERGENCE_THRESHOLD on the
# vanishing one
DICHOTOMY_MARGIN = 0.1
DIVERGENCE_THRESHOLD = 1e8
CONVERGENCE_THRESHOLD = 1e-8

# named profiles of the x coordinate; "constant" is the flat profile
_PROFILES = {
    "constant": np.ones_like,
    "sine": lambda x: 2.0 + np.sin(2.0 * np.pi * x),
    "inverse_one_plus_x": lambda x: 1.0 / (1.0 + x),
}


def named_profile(name: str, grid) -> np.ndarray:
    """Cell values of a named profile of the x coordinate.

    Names: ``constant`` (1), ``sine`` (2 + sin 2 pi x),
    ``inverse_one_plus_x``, ``constant:<v>`` (v everywhere) and
    ``piecewise:<v1>,<v2>`` (v1 left of the midpoint of the cell centers, v2
    from it on).  Serves both density coefficients and exponent profiles.
    """
    x = grid.cells[:, 0]
    if name in _PROFILES:
        return _PROFILES[name](x)
    head, _, args = name.partition(":")
    count = {"constant": 1, "piecewise": 2}.get(head)
    if count is None:
        raise StructuralError(
            f"unknown profile {name!r}; have {', '.join(_PROFILES)}, "
            "constant:<v>, piecewise:<v1>,<v2>"
        )
    try:
        vals = [float(v) for v in args.split(",")]
    except ValueError:
        vals = []
    if len(vals) != count or not np.all(np.isfinite(vals)):
        raise StructuralError(f"profile {name!r} needs {count} finite number(s) after the colon")
    if head == "constant":
        return np.full(grid.n_cells, vals[0])
    mid = 0.5 * (float(np.min(x)) + float(np.max(x)))
    return np.where(x < mid, vals[0], vals[1])


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs: density (on the mesh's grid), mesh, exponents, threshold, probe."""

    density: DensitySpec
    mesh: MeshSpec
    kind: str = "norm_gamma"
    profile: str = "sine"
    n_schedule: tuple = (4, 8, 16, 32, 64)
    threshold: float = 0.02
    probe_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _STUDIES:
            raise StructuralError(f"unknown study kind {self.kind!r}")
        # a negative threshold fails every verdict and an infinite one passes
        # any; a zero probe passes vacuously.  Each message starts with its field.
        for name, value in (("threshold", self.threshold), ("probe_scale", self.probe_scale)):
            if not np.isfinite(value):
                raise StructuralError(f"{name}: must be finite, got {value!r}")
        if self.threshold < 0:
            raise StructuralError(f"threshold: must be >= 0, got {self.threshold!r}")
        if self.probe_scale <= 0:
            raise StructuralError(f"probe_scale: must be > 0, got {self.probe_scale!r}")
        _require_same_grid(self.mesh.grid(), self.density)
        sched = _schedule(self.n_schedule, "n", "n_schedule entry")
        object.__setattr__(self, "n_schedule", sched)
        # pn1 and pn2 hold by construction; the first n must lift every
        # exponent above 1, and then every later n does
        self.sequence().field(sched[0])

    def sequence(self) -> ExponentSequence:
        grid = self.mesh.grid()
        return ExponentSequence(grid, named_profile(self.profile, grid))


def _trend_verdicts(quantity, values, bound):
    """Verdicts on a sweep's ``quantity``: eventually decreasing, ending at most ``bound``."""
    return {f"{quantity}_eventually_decreasing": eventually_decreasing(values),
            f"final_{quantity}_below_threshold": values[-1] <= bound}


def _solve_sweep(cfg: StudyConfig):
    """Warm-started norm-form minima along the schedule, in increasing n.

    Each solve starts from the previous n's minimizer.  Returns the
    (n, p_n, SolveResult) of every n and the meta of a solving study:
    ``traces``, the objective traces of each n (solver_trace.csv), and
    ``stagnant_rows``, the n whose solve stagnated.
    """
    seq = cfg.sequence()
    sweep = []
    warm = None
    for n in cfg.n_schedule:
        p = seq.field(n)
        res = minimize_power(FUNCTIONAL_NORM, cfg.density, p, cfg.mesh, init=warm)
        warm = res.field
        sweep.append((n, p, res))
    meta = {"traces": {n: res.traces for n, _, res in sweep},
            "stagnant_rows": [n for n, _, res in sweep if res.stagnated]}
    return sweep, meta


def run_norm_gamma_study(cfg: StudyConfig) -> Table:
    """Sweep the norm-form minima m_n against the supremal oracle.

    Verdicts: the relative errors are eventually decreasing and end below
    the configured threshold, and every row respects the a-priori bracket
    (coercivity floor from the growth constant, feasible-competitor value
    from the initial field as the ceiling).
    """
    lstar = study_oracle(cfg)
    initial = interpolate_boundary(cfg.mesh)
    init_du = gradient(initial)
    init_cells = initial.cell_values()
    # the floor alpha |g1 - g0| / C, with C the constant of the embedding
    # of L^{p_n} into L^1 at the sequence's ratio bound beta, holds for the
    # 1-D weighted norm, the one family study_oracle admits
    floored = cfg.mesh.dimension == 1
    if floored:
        g0, g1 = cfg.mesh.boundary.params
        beta = cfg.sequence().beta
    m = cfg.mesh.grid().total_measure

    sweep, meta = _solve_sweep(cfg)
    rows = []
    bounds_ok = True
    for n, p, res in sweep:
        err = abs(res.objective - lstar) / abs(lstar) if lstar != 0 else abs(res.objective)
        rows.append((n, p.p_minus, p.p_plus, res.objective, lstar, err))
        ceiling = eval_Fn(cfg.density, init_cells, init_du, p)
        if res.objective > ceiling * (1.0 + 1e-6) + 1e-12:
            bounds_ok = False
        if floored:
            embed = embedding_constant(m, 1.0, p.p_minus, p.p_plus, beta)
            if res.objective < cfg.density.alpha * abs(g1 - g0) / embed - 1e-9:
                bounds_ok = False

    errs = [r[5] for r in rows]
    verdicts = {
        **_trend_verdicts("error", errs, cfg.threshold),
        "bounds_ok": bounds_ok,
        "no_stagnation": not meta["stagnant_rows"],
    }
    meta.update(oracle=lstar, final_error=errs[-1])
    return Table(("n", "p_minus", "p_plus", "minimum", "oracle", "rel_error"),
                 rows, verdicts, meta)


def _probe_field(cfg: StudyConfig) -> DiscreteField:
    """The dichotomy probe: the limiting minimizer scaled by probe_scale."""
    return limit_minimizer(cfg).scaled(cfg.probe_scale)


def run_integral_dichotomy_study(cfg: StudyConfig) -> Table:
    """Evaluate the power integral on a fixed probe across the schedule.

    The probe's supremal value must sit clearly on one side of 1 (by
    :data:`DICHOTOMY_MARGIN`); the verdict then demands collapse below
    :data:`CONVERGENCE_THRESHOLD`, or blow-up past
    :data:`DIVERGENCE_THRESHOLD` (or the overflow sentinel), by the final n.
    """
    u = _probe_field(cfg)
    du = gradient(u)
    ucells = u.cell_values()
    sup = eval_supremal(cfg.density, ucells, du)
    if abs(sup - 1.0) < DICHOTOMY_MARGIN:
        raise PreconditionError(
            f"probe sits on the dichotomy boundary (sup = {sup:.6g}, "
            f"margin = {DICHOTOMY_MARGIN}); rescale the probe"
        )
    diverging = sup > 1.0
    oracle = np.inf if diverging else 0.0
    seq = cfg.sequence()
    rows = []
    for n in cfg.n_schedule:
        p = seq.field(n)
        val = eval_calFn(cfg.density, ucells, du, p)
        err = (DIVERGENCE_THRESHOLD / val) if diverging else val
        rows.append((n, p.p_minus, p.p_plus, val, oracle, err))
    final = rows[-1][3]
    if diverging:
        reached = (final >= DIVERGENCE_THRESHOLD) or np.isinf(final)
        verdicts = {"diverges_by_final_n": bool(reached)}
    else:
        verdicts = {"vanishes_by_final_n": bool(final < CONVERGENCE_THRESHOLD)}
    return Table(("n", "p_minus", "p_plus", "value", "oracle", "error"), rows, verdicts,
                 {"sup": sup, "branch": "diverging" if diverging else "vanishing",
                  "probe_scale": cfg.probe_scale})


def run_minimizer_convergence(cfg: StudyConfig) -> Table:
    """Track the minimizers themselves toward the limiting profile.

    Restricted to 1-D flat-profile weighted problems, where the finite-n
    minimizer is unique and the limiting profile has the closed form with
    slopes proportional to 1/a.
    """
    if cfg.mesh.dimension != 1 or np.ptp(cfg.sequence().profile) > 0:
        raise PreconditionError("minimizer tracking needs a 1-D flat-profile study")
    ustar = limit_minimizer(cfg).node_values

    sweep, meta = _solve_sweep(cfg)
    rows = []
    for n, p, res in sweep:
        dist = float(np.max(np.abs(res.field.node_values - ustar)))
        rows.append((n, p.p_minus, p.p_plus, dist, 0.0, dist))
    dists = [r[3] for r in rows]
    verdicts = {
        **_trend_verdicts("distance", dists, cfg.threshold),
        "no_stagnation": not meta["stagnant_rows"],
    }
    meta.update(fields={n: res.field for n, _, res in sweep}, final_distance=dists[-1])
    return Table(("n", "p_minus", "p_plus", "sup_distance", "oracle", "error"),
                 rows, verdicts, meta)


def norm_limit_study(u: GridFunction, seq: ExponentSequence, n_values) -> Table:
    """Tabulate ||u||_{p_n} against the cell-wise supremum of |u|.

    On a grid every cell has positive mass, so the essential supremum is the
    plain maximum; the error column must be eventually decreasing in the
    produced range.
    """
    _require_scalar(u)
    _require_same_grid(u, seq)
    sup = float(np.max(np.abs(u.values)))
    rows = []
    for n in _schedule(n_values, "n"):
        p = seq.field(n)
        lam = luxemburg_norm(u, p)
        rows.append((n, p.p_minus, p.p_plus, lam, sup, abs(lam - sup)))
    errs = [r[5] for r in rows]
    return Table(("n", "p_minus", "p_plus", "norm", "sup", "error"), rows,
                 {"error_eventually_decreasing": eventually_decreasing(errs)},
                 {"sup": sup, "final_error": errs[-1]})


def run_norm_limit(cfg: StudyConfig) -> Table:
    """The norm-limit table of the probe's cell values |u|, with a threshold verdict."""
    table = norm_limit_study(_probe_field(cfg).cell_values(), cfg.sequence(), cfg.n_schedule)
    bound = cfg.threshold * max(table.meta["sup"], 1e-300)
    table.verdicts.update(_trend_verdicts("error", [r[5] for r in table.rows], bound))
    return table
