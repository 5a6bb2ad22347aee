"""Convergence studies for the power-law approximation of supremal energies.

Each study sweeps an exponent schedule p_n(x) = n * profile(x) and tabulates
how a quantity of interest approaches its closed-form limit:

* ``norm_gamma``          minima of the norm-form energy against the
                          supremal oracle (the convergence-of-minima story);
* ``constant_exponent``   the same sweep with a flat profile, where the
                          finite-n minimizer is unique and its distance to
                          the limiting profile can be tracked;
* ``integral_dichotomy``  the power integral on a fixed probe field, which
                          either collapses to zero or blows up according to
                          whether the probe's supremal value sits below or
                          above one;
* ``norm_limit``          plain variable-exponent norms of a fixed field
                          against its supremum.

Rows are computed in increasing n with warm-started solves (each minimizer
seeds the next exponent's descent); results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import DiscreteField, MeshSpec, gradient, interpolate_boundary
from .energy import DensitySpec, eval_calFn, eval_Fn, eval_supremal
from .exponent_space import (
    ExponentSequence,
    GridFunction,
    PreconditionError,
    StructuralError,
    norm_limit_study,
)
from .reports import eventually_decreasing
from .solve import (
    FUNCTIONAL_NORM,
    SolverSettings,
    minimize_power,
    oracle_minimizer_1d,
    supremal_oracle_1d,
)

__all__ = [
    "STUDY_KINDS",
    "PROFILES",
    "build_exponent_sequence",
    "StudyConfig",
    "StudyResult",
    "run_norm_gamma_study",
    "run_integral_dichotomy_study",
    "run_minimizer_convergence",
    "run_norm_limit",
]

STUDY_KINDS = ("norm_gamma", "integral_dichotomy", "norm_limit", "constant_exponent")

PROFILES = {
    "constant": lambda x: np.ones_like(np.atleast_2d(x)[:, 0] if np.ndim(x) > 1 else x),
    "sine": lambda x: 2.0 + np.sin(2.0 * np.pi * (np.atleast_2d(x)[:, 0] if np.ndim(x) > 1 else x)),
}


def build_exponent_sequence(grid, profile: str, beta: float) -> ExponentSequence:
    if profile not in PROFILES:
        raise StructuralError(f"unknown exponent profile {profile!r}; have {sorted(PROFILES)}")
    pts = grid.cells[:, 0] if grid.dimension == 1 else grid.cells
    vals = np.asarray(PROFILES[profile](pts), dtype=float)
    return ExponentSequence(grid, vals, beta)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs: density, mesh, exponent schedule, solver knobs."""

    kind: str
    density: DensitySpec
    mesh: MeshSpec
    profile: str = "sine"
    beta: float = 3.0
    n_schedule: tuple = (4, 8, 16, 32, 64)
    solver: SolverSettings = field(default_factory=SolverSettings)
    threshold: float = 0.02
    delta: float = 0.1
    probe_scale: float = 1.0
    divergence_threshold: float = 1e8
    convergence_threshold: float = 1e-8

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise StructuralError(f"unknown study kind {self.kind!r}")
        sched = tuple(int(n) for n in self.n_schedule)
        if len(sched) == 0 or any(b <= a for a, b in zip(sched, sched[1:])):
            raise StructuralError("the n schedule must be strictly increasing")
        object.__setattr__(self, "n_schedule", sched)
        # growth (pn1) and ratio bound (pn2) on the requested prefix
        self.sequence().check_prefix(sched)

    def sequence(self) -> ExponentSequence:
        return build_exponent_sequence(self.mesh.grid(), self.profile, self.beta)


@dataclass
class StudyResult:
    kind: str
    columns: tuple
    rows: list
    verdicts: dict
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _weight_field(cfg: StudyConfig) -> GridFunction:
    if cfg.density.family != "weighted_norm":
        raise PreconditionError(
            "closed-form oracles need the weighted-norm density family"
        )
    return GridFunction(cfg.mesh.grid(), cfg.density.coefficients["a"])


def _boundary_rise(cfg: StudyConfig):
    b = cfg.mesh.boundary
    if b.kind == "endpoints":
        return b.params[0], b.params[1]
    g0 = float(b.value(np.array([[0.0]])))
    g1 = float(b.value(np.array([[cfg.mesh.extents[0]]])))
    return g0, g1


def study_oracle(cfg: StudyConfig) -> float:
    """Closed-form limiting minimum for the configured problem.

    1-D: the weighted Lipschitz-extension value |g1 - g0| / integral(1/a).
    2-D: affine data with constant weight, where the affine extension is
    optimal and the value is the weight times the slope magnitude.
    """
    if cfg.mesh.dimension == 1:
        a = _weight_field(cfg)
        g0, g1 = _boundary_rise(cfg)
        return supremal_oracle_1d(a, g0, g1)
    if cfg.mesh.boundary.kind != "affine":
        raise PreconditionError("2-D studies need affine boundary data")
    a = _weight_field(cfg)
    if np.ptp(a.values) > 1e-12 * max(1.0, float(np.max(np.abs(a.values)))):
        raise PreconditionError("2-D oracle needs a constant weight")
    slopes = np.asarray(cfg.mesh.boundary.params[1:], dtype=float)
    return float(a.values[0]) * float(np.linalg.norm(slopes))


def limit_minimizer(cfg: StudyConfig) -> DiscreteField:
    """The limiting optimal field: equalizing profile in 1-D, affine extension in 2-D."""
    if cfg.mesh.dimension == 1:
        a = _weight_field(cfg)
        g0, g1 = _boundary_rise(cfg)
        return DiscreteField(cfg.mesh, oracle_minimizer_1d(a, g0, g1))
    return interpolate_boundary(cfg.mesh)


def run_norm_gamma_study(cfg: StudyConfig) -> StudyResult:
    """Sweep the norm-form minima m_n against the supremal oracle.

    Verdicts: the relative errors are eventually decreasing and end below
    the configured threshold, and every row respects the a-priori bracket
    (coercivity floor from the growth constant, feasible-competitor value
    from the initial field as the ceiling).
    """
    if cfg.kind != "norm_gamma":
        raise PreconditionError(f"study kind is {cfg.kind!r}, expected 'norm_gamma'")
    lstar = study_oracle(cfg)
    seq = cfg.sequence()
    grid = cfg.mesh.grid()
    initial = interpolate_boundary(cfg.mesh)
    init_du = gradient(initial)
    init_cells = initial.cell_values()

    rows = []
    bounds_ok = True
    stagnant = []
    traces = {}
    warm = None
    m = grid.total_measure
    for n in cfg.n_schedule:
        p = seq.field(n)
        res = minimize_power(FUNCTIONAL_NORM, cfg.density, p, cfg.mesh,
                             settings=cfg.solver, init=warm)
        warm = res.field
        traces[n] = res.traces
        if res.stagnated:
            stagnant.append(n)
        err = abs(res.objective - lstar) / abs(lstar) if lstar != 0 else abs(res.objective)
        rows.append((n, p.p_minus, p.p_plus, res.objective, lstar, err))

        ceiling = eval_Fn(cfg.density, init_cells, init_du, p)
        if res.objective > ceiling * (1.0 + 1e-6) + 1e-12:
            bounds_ok = False
        if cfg.mesh.dimension == 1 and cfg.density.gamma == 1.0 \
                and cfg.density.family == "weighted_norm":
            g0, g1 = _boundary_rise(cfg)
            embed = max(m ** (1.0 - 1.0 / p.p_minus),
                        m ** (cfg.beta * (1.0 - 1.0 / p.p_plus)))
            embed *= 1.0 + (cfg.beta - 1.0) / p.p_plus
            floor = cfg.density.alpha * abs(g1 - g0) / embed
            if res.objective < floor - 1e-9:
                bounds_ok = False

    errs = [r[5] for r in rows]
    verdicts = {
        "error_eventually_decreasing": eventually_decreasing(errs),
        "final_error_below_threshold": errs[-1] <= cfg.threshold,
        "bounds_ok": bounds_ok,
        "no_stagnation": not stagnant,
    }
    return StudyResult(
        kind=cfg.kind,
        columns=("n", "p_minus", "p_plus", "minimum", "oracle", "rel_error"),
        rows=rows,
        verdicts=verdicts,
        meta={"oracle": lstar, "stagnant_rows": stagnant, "final_error": errs[-1],
              "traces": traces},
    )


def probe_field(cfg: StudyConfig) -> DiscreteField:
    """The dichotomy probe: the limiting minimizer scaled by probe_scale."""
    return limit_minimizer(cfg).scaled(cfg.probe_scale)


def run_integral_dichotomy_study(cfg: StudyConfig) -> StudyResult:
    """Evaluate the power integral on a fixed probe across the schedule.

    The probe's supremal value must sit clearly on one side of 1 (margin
    delta); the verdict then demands collapse below the convergence
    threshold, or blow-up past the divergence threshold (or the overflow
    sentinel), by the final n.
    """
    if cfg.kind != "integral_dichotomy":
        raise PreconditionError(f"study kind is {cfg.kind!r}, expected 'integral_dichotomy'")
    u = probe_field(cfg)
    du = gradient(u)
    ucells = u.cell_values()
    sup = eval_supremal(cfg.density, ucells, du)
    if abs(sup - 1.0) < cfg.delta:
        raise PreconditionError(
            f"probe sits on the dichotomy boundary (sup = {sup:.6g}, delta = {cfg.delta}); "
            "rescale the probe"
        )
    diverging = sup > 1.0
    oracle = np.inf if diverging else 0.0
    seq = cfg.sequence()
    rows = []
    for n in cfg.n_schedule:
        p = seq.field(n)
        val = eval_calFn(cfg.density, ucells, du, p)
        err = (cfg.divergence_threshold / val) if diverging else val
        rows.append((n, p.p_minus, p.p_plus, val, oracle, err))
    final = rows[-1][3]
    if diverging:
        reached = (final >= cfg.divergence_threshold) or np.isinf(final)
        verdicts = {"diverges_by_final_n": bool(reached)}
    else:
        verdicts = {"vanishes_by_final_n": bool(final < cfg.convergence_threshold)}
    return StudyResult(
        kind=cfg.kind,
        columns=("n", "p_minus", "p_plus", "value", "oracle", "error"),
        rows=rows,
        verdicts=verdicts,
        meta={"sup": sup, "branch": "diverging" if diverging else "vanishing",
              "probe_scale": cfg.probe_scale},
    )


def run_minimizer_convergence(cfg: StudyConfig) -> StudyResult:
    """Track the minimizers themselves toward the limiting profile.

    Restricted to 1-D flat-profile weighted problems, where the finite-n
    minimizer is unique and the limiting profile has the closed form with
    slopes proportional to 1/a.
    """
    if cfg.kind != "constant_exponent":
        raise PreconditionError(f"study kind is {cfg.kind!r}, expected 'constant_exponent'")
    if cfg.mesh.dimension != 1 or cfg.profile != "constant":
        raise PreconditionError("minimizer tracking needs a 1-D flat-profile study")
    ustar = limit_minimizer(cfg).node_values
    seq = cfg.sequence()
    rows = []
    fields = {}
    traces = {}
    warm = None
    stagnant = []
    for n in cfg.n_schedule:
        p = seq.field(n)
        res = minimize_power(FUNCTIONAL_NORM, cfg.density, p, cfg.mesh,
                             settings=cfg.solver, init=warm)
        warm = res.field
        fields[n] = res.field
        traces[n] = res.traces
        if res.stagnated:
            stagnant.append(n)
        dist = float(np.max(np.abs(res.field.node_values - ustar)))
        rows.append((n, p.p_minus, p.p_plus, dist, 0.0, dist))
    dists = [r[3] for r in rows]
    verdicts = {
        "distance_eventually_decreasing": eventually_decreasing(dists),
        "final_distance_below_threshold": dists[-1] <= cfg.threshold,
        "no_stagnation": not stagnant,
    }
    return StudyResult(
        kind=cfg.kind,
        columns=("n", "p_minus", "p_plus", "sup_distance", "oracle", "error"),
        rows=rows,
        verdicts=verdicts,
        meta={"fields": fields, "stagnant_rows": stagnant,
              "final_distance": dists[-1], "traces": traces},
    )


def run_norm_limit(cfg: StudyConfig) -> StudyResult:
    """Variable-exponent norms of the probe's density field against its supremum."""
    if cfg.kind != "norm_limit":
        raise PreconditionError(f"study kind is {cfg.kind!r}, expected 'norm_limit'")
    u = probe_field(cfg)
    seq = cfg.sequence()
    table = norm_limit_study(u.cell_values(), seq, cfg.n_schedule)
    sup = table.meta["sup"]
    rows = []
    for n, (nn, norm, err) in zip(cfg.n_schedule, table.rows):
        p = seq.field(n)
        rows.append((n, p.p_minus, p.p_plus, norm, sup, err))
    errs = [r[5] for r in rows]
    verdicts = {
        "error_eventually_decreasing": table.verdicts["error_eventually_decreasing"],
        "final_error_below_threshold": errs[-1] <= cfg.threshold * max(sup, 1e-300),
    }
    return StudyResult(
        kind=cfg.kind,
        columns=("n", "p_minus", "p_plus", "norm", "sup", "error"),
        rows=rows,
        verdicts=verdicts,
        meta={"sup": sup, "final_error": errs[-1]},
    )
