"""Energy densities f(x, u, xi) and the three power-law functionals built on them.

Built-in families are level convex by construction:

* ``weighted_norm``     f = a(x) |xi|
* ``shifted_norm``      f = |xi - b(x)|
* ``anisotropic``       f = max_j a_j(x) |xi_j|

Each family's formula is one table entry, giving f and d(log f)/d(xi) at a
smoothing eps >= 0 (eps = 0 is exact) on the last axis of xi; the scalar
:func:`eval_density`, the cell-wise :func:`density_field` and the solver all
call it.  A coefficient array is per-cell iff its leading axis has one entry
per grid cell; anything else is shared by every cell.

Custom densities are a named closed-form rule from the registry plus
tabulated coefficient fields, so probe reports can cite parameters instead
of opaque callables.  The two hypotheses a density must satisfy for the
approximation theory, level convexity in xi and the coercivity bound
f >= alpha |xi|^gamma, are verified statistically by the probes below.
Each probe draws all its samples first, one Generator call per array, and
then evaluates them with one :func:`eval_density` call per density value.
The benchmark's tracer coverage test pins that call count
(``perfbench/test_perfbench.py``), so the evaluations stay per value until
ROADMAP item 1 re-expresses the pin.  Like every checker, a probe records
its check with :meth:`~suplab.reports.RelationReport.add_rows`: it counts
the violations and keeps one witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponent_space import (
    ExponentField,
    Grid,
    GridFunction,
    PreconditionError,
    StructuralError,
    _linear,
    _log0,
    _logsumexp,
    _require_same_grid,
    luxemburg_norm,
)
from .reports import RelationReport

__all__ = [
    "DensityContractError",
    "DensitySpec",
    "register_custom_rule",
    "custom_rule_names",
    "eval_density",
    "density_field",
    "eval_supremal",
    "eval_Fn",
    "eval_calFn",
    "level_convexity_probe",
    "growth_check",
]


class DensityContractError(ValueError):
    """A custom rule returned a negative or non-finite value, or not one value per sample."""


_CUSTOM_RULES: dict = {}


def register_custom_rule(name: str, fn) -> None:
    """Register a closed-form rule fn(coeffs, u_val, xi) -> values for custom densities.

    Rules are evaluated on the last axis of ``xi``: one call gets a batch of
    samples ``xi[..., k]`` with the coefficient arrays and ``u_val`` on the
    matching leading axes (0-d for a single sample) and returns one value
    per sample, an array of shape ``xi.shape[:-1]``.  The values must be
    finite and nonnegative; the first sample that is not raises
    :class:`DensityContractError` naming its ``xi``.
    """
    _CUSTOM_RULES[name] = fn


def custom_rule_names():
    return tuple(sorted(_CUSTOM_RULES))


def _rule_unit_sphere_distance(coeffs, u_val, xi):
    # distance of |xi| from 1; sublevel sets are annuli, so NOT level convex
    return np.abs(np.linalg.norm(xi, axis=-1) - 1.0)


def _rule_capped_norm(coeffs, u_val, xi):
    # min(|xi|, cap) + slope |xi|: a monotone transform of the norm, level convex
    r = np.linalg.norm(xi, axis=-1)
    return np.minimum(r, coeffs.get("cap", 1.0)) + coeffs.get("slope", 1e-6) * r


def _rule_weighted_norm_power(coeffs, u_val, xi):
    # (a(x) |xi|)^power: level convex for any power > 0, growth exponent = power
    return (coeffs["a"] * np.linalg.norm(xi, axis=-1)) ** coeffs["power"]


register_custom_rule("unit_sphere_distance", _rule_unit_sphere_distance)
register_custom_rule("capped_norm", _rule_capped_norm)
register_custom_rule("weighted_norm_power", _rule_weighted_norm_power)


# Family formulas: (spec, coefficients, u, xi, eps) -> (f, d(log f)/d(xi)) on
# the last axis of xi, for one sample (k,) with one cell's coefficients or a
# field (cells, k) with all of them.  eps > 0 smooths the kink as
# sqrt(|.|^2 + eps^2); at eps = 0, the exact density, no derivative is made.

def _weighted_norm(f, c, u, xi, eps):
    s2 = np.vecdot(xi, xi) + eps * eps
    return c["a"] * np.sqrt(s2), (xi / s2[..., None] if eps > 0 else None)


def _shifted_norm(f, c, u, xi, eps):
    d = xi - c["b"]
    s2 = np.vecdot(d, d) + eps * eps
    return np.sqrt(s2), (d / s2[..., None] if eps > 0 else None)


def _anisotropic(f, c, u, xi, eps):
    sm = np.hypot(xi, eps)
    vals = c["a"] * sm
    val = vals.max(-1)
    if eps == 0:
        return val, None
    # only the (first) largest component moves the max
    top = np.arange(xi.shape[-1]) == vals.argmax(-1)[..., None]
    return val, np.where(top, xi / (sm * sm), 0.0)


def _custom(f, c, u, xi, eps):
    if eps > 0:
        raise PreconditionError(f"custom rule {f.rule!r} has no smoothed gradient; "
                                "descent needs a built-in family")
    # coefficients as arrays (0-d for one sample), so that a single sample
    # takes the same array arithmetic as a batch
    c = {k: np.asarray(v) for k, v in c.items()}
    vals = np.asarray(_CUSTOM_RULES[f.rule](c, u, xi), dtype=float)
    if vals.shape != xi.shape[:-1]:
        raise DensityContractError(f"custom rule {f.rule!r} returned shape {vals.shape} "
                                   f"for xi of shape {xi.shape}")
    bad = ~np.isfinite(vals) | (vals < 0)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise DensityContractError(f"custom rule {f.rule!r} returned {vals[i]} at xi = {xi[i].tolist()}")
    return vals, None


# family -> (formula, required coefficient, whether it has a component axis,
# matched against the last axis of xi; one value per cell stands for all)
_FAMILIES = {
    "weighted_norm": (_weighted_norm, "a", False),
    "shifted_norm": (_shifted_norm, "b", True),
    "anisotropic": (_anisotropic, "a", True),
    "custom": (_custom, None, False),
}


def _density(f, c, u, xi, eps):
    """Density values and d(log f)/d(xi) of f's family; see the table above."""
    formula, key, per_component = _FAMILIES[f.family]
    if per_component and c[key].shape[-1] not in (1, xi.shape[-1]):
        raise StructuralError(f"{key!r} has {c[key].shape[-1]} components, xi has {xi.shape[-1]}")
    return formula(f, c, u, xi, eps)


def _per_cell(n_cells, val):
    """Read-only coefficient with a leading cell axis.

    An array is per-cell iff its leading axis has ``n_cells`` entries;
    anything else is shared by every cell.
    """
    arr = np.array(val, dtype=float)
    if arr.ndim == 0 or arr.shape[0] != n_cells:
        arr = np.array(np.broadcast_to(arr, (n_cells,) + arr.shape))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensitySpec:
    """Parametric density with declared growth constants and convexity flag.

    Coefficients are resolved to per-cell arrays once, here (``_per_cell``).
    """

    grid: Grid
    family: str
    coefficients: dict = field(default_factory=dict)
    alpha: float = 1.0
    gamma: float = 1.0
    level_convex: bool = True
    rule: str | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise StructuralError(f"unknown density family {self.family!r}")
        coeffs = {k: _per_cell(self.grid.n_cells, v) for k, v in self.coefficients.items()}
        _, key, per_component = _FAMILIES[self.family]
        if key is not None:
            if key not in coeffs:
                raise StructuralError(f"{self.family} needs an {key!r} coefficient field")
            arr = coeffs[key]
            # a weight scales |xi|: a zero weight is a free cell, a negative
            # or non-finite one no density at all
            if key == "a" and not np.all(np.isfinite(arr) & (arr >= 0)):
                raise StructuralError(f"{self.family} weight 'a' must be finite and nonnegative")
            if per_component and arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 1 + per_component:
                raise StructuralError(f"{self.family} {key!r} has shape {arr.shape[1:]} per cell")
            coeffs[key] = arr
        if not (self.alpha > 0 and self.gamma > 0):
            raise StructuralError("growth constants alpha, gamma must be positive")
        object.__setattr__(self, "coefficients", coeffs)
        if self.family == "custom":
            if self.rule is None or self.rule not in _CUSTOM_RULES:
                raise StructuralError(
                    f"custom density needs a registered rule, got {self.rule!r}"
                )

    @classmethod
    def weighted_norm(cls, grid: Grid, a=1.0, alpha=None, gamma=1.0) -> "DensitySpec":
        if callable(a):
            a = a(grid.points)
        if alpha is None:
            alpha = float(np.min(a))
        return cls(grid, "weighted_norm", {"a": a}, alpha=alpha, gamma=gamma)

    @classmethod
    def shifted_norm(cls, grid: Grid, b=0.0, alpha=1e-6, gamma=1.0) -> "DensitySpec":
        return cls(grid, "shifted_norm", {"b": b}, alpha=alpha, gamma=gamma)

    @classmethod
    def anisotropic(cls, grid: Grid, a=1.0, alpha=None, gamma=1.0) -> "DensitySpec":
        if alpha is None:
            # max_j a_j |xi_j| >= min(a) |xi| / sqrt(k) for xi with k components
            k = max(grid.dimension, _per_cell(grid.n_cells, a)[0].size)
            alpha = float(np.min(a)) / np.sqrt(k)
        return cls(grid, "anisotropic", {"a": a}, alpha=alpha, gamma=gamma)

    @classmethod
    def custom(cls, grid: Grid, rule: str, coefficients=None, alpha=1e-6,
               gamma=1.0, level_convex=True) -> "DensitySpec":
        return cls(grid, "custom", dict(coefficients or {}), alpha=alpha,
                   gamma=gamma, level_convex=level_convex, rule=rule)


def eval_density(f: DensitySpec, cell: int, u_val, xi) -> float:
    """Evaluate the density at one cell; custom rules must stay nonnegative."""
    c = {k: v[cell] for k, v in f.coefficients.items()}
    val, _ = _density(f, c, u_val, np.atleast_1d(np.asarray(xi, dtype=float)), 0.0)
    return float(val)


def density_field(f: DensitySpec, u: GridFunction | None, Du: GridFunction) -> GridFunction:
    """Cell-wise density values f(x_i, u_i, Du_i) as a scalar grid function."""
    xi = Du.values if Du.components > 1 else Du.values[:, None]
    uvals = u.values if u is not None else np.zeros(Du.grid.n_cells)
    vals, _ = _density(f, f.coefficients, uvals, xi, 0.0)
    return GridFunction(Du.grid, vals)


def eval_supremal(f: DensitySpec, u: GridFunction | None, Du: GridFunction) -> float:
    """Supremal energy: the largest cell value of the density."""
    return float(np.max(density_field(f, u, Du).values))


def eval_Fn(f: DensitySpec, u: GridFunction | None, Du: GridFunction,
            p: ExponentField) -> float:
    """Variable-exponent norm of the density field."""
    vals = density_field(f, u, Du)
    _require_same_grid(vals, p)
    return luxemburg_norm(vals, p)


def eval_calFn(f: DensitySpec, u: GridFunction | None, Du: GridFunction,
               p: ExponentField) -> float:
    """Exponent-normalized power integral sum_i (w_i / p_i) f_i^{p_i}.

    Returns the +inf sentinel once the log-domain accumulator passes the
    overflow cap; vanishing cells contribute nothing.
    """
    vals = density_field(f, u, Du)
    _require_same_grid(vals, p)
    terms = vals.grid.log_weights - np.log(p.values) + p.values * _log0(vals.values)
    return _linear(_logsumexp(terms))


# the probes draw xi ~ N(0, _PROBE_SCALE^2 I) with one component per grid
# dimension
_PROBE_SCALE = 2.0


def level_convexity_probe(f: DensitySpec, trials=10000, seed=0) -> RelationReport:
    """Randomized search for level-convexity violations along segments.

    Draws (cell, u, xi1, xi2, theta) for every trial as arrays and checks
    f(theta xi1 + (1-theta) xi2) <= max(f(xi1), f(xi2)), with one
    :func:`eval_density` call per density value, three per trial (per value
    until ROADMAP item 1 re-expresses the tracer's call-count pin).
    Violations are counted in ``meta["violations"]`` and the report keeps
    one witness, the first violation in trial order; they are evidence the
    density is not level convex, not an error.
    """
    rng = np.random.default_rng(seed)
    shape = (trials, f.grid.dimension)
    cells = rng.integers(f.grid.n_cells, size=trials)
    u = rng.normal(size=trials)
    xi1 = _PROBE_SCALE * rng.normal(size=shape)
    xi2 = _PROBE_SCALE * rng.normal(size=shape)
    theta = rng.uniform(size=trials)
    t = theta[:, None]
    mid = t * xi1 + (1 - t) * xi2
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    for i in range(trials):
        c, v = cells[i], u[i]
        lhs[i] = eval_density(f, c, v, mid[i])
        rhs[i] = max(eval_density(f, c, v, xi1[i]), eval_density(f, c, v, xi2[i]))
    bad = lhs > rhs + 1e-10 * (1.0 + np.abs(rhs))
    rep = RelationReport(f"level convexity of {f.family}")
    rep.add_rows(
        "level_convexity", ~bad, rhs - lhs,
        note=lambda w: f"{bad.sum()}/{trials} violations",
        witness=lambda w: {"cell": int(cells[w]), "u": float(u[w]), "xi1": xi1[w].tolist(),
                           "xi2": xi2[w].tolist(), "theta": float(theta[w]),
                           "lhs": float(lhs[w]), "rhs": float(rhs[w])},
    )
    return rep


def growth_check(f: DensitySpec, trials=10000, seed=0) -> RelationReport:
    """Randomized check of the coercivity bound f(x, u, xi) >= alpha |xi|^gamma.

    Draws (cell, u, xi) for every trial as arrays, computes the bounds as
    one array expression and evaluates the density with one
    :func:`eval_density` call per trial (per value until ROADMAP item 1
    re-expresses the tracer's call-count pin); the one witness is the first
    violation in trial order.
    """
    rng = np.random.default_rng(seed)
    cells = rng.integers(f.grid.n_cells, size=trials)
    u = rng.normal(size=trials)
    xi = _PROBE_SCALE * rng.normal(size=(trials, f.grid.dimension))
    bound = f.alpha * np.linalg.norm(xi, axis=-1) ** f.gamma
    val = np.empty(trials)
    for i in range(trials):
        val[i] = eval_density(f, cells[i], u[i], xi[i])
    bad = val < bound - 1e-12 * (1.0 + bound)
    rep = RelationReport(f"growth bound of {f.family}")
    rep.add_rows(
        "growth_lower_bound", ~bad, val - bound,
        note=lambda w: f"{bad.sum()}/{trials} violations (alpha={f.alpha}, gamma={f.gamma})",
        witness=lambda w: {"cell": int(cells[w]), "cell_center": f.grid.cells[cells[w]].tolist(),
                           "u": float(u[w]), "xi": xi[w].tolist(), "value": float(val[w]),
                           "bound": float(bound[w])},
    )
    return rep
