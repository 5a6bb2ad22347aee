"""Energy densities f(x, u, xi) and the three power-law functionals built on them.

Every density is one row of the family table (``_FAMILIES``), which holds
all that suplab knows of it: the formula, the coefficient it reads (a
weight ``a``, a shift ``b`` or none) and whether that coefficient has a
component axis, whether the density is level convex, whether a smoothing
eps > 0 gives d(log f)/d(xi), and the default growth constant alpha:

* ``weighted_norm``         f = a(x) |xi|
* ``shifted_norm``          f = |xi - b(x)|
* ``anisotropic``           f = max_j a_j(x) |xi_j|
* ``capped_norm``           f = min(|xi|, 1) + 1e-6 |xi|
* ``unit_sphere_distance``  f = ||xi| - 1|, whose sublevel sets are annuli,
                            so it is not level convex

Every Euclidean norm in suplab, each row's ``|.|``, the growth bound
alpha |xi| and the 2-D oracle's slope magnitude, comes from one helper,
:func:`_norm`, which at eps = 0 forms no square and so is exact at every
finite magnitude; the ``|xi_j|`` of ``anisotropic`` are plain absolute values.

The formula gives f and d(log f)/d(xi) at a smoothing eps >= 0 (eps = 0 is
exact) on the last axis of xi; :func:`_density` reads the coefficients
of every cell, or of the given cells, and calls it for the scalar
:func:`eval_density`, the cell-wise :func:`density_field`, the solver and
the Jensen check.  A coefficient array is per-cell iff its leading axis
has one entry per grid cell, else it is shared by every cell; either way it
is kept as one (cells,) or (cells, k) array under the one cell-array rule.

The two hypotheses of the approximation theory, level convexity in xi and
the coercivity bound f >= alpha |xi|, are verified statistically by the
probes below.  Each probe draws all its samples first, one Generator call
per array, and then evaluates them with one :func:`eval_density` call per
density value, a count the benchmark's tracer coverage test pins
(``perfbench/test_perfbench.py``) until ROADMAP item 1 re-expresses it.
Like every checker, a probe records its check with
:meth:`~suplab.reports.RelationReport.add_rows`: it counts the violations
and keeps one witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exponent_space import (
    ExponentField,
    Grid,
    GridFunction,
    PreconditionError,
    StructuralError,
    _cell_array,
    _components,
    _index,
    _linear,
    _log0,
    _logsumexp,
    _require_same_grid,
    luxemburg_norm,
)
from .reports import RelationReport

__all__ = [
    "JENSEN_TOL",
    "DensitySpec",
    "eval_density",
    "density_field",
    "eval_supremal",
    "eval_Fn",
    "eval_calFn",
    "level_convexity_probe",
    "growth_check",
]


# Family formulas: (coefficients, xi, eps) -> (f, d(log f)/d(xi)) on the
# last axis of xi, for one sample (k,) with one cell's coefficients or a
# field (cells, k) with all of them.  eps > 0 smooths the kink as
# sqrt(|.|^2 + eps^2); at eps = 0, the exact density, no derivative is made.

def _norm(xi, eps=0.0):
    """|xi| on the last axis, and the smoothed square s2 = |xi|^2 + eps^2 for eps > 0.

    At eps = 0 no square is formed, so the norm is exact at every finite
    magnitude and s2 is None; at eps > 0 the norm is sqrt(s2), whose
    log-derivative xi / s2 the solver descends along.
    """
    if eps > 0:
        s2 = np.vecdot(xi, xi) + eps * eps
        return np.sqrt(s2), s2
    # from 0, as hypot(0, x) = |x|: a reduce over one component would return x itself
    return np.hypot.reduce(xi, axis=-1, initial=0.0), None


def _weighted_norm(c, xi, eps):
    r, s2 = _norm(xi, eps)
    return c["a"] * r, (xi / s2[..., None] if eps > 0 else None)


def _shifted_norm(c, xi, eps):
    d = xi - c["b"]
    r, s2 = _norm(d, eps)
    return r, (d / s2[..., None] if eps > 0 else None)


def _anisotropic(c, xi, eps):
    sm = np.hypot(xi, eps)
    vals = c["a"] * sm
    val = vals.max(-1)
    if eps == 0:
        return val, None
    # only the (first) largest component moves the max
    top = np.arange(xi.shape[-1]) == vals.argmax(-1)[..., None]
    return val, np.where(top, xi / (sm * sm), 0.0)


def _capped_norm(c, xi, eps):
    # a monotone transform of the norm, so level convex
    r = _norm(xi)[0]
    return np.minimum(r, 1.0) + 1e-6 * r, None


def _unit_sphere_distance(c, xi, eps):
    return np.abs(_norm(xi)[0] - 1.0), None


class _Family(NamedTuple):
    formula: Callable
    coefficient: str | None
    per_component: bool     # matched against the last axis of xi; one value per cell stands for all
    level_convex: bool
    smoothed: bool          # eps > 0 gives d(log f)/d(xi)
    alpha: Callable         # (dimension, coefficient array or None) -> default alpha


_FAMILIES = {
    "weighted_norm": _Family(_weighted_norm, "a", False, True, True,
                             lambda dim, a: float(np.min(a))),
    "shifted_norm": _Family(_shifted_norm, "b", True, True, True, lambda dim, b: 1e-6),
    # max_j a_j |xi_j| >= min(a) |xi| / sqrt(k) for xi with k components
    "anisotropic": _Family(_anisotropic, "a", True, True, True,
                           lambda dim, a: float(np.min(a)) / np.sqrt(max(dim, a.shape[1]))),
    "capped_norm": _Family(_capped_norm, None, False, True, False, lambda dim, c: 1e-6),
    "unit_sphere_distance": _Family(_unit_sphere_distance, None, False, False, False,
                                    lambda dim, c: 1e-6),
}

# coefficient -> (what it is, its default, whether it must be >= 0): a zero
# weight leaves its cell free, a negative one is no density; a shift is any point
_COEFFICIENTS = {"a": ("weight", 1.0, True), "b": ("shift", 0.0, False)}


def _density(f, xi, cells=None, eps=0.0):
    """f and d(log f)/d(xi) at xi, one sample per cell or per entry of the index ``cells``."""
    formula, key, per_component, _, smoothed, _ = _FAMILIES[f.family]
    if eps > 0 and not smoothed:
        raise PreconditionError(f"{f.family} has no smoothed gradient; descent needs "
                                "a family whose row has one")
    c = f.coefficients if cells is None else {k: v[cells] for k, v in f.coefficients.items()}
    if per_component and c[key].shape[-1] not in (1, xi.shape[-1]):
        raise StructuralError(f"{key!r} has {c[key].shape[-1]} components, xi has {xi.shape[-1]}")
    return formula(c, xi, eps)


@dataclass(frozen=True)
class DensitySpec:
    """One row of the family table with its coefficient and growth constant alpha.

    The coefficient, a number, an array or a callable of the cell centers
    (``grid.points``), is resolved to a per-cell array once, here;
    a coefficient left out takes its default (weight 1, shift 0).
    ``alpha=None`` takes the row's default; H2 is f >= alpha |xi|.
    """

    grid: Grid
    family: str
    coefficients: dict = field(default_factory=dict)
    alpha: float | None = None

    def __post_init__(self):
        row = _FAMILIES.get(self.family)
        if row is None:
            raise StructuralError(f"unknown density family {self.family!r}")
        for key in self.coefficients:
            if key != row.coefficient:
                raise StructuralError(f"{self.family} reads no coefficient {key!r}")
        coeffs = {}
        if row.coefficient is not None:
            key = row.coefficient
            noun, default, nonnegative = _COEFFICIENTS[key]
            val = self.coefficients.get(key, default)
            arr = np.asarray(val(self.grid.points) if callable(val) else val, dtype=float)
            # an array is per-cell iff its leading axis has one entry per cell
            if arr.ndim == 0 or arr.shape[0] != self.grid.n_cells:
                arr = np.broadcast_to(arr, (self.grid.n_cells,) + arr.shape)
            if row.per_component and arr.ndim == 1:
                arr = arr[:, None]
            arr = _cell_array(arr, (self.grid.n_cells,), f"{self.family} {noun} {key!r}",
                              1 + row.per_component)
            if nonnegative and np.any(arr < 0):
                raise StructuralError(f"{self.family} {noun} {key!r} must be nonnegative")
            coeffs[key] = arr
        object.__setattr__(self, "coefficients", coeffs)
        if self.alpha is None:
            object.__setattr__(self, "alpha", row.alpha(self.grid.dimension,
                                                        coeffs.get(row.coefficient)))
        # an infinite alpha would pass the growth check vacuously (inf - inf is nan)
        if not 0 < self.alpha < np.inf:
            raise StructuralError("growth constant alpha must be positive and finite")

    @property
    def level_convex(self) -> bool:
        return _FAMILIES[self.family].level_convex

    @classmethod
    def weighted_norm(cls, grid: Grid, a=1.0, alpha=None) -> "DensitySpec":
        return cls(grid, "weighted_norm", {"a": a}, alpha)

    @classmethod
    def shifted_norm(cls, grid: Grid, b=0.0, alpha=None) -> "DensitySpec":
        return cls(grid, "shifted_norm", {"b": b}, alpha)

    @classmethod
    def anisotropic(cls, grid: Grid, a=1.0, alpha=None) -> "DensitySpec":
        return cls(grid, "anisotropic", {"a": a}, alpha)


def eval_density(f: DensitySpec, cell: int, u_val, xi) -> float:
    """Evaluate the density at one cell.

    A non-integer index, one off the grid, and a ``xi`` that is not one
    finite vector of at least one component are refused.  A finite value
    costs no pass over ``xi``.
    """
    cell = _index(cell, "cell index")
    if not 0 <= cell < f.grid.n_cells:
        raise StructuralError(f"cell {cell} is not one of the {f.grid.n_cells} cells")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    val = float(_density(f, xi, cell)[0]) if xi.ndim == 1 and xi.size else math.nan
    if not math.isfinite(val):
        # off the fast path only: refuse a xi that is not one finite vector with a component
        _components(_cell_array(xi, (), "xi", 1), "xi")
    return val


def density_field(f: DensitySpec, u: GridFunction | None, Du: GridFunction) -> GridFunction:
    """Cell-wise density values f(x_i, u_i, Du_i) on Du's grid, which f and u must share."""
    _require_same_grid(Du, f, *([] if u is None else [u]))
    xi = Du.values if Du.components > 1 else Du.values[:, None]
    vals, _ = _density(f, xi)
    return GridFunction(Du.grid, vals)


def eval_supremal(f: DensitySpec, u: GridFunction | None, Du: GridFunction) -> float:
    """Supremal energy: the largest cell value of the density."""
    return float(np.max(density_field(f, u, Du).values))


def eval_Fn(f: DensitySpec, u: GridFunction | None, Du: GridFunction,
            p: ExponentField) -> float:
    """Variable-exponent norm of the density field."""
    return luxemburg_norm(density_field(f, u, Du), p)


def _log_calF(logw, p, logf):
    """log sum_i (w_i / p_i) f_i^{p_i} from the cell logs of w and f; leading axes are rows."""
    return _logsumexp(logw - np.log(p) + p * logf)


def eval_calFn(f: DensitySpec, u: GridFunction | None, Du: GridFunction,
               p: ExponentField) -> float:
    """Exponent-normalized power integral sum_i (w_i / p_i) f_i^{p_i}.

    Returns the +inf sentinel once the log-domain accumulator passes the
    overflow cap; vanishing cells contribute nothing.
    """
    vals = density_field(f, u, Du)
    _require_same_grid(vals, p)
    return _linear(_log_calF(vals.grid.log_weights, p.values, _log0(vals.values)))


# the probes draw xi ~ N(0, _PROBE_SCALE^2 I), one component per grid dimension;
# every level-convexity check lets f(mean) pass the max by JENSEN_TOL (1 + |max|)
_PROBE_SCALE = 2.0
JENSEN_TOL = 1e-10


def level_convexity_probe(f: DensitySpec, trials=10000, seed=0) -> RelationReport:
    """Randomized search for level-convexity violations along segments.

    Draws (cell, u, xi1, xi2, theta) for every trial as arrays and checks
    f(theta xi1 + (1-theta) xi2) <= max(f(xi1), f(xi2)) within
    :data:`JENSEN_TOL`, with three :func:`eval_density` calls per trial.
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
    bad = lhs > rhs + JENSEN_TOL * (1.0 + np.abs(rhs))
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
    """Randomized check of the coercivity bound f(x, u, xi) >= alpha |xi|.

    Draws (cell, u, xi) for every trial as arrays, computes the bounds as
    one array expression and evaluates the density with one
    :func:`eval_density` call per trial; the one witness is the first
    violation in trial order.
    """
    rng = np.random.default_rng(seed)
    cells = rng.integers(f.grid.n_cells, size=trials)
    u = rng.normal(size=trials)
    xi = _PROBE_SCALE * rng.normal(size=(trials, f.grid.dimension))
    bound = f.alpha * _norm(xi)[0]
    val = np.empty(trials)
    for i in range(trials):
        val[i] = eval_density(f, cells[i], u[i], xi[i])
    bad = val < bound - 1e-12 * (1.0 + bound)
    rep = RelationReport(f"growth bound of {f.family}")
    rep.add_rows(
        "growth_lower_bound", ~bad, val - bound,
        note=lambda w: f"{bad.sum()}/{trials} violations (alpha={f.alpha})",
        witness=lambda w: {"cell": int(cells[w]), "cell_center": f.grid.cells[cells[w]].tolist(),
                           "u": float(u[w]), "xi": xi[w].tolist(), "value": float(val[w]),
                           "bound": float(bound[w])},
    )
    return rep
