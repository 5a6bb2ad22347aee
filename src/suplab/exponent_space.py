"""Discrete variable-exponent Lebesgue machinery.

A :class:`Grid` is a finite measure space (cell centers with positive
weights), so weighted power sums *are* the modulars of the corresponding
variable-exponent space and every norm/modular inequality holds exactly at
the discrete level, not merely approximately.

All power sums are accumulated in the log domain; the linear-scale modular
carries a ``+inf`` sentinel once its logarithm exceeds :data:`OVERFLOW_LOG`.
Norms are Luxemburg norms, all computed by :func:`luxemburg_root`: in closed
form, ``(sum_i w_i |u_i|^p)^(1/p)``, when the exponent is constant, and
otherwise by Newton's method in ``t = log lam`` on the convex, decreasing map
``t -> log modular(u / exp(t))``.  The root takes one row or a padded stack
of rows, so the relation checkers can check a chunk of instances at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import RelationReport, Table, eventually_decreasing

__all__ = [
    "OVERFLOW_LOG",
    "ROOT_RTOL",
    "StructuralError",
    "GridMismatchError",
    "PreconditionError",
    "Grid",
    "GridFunction",
    "ExponentField",
    "ExponentSequence",
    "log_modular",
    "modular",
    "luxemburg_root",
    "luxemburg_norm",
    "classical_norm",
    "verify_norm_modular_relations",
    "holder_check",
    "power_identity_check",
    "embedding_bound_check",
    "norm_limit_study",
    "sobolev_modular",
    "sobolev_norm",
]

# exp(OVERFLOW_LOG) is still representable; beyond it the linear-scale
# modular is reported as +inf (norms never leave the log domain).
OVERFLOW_LOG = 700.0

# Newton step in log lam (a relative change of lam) at which the Luxemburg
# root stops
ROOT_RTOL = 1e-12

# convergent roots take 3-9 Newton steps (quadratic near the root), so
# reaching this cap means the iteration is not converging
_ROOT_MAX_STEPS = 200


class StructuralError(ValueError):
    """Inputs that cannot be combined (wrong grid, wrong shape, bad exponents)."""


class GridMismatchError(StructuralError):
    pass


class PreconditionError(ValueError):
    """An operation was called outside its stated domain of validity."""


def _logsumexp(t):
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        return -np.inf
    m = np.max(t)
    if not np.isfinite(m):
        # all -inf (empty sum) or a genuine +inf term
        return float(m)
    return float(m + np.log(np.sum(np.exp(t - m))))


def _logsumexp_rows(t):
    """:func:`_logsumexp` of each row of a 2-D array, by the same float operations."""
    m = t.max(axis=-1)
    if not np.isfinite(m).all():
        return np.array([_logsumexp(row) for row in t])
    z = t - m[:, None]
    return m + np.log(np.exp(z, out=z).sum(axis=-1))


def _lock(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Cell centers with positive measures; the sum of weights is the domain measure."""

    dimension: int
    cells: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise StructuralError(f"grid dimension must be 1 or 2, got {self.dimension}")
        cells = np.atleast_2d(np.asarray(self.cells, dtype=float))
        if cells.shape[0] == 1 and cells.shape[1] > 1 and self.dimension == 1:
            cells = cells.T
        weights = np.asarray(self.weights, dtype=float).ravel()
        if cells.shape != (weights.size, self.dimension):
            raise StructuralError(
                f"cells shape {cells.shape} incompatible with {weights.size} weights in dimension {self.dimension}"
            )
        if weights.size < 1:
            raise StructuralError("grid needs at least one cell")
        if not np.all(weights > 0):
            raise StructuralError("all cell weights must be positive")
        object.__setattr__(self, "cells", _lock(cells))
        object.__setattr__(self, "weights", _lock(weights))

    @property
    def n_cells(self) -> int:
        return self.weights.size

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.weights))

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    @property
    def points(self) -> np.ndarray:
        """Cell centers as callables take them: the x column in 1-D, (x, y) rows in 2-D."""
        return self.cells[:, 0] if self.dimension == 1 else self.cells

    @staticmethod
    def uniform_1d(x0: float, x1: float, cells: int) -> "Grid":
        if not (x1 > x0 and cells >= 1):
            raise StructuralError("need x1 > x0 and at least one cell")
        h = (x1 - x0) / cells
        centers = x0 + (np.arange(cells) + 0.5) * h
        return Grid(1, centers[:, None], np.full(cells, h))

    @staticmethod
    def uniform_2d(x_range, y_range, cells_xy) -> "Grid":
        (x0, x1), (y0, y1) = x_range, y_range
        nx, ny = cells_xy
        if not (x1 > x0 and y1 > y0 and nx >= 1 and ny >= 1):
            raise StructuralError("degenerate 2-D grid")
        hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
        cx = x0 + (np.arange(nx) + 0.5) * hx
        cy = y0 + (np.arange(ny) + 0.5) * hy
        X, Y = np.meshgrid(cx, cy, indexing="ij")
        centers = np.column_stack([X.ravel(), Y.ravel()])
        return Grid(2, centers, np.full(nx * ny, hx * hy))


@dataclass(frozen=True)
class GridFunction:
    """Real- or vector-valued cell samples on a grid."""

    grid: Grid
    values: np.ndarray
    components: int = 1

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            comps = 1
        elif vals.ndim == 2:
            comps = vals.shape[1]
            if comps == 1:
                vals = vals[:, 0]
        else:
            raise StructuralError("grid function values must be 1- or 2-dimensional")
        if vals.shape[0] != self.grid.n_cells:
            raise StructuralError(
                f"{vals.shape[0]} values for {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(vals)):
            raise StructuralError("grid function values must be finite")
        object.__setattr__(self, "values", _lock(vals))
        object.__setattr__(self, "components", comps)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n_cells, float(value)))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.points), dtype=float))

    def magnitude(self) -> "GridFunction":
        """Cell-wise Euclidean magnitude, as a scalar grid function."""
        if self.components == 1:
            return GridFunction(self.grid, np.abs(self.values))
        return GridFunction(self.grid, np.linalg.norm(self.values, axis=1))

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)

    @property
    def is_scalar(self) -> bool:
        return self.components == 1


@dataclass(frozen=True)
class ExponentField:
    """A bounded variable exponent sampled on the cells of a grid.

    Values of exactly 1 are admitted (the Luxemburg norm then reduces to the
    weighted L1 norm), which the dual-exponent cases of the Hoelder bound
    need; generated exponent sequences stay strictly above 1.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.grid.n_cells:
            raise StructuralError(f"{vals.size} exponents for {self.grid.n_cells} cells")
        if not np.all(np.isfinite(vals)):
            raise StructuralError("exponents must be finite")
        if np.min(vals) < 1.0:
            raise StructuralError("exponents must satisfy p(x) >= 1")
        object.__setattr__(self, "values", _lock(vals))

    @property
    def p_minus(self) -> float:
        return float(np.min(self.values))

    @property
    def p_plus(self) -> float:
        return float(np.max(self.values))

    @classmethod
    def constant(cls, grid: Grid, q: float) -> "ExponentField":
        return cls(grid, np.full(grid.n_cells, float(q)))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "ExponentField":
        return cls(grid, np.asarray(fn(grid.points), dtype=float))

    def divided_by(self, s: float) -> "ExponentField":
        if s <= 0:
            raise PreconditionError("exponent divisor must be positive")
        return ExponentField(self.grid, self.values / s)

    def conjugate(self) -> "ExponentField":
        if self.p_minus <= 1.0:
            raise PreconditionError("conjugate exponent needs p(x) > 1 everywhere")
        return ExponentField(self.grid, self.values / (self.values - 1.0))


@dataclass(frozen=True)
class ExponentSequence:
    """Family n -> n * profile(x) of exponent fields on a fixed grid.

    ``beta`` is the declared uniform ratio bound: every generated field must
    satisfy p_plus <= beta * p_minus, and the minima must grow along any
    requested prefix.
    """

    grid: Grid
    profile: np.ndarray
    beta: float

    def __post_init__(self):
        prof = np.asarray(self.profile, dtype=float).ravel()
        if prof.size != self.grid.n_cells:
            raise StructuralError("profile must be sampled on the grid cells")
        if not np.all(prof > 0):
            raise StructuralError("exponent profile must be positive")
        if not self.beta > 1.0:
            raise PreconditionError(f"ratio bound beta must exceed 1 (pn2), got {self.beta}")
        if np.max(prof) > self.beta * np.min(prof) * (1 + 1e-12):
            raise PreconditionError(
                "profile violates the ratio bound (pn2): "
                f"max/min = {np.max(prof) / np.min(prof):.6g} > beta = {self.beta}"
            )
        object.__setattr__(self, "profile", _lock(prof))

    def field(self, n) -> ExponentField:
        vals = float(n) * self.profile
        if np.min(vals) <= 1.0:
            raise PreconditionError(f"n = {n} gives an exponent not exceeding 1")
        return ExponentField(self.grid, vals)

    def check_prefix(self, n_values) -> None:
        """Validate growth (pn1) and the ratio bound (pn2) on a finite prefix."""
        prev = None
        for n in n_values:
            f = self.field(n)
            if f.p_plus > self.beta * f.p_minus * (1 + 1e-12):
                raise PreconditionError(f"ratio bound (pn2) fails at n = {n}")
            if prev is not None and f.p_minus < prev - 1e-12:
                raise PreconditionError("exponent minima must be nondecreasing (pn1)")
            prev = f.p_minus


def _require_same_grid(*objs):
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid is not g0 and (
            o.grid.n_cells != g0.n_cells
            or o.grid.dimension != g0.dimension
            or not np.array_equal(o.grid.weights, g0.weights)
            or not np.array_equal(o.grid.cells, g0.cells)
        ):
            raise GridMismatchError("operands live on different grids")


def _require_scalar(u: GridFunction):
    if not u.is_scalar:
        raise StructuralError("operation requires a scalar-valued grid function")


def log_modular(u: GridFunction, p: ExponentField) -> float:
    """log of sum_i w_i |u_i|^{p_i}; -inf when u vanishes identically."""
    _require_scalar(u)
    _require_same_grid(u, p)
    mags = np.abs(u.values)
    mask = mags > 0
    if not np.any(mask):
        return -np.inf
    terms = u.grid.log_weights[mask] + p.values[mask] * np.log(mags[mask])
    return _logsumexp(terms)


def modular(u: GridFunction, p: ExponentField) -> float:
    """Weighted power sum of |u| with cell-wise exponents (+inf past the overflow cap)."""
    lr = log_modular(u, p)
    if lr == -np.inf:
        return 0.0
    if lr > OVERFLOW_LOG:
        return np.inf
    return float(np.exp(lr))


def luxemburg_root(base_logs, exponents):
    """Solve logsumexp(base_logs - exponents * log(lam)) = 0 for lam > 0, row by row.

    ``base_logs`` are the lam-free term logs (log w_i + p_i log|u_i| over the
    nonvanishing cells), one row (n,) or a stack of rows (B, n); a cell with
    ``base_logs = -inf`` is padding, and its exponent, any finite value, is
    ignored.  A row whose live exponents all equal p has the closed-form
    root exp(logsumexp(base_logs) / p); a row without live cells has root 0.
    Every other row runs Newton's method in t = log lam on
    F(t) = logsumexp(base_logs - exponents t), which is convex and
    decreasing with F'(t) = -sum_i softmax_i p_i.  With L = F(0) the root
    lies in [min(L/p+, L/p-), max(L/p+, L/p-)]; at the left end F >= 0, so
    the iterates climb to the root without overshooting.  A row stops, and
    is frozen, once its step is at most :data:`ROOT_RTOL`, so it takes the
    steps it would take alone; a row still moving after
    :data:`_ROOT_MAX_STEPS` steps raises ArithmeticError.  Returns a float
    for one row and an array of B roots for a stack.
    """
    base = np.asarray(base_logs, dtype=float)
    exps = np.asarray(exponents, dtype=float)
    if base.ndim == 1:
        return float(luxemburg_root(base[None], exps[None])[0])
    live = base > -np.inf
    # a row without live cells gets p_hi = -inf < p_lo = +inf, so it is
    # neither closed-form nor Newton and keeps root 0
    p_hi = exps.max(axis=-1, where=live, initial=-np.inf)
    p_lo = exps.min(axis=-1, where=live, initial=np.inf)
    lr = _logsumexp_rows(base)
    closed = p_hi == p_lo
    if closed.all():
        return np.exp(lr / p_hi)
    roots = np.zeros(base.shape[0])
    if closed.any():
        roots[closed] = np.exp(lr[closed] / p_hi[closed])
    idx = (p_hi > p_lo).nonzero()[0]
    if idx.size == 0:
        return roots
    if idx.size < base.shape[0]:
        base, exps, lr, p_hi, p_lo = base[idx], exps[idx], lr[idx], p_hi[idx], p_lo[idx]
    t = np.minimum(lr / p_hi, lr / p_lo)[:, None]
    for _ in range(_ROOT_MAX_STEPS):
        s = exps * t
        np.subtract(base, s, out=s)
        m = s.max(axis=-1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        step = (m + np.log(total)) * total / np.vecdot(s, exps, keepdims=True)
        t += step
        done = np.abs(step) <= ROOT_RTOL
        if done.any():
            done = done[:, 0]
            roots[idx[done]] = np.exp(t[done, 0])
            if done.all():
                return roots
            idx, base, exps, t = idx[~done], base[~done], exps[~done], t[~done]
    raise ArithmeticError(f"Luxemburg root: no convergence in {_ROOT_MAX_STEPS} Newton steps")


def luxemburg_norm(u: GridFunction, p: ExponentField) -> float:
    """inf of lam > 0 with modular(u / lam) <= 1; zero for the zero function."""
    _require_scalar(u)
    _require_same_grid(u, p)
    mags = np.abs(u.values)
    mask = mags > 0
    if not np.any(mask):
        return 0.0
    log_mags = np.log(mags[mask])
    base = u.grid.log_weights[mask] + p.values[mask] * log_mags
    return luxemburg_root(base, p.values[mask])


def classical_norm(u: GridFunction, q: float) -> float:
    """Weighted q-norm (sum_i w_i |u_i|^q)^(1/q), accumulated in the log domain."""
    _require_scalar(u)
    if q <= 0:
        raise PreconditionError("classical norm needs q > 0")
    vals, logw, live = _one_row(u)
    return float(_classical_rows(logw, _log_abs(vals, live), np.array([float(q)]))[0])


# Relation checks.  Each checker's core takes a chunk of B instances as
# padded (B, n) arrays: values, log-weights, exponents and a live mask; a
# padded cell holds value 0, log-weight -inf and exponent 1.  A
# core returns one RelationReport over the chunk (RelationReport.add_rows):
# per check the smallest slack, the witness instance's note and the count of
# failing instances.  The public checker is the one-instance chunk of the
# same core.

def _one_row(u: GridFunction, *fields):
    """Values, log-weights, the fields' values and an all-live mask of (u, fields) as one-row chunks."""
    return (u.values[None], u.grid.log_weights[None],
            *(f.values[None] for f in fields), np.ones((1, u.grid.n_cells), dtype=bool))


def _log_abs(vals, live):
    """log |v| at the live nonzero cells; -inf at zeros and padding."""
    mags = np.abs(vals)
    nonzero = live & (mags > 0)
    out = np.full(mags.shape, -np.inf)
    out[nonzero] = np.log(mags[nonzero])
    return out


def _live_max(x, live):
    return x.max(axis=-1, where=live, initial=-np.inf)


def _exponent_bounds(pv, live):
    """Row-wise p_minus and p_plus over the live cells."""
    return -_live_max(-pv, live), _live_max(pv, live)


def _norm_rows(logw, logmag, pv):
    """Luxemburg norm of each row; zero for a row that vanishes."""
    return luxemburg_root(logw + pv * logmag, pv)


def _classical_rows(logw, logmag, q):
    """(sum_i w_i |u_i|^q)^(1/q) of each row, for one q (B,) per row."""
    return np.exp(_logsumexp_rows(logw + q[:, None] * logmag) / q)


def _norm_modular_rows(vals, logw, pv, live, tol=1e-9) -> RelationReport:
    """Core of :func:`verify_norm_modular_relations` on a chunk of instances."""
    logmag = _log_abs(vals, live)
    pm, pp = _exponent_bounds(pv, live)
    logm = _logsumexp_rows(logw)
    base = logw + pv * logmag
    lam = luxemburg_root(base, pv)
    lr = _logsumexp_rows(base)
    rho = np.where(lr > OVERFLOW_LOG, np.inf, np.exp(np.minimum(lr, OVERFLOW_LOG)))

    # log-scale tolerance; power comparisons amplify the root's error in
    # log lam by up to p_plus
    tol_log = tol * (1.0 + pp)

    # the zero function (lam = 0) has its own outcomes, so its logs are
    # replaced by 0 before the comparisons
    zero = lam == 0.0
    loglam = np.log(np.where(zero, 1.0, lam))
    lr0 = np.where(zero, 0.0, lr)
    s_lam = np.sign(loglam) * (np.abs(loglam) > tol)
    s_rho = np.sign(lr0) * (np.abs(lr0) > tol_log)
    # a value pinned to the unit sphere within float noise cannot
    # contradict the other side's classification
    on_sphere = (s_lam == 0) | (s_rho == 0)
    gap = np.minimum(np.abs(loglam), np.abs(lr0))
    everywhere = np.ones(lam.shape, dtype=bool)
    inside, outside, strictly_inside = s_lam <= 0, s_lam > 0, s_lam < 0
    root_lo = np.minimum(lr0 / pm, lr0 / pp)
    root_hi = np.maximum(lr0 / pm, lr0 / pp)
    zero_inside = (rho <= tol, tol - rho)

    rep = RelationReport("norm/modular relations")

    def vacuous_unless(applies, ok, slack, zero_ok=True, zero_slack=1.0):
        """(passed, slack) of a check that holds vacuously off ``applies`` (a bool array)."""
        return (np.where(zero, zero_ok, ~applies | ok),
                np.where(zero, zero_slack, np.where(applies, slack, 1.0)))

    def vacuous_note(applies, text, zero_text="vacuous"):
        return lambda w: zero_text if zero[w] else ("" if applies[w] else text)

    def iff(name, cmp, note=None):
        consistent = on_sphere | (cmp(s_lam) == cmp(s_rho))
        rep.add_rows(name, *vacuous_unless(everywhere, consistent, np.where(consistent, gap, -gap)),
                     note=note)

    iff("unit_ball_closed_iff", lambda s: s <= 0,
        note=lambda w: "zero function" if zero[w]
        else f"log norm = {loglam[w]:.3e}, log modular = {lr[w]:.3e}")
    rep.add_rows("modular_dominated_inside",
                 *vacuous_unless(inside, rho <= lam + tol, lam - rho, *zero_inside),
                 note=vacuous_note(inside, "vacuous (norm > 1)", ""))
    rep.add_rows("modular_dominates_outside",
                 *vacuous_unless(outside, loglam <= lr0 + tol_log, lr0 - loglam),
                 note=vacuous_note(outside, "vacuous (norm <= 1)"))
    rep.add_rows("norm_between_modular_roots",
                 *vacuous_unless(everywhere, (root_lo - tol_log <= loglam) & (loglam <= root_hi + tol_log),
                                 np.minimum(loglam - root_lo, root_hi - loglam), rho == 0.0, 0.0),
                 note=lambda w: "" if zero[w]
                 else f"roots in logs: [{root_lo[w]:.3e}, {root_hi[w]:.3e}]")
    iff("unit_ball_open_iff", lambda s: s < 0)
    iff("unit_sphere_iff", lambda s: s == 0)
    iff("exterior_iff", lambda s: s > 0)
    rep.add_rows("power_bounds_outside",
                 *vacuous_unless(outside, (pm * loglam <= lr0 + tol_log) & (lr0 <= pp * loglam + tol_log),
                                 np.minimum(lr0 - pm * loglam, pp * loglam - lr0)),
                 note=vacuous_note(outside, "vacuous"))
    rep.add_rows("power_bounds_inside",
                 *vacuous_unless(strictly_inside,
                                 (pp * loglam <= lr0 + tol_log) & (lr0 <= pm * loglam + tol_log),
                                 np.minimum(lr0 - pp * loglam, pm * loglam - lr0), *zero_inside),
                 note=vacuous_note(strictly_inside, "vacuous", ""))

    log_norm_one = np.log(luxemburg_root(logw, pv))
    bound = np.maximum(logm / pm, logm / pp)
    rep.add_rows("constant_one_norm_bound", log_norm_one <= bound + tol, bound - log_norm_one)
    return rep


def verify_norm_modular_relations(u: GridFunction, p: ExponentField, tol=1e-9) -> RelationReport:
    """Check every norm/modular relation of the bounded-exponent space on (u, p).

    Covers the unit-ball equivalences, the one-sided dominations inside and
    outside the unit ball, the min/max sandwich between the modular roots,
    the p_minus/p_plus power bounds, and the bound on the norm of the
    constant-one function.  Failures are recorded, never raised: the report
    is consumed by randomized property runs, which check their instances a
    chunk at a time through the same core.
    """
    _require_scalar(u)
    _require_same_grid(u, p)
    vals, logw, pv, live = _one_row(u, p)
    return _norm_modular_rows(vals, logw, pv, live, tol)


def _holder_rows(fv, gv, logw, pv, qv, sv, live, tol=1e-9) -> RelationReport:
    """Core of :func:`holder_check` on a chunk of instances."""
    defect = _live_max(np.abs(1.0 / sv - 1.0 / pv - 1.0 / qv), live).max()
    if defect > 1e-10:
        raise StructuralError(f"exponents are not Hoelder-compatible (defect {defect:.3e})")

    prod = fv * gv
    lhs = _norm_rows(logw, _log_abs(prod, live), sv)
    norm_f = _norm_rows(logw, _log_abs(fv, live), pv)
    norm_g = _norm_rows(logw, _log_abs(gv, live), qv)
    const = _live_max(sv / pv, live) + _live_max(sv / qv, live)
    rhs = const * norm_f * norm_g
    rep = RelationReport("Hoelder inequality")
    rep.add_rows("product_norm_bound", lhs <= rhs + tol * np.maximum(1.0, rhs), rhs - lhs,
                 note=lambda w: f"constant = {const[w]:.6g}")

    # s identically 1: the classical pairing bound with constant
    # 1/p_minus + 1/p'_minus, where 1/p'_minus = 1 - 1/p_plus
    unit_s = _live_max(np.abs(sv - 1.0), live) <= 1e-12
    if unit_s.any():
        integral = (np.exp(logw) * np.abs(prod)).sum(axis=-1)
        pm, pp = _exponent_bounds(pv, live)
        const2 = 1.0 / pm + (1.0 - 1.0 / pp)
        rhs2 = const2 * norm_f * norm_g
        rep.add_rows("dual_pairing_bound",
                     ~unit_s | (integral <= rhs2 + tol * np.maximum(1.0, rhs2)),
                     np.where(unit_s, rhs2 - integral, np.inf),
                     note=lambda w: f"constant = {const2[w]:.6g}")
    return rep


def holder_check(f: GridFunction, g: GridFunction, p: ExponentField, q: ExponentField,
                 s: ExponentField, tol=1e-9) -> RelationReport:
    """Hoelder bound ||fg||_s <= ((s/p)+ + (s/q)+) ||f||_p ||g||_q.

    Requires 1/s = 1/p + 1/q cell-wise.  When s is identically 1 the
    classical pairing bound with constant 1/p_minus + 1/p'_minus is checked
    as well.
    """
    _require_scalar(f)
    _require_scalar(g)
    _require_same_grid(f, g, p, q, s)
    fv, logw, gv, pv, qv, sv, live = _one_row(f, g, p, q, s)
    return _holder_rows(fv, gv, logw, pv, qv, sv, live, tol)


def _power_identity_rows(vals, logw, pv, live, s, rtol=1e-8) -> RelationReport:
    """Core of :func:`power_identity_check` on a chunk, one power s (B,) per instance."""
    pm, _ = _exponent_bounds(pv, live)
    bad = ~((1.0 < s) & (s < pm))
    if bad.any():
        w = int(np.argmax(bad))
        raise PreconditionError(f"power must lie in (1, p_minus) = (1, {pm[w]}), got {s[w]}")
    logmag = _log_abs(vals, live)
    rhs = _norm_rows(logw, logmag, pv)
    ps = pv / s[:, None]
    lhs = _norm_rows(logw, s[:, None] * logmag, ps) ** (1.0 / s)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    rep = RelationReport("power rescaling identity")
    rep.add_rows("power_rescaling_identity", rel <= rtol, rtol - rel,
                 note=lambda w: f"lhs = {lhs[w]:.12g}, rhs = {rhs[w]:.12g}")
    return rep


def power_identity_check(u: GridFunction, p: ExponentField, s: float, rtol=1e-8) -> RelationReport:
    """Check ||  |u|^s ||_{p/s}^{1/s} = ||u||_p for 1 < s < p_minus."""
    _require_scalar(u)
    _require_same_grid(u, p)
    vals, logw, pv, live = _one_row(u, p)
    return _power_identity_rows(vals, logw, pv, live, np.array([float(s)]), rtol)


def _embedding_rows(vals, logw, pv, live, q, beta, tol=1e-9) -> RelationReport:
    """Core of :func:`embedding_bound_check` on a chunk, one q and beta (B,) per instance."""
    pm, pp = _exponent_bounds(pv, live)
    bad = ~((1.0 <= q) & (q <= pm * (1 + 1e-12)))
    if bad.any():
        w = int(np.argmax(bad))
        raise PreconditionError(f"q must lie in [1, p_minus] = [1, {pm[w]}], got {q[w]}")
    bad = beta * pm < pp * (1 - 1e-12)
    if bad.any():
        w = int(np.argmax(bad))
        raise PreconditionError(f"declared beta = {beta[w]} does not dominate p_plus / p_minus")

    m = np.exp(_logsumexp_rows(logw))
    logmag = _log_abs(vals, live)
    lhs = _classical_rows(logw, logmag, q)
    measure_factor = np.maximum(m ** (1.0 / q - 1.0 / pm), m ** (beta * (1.0 / q - 1.0 / pp)))
    ratio_factor = (1.0 + q * (beta - 1.0) / pp) ** (1.0 / q)
    rhs = measure_factor * ratio_factor * _norm_rows(logw, logmag, pv)
    rep = RelationReport("embedding bound")
    rep.add_rows("classical_norm_dominated", lhs <= rhs + tol * np.maximum(1.0, rhs), rhs - lhs,
                 note=lambda w: f"q = {q[w]}, beta = {beta[w]}")
    return rep


def embedding_bound_check(u: GridFunction, p: ExponentField, q: float,
                          beta=None, tol=1e-9) -> RelationReport:
    """Classical-q-norm control by the variable-exponent norm on finite measure.

    ||u||_q <= max(m^(1/q - 1/p-), m^(beta (1/q - 1/p+))) (1 + q (beta - 1)/p+)^(1/q) ||u||_p
    for 1 <= q <= p_minus, where m is the total measure and beta is any
    declared ratio bound with p_plus <= beta p_minus.
    """
    _require_scalar(u)
    _require_same_grid(u, p)
    if beta is None:
        beta = p.p_plus / p.p_minus
    vals, logw, pv, live = _one_row(u, p)
    return _embedding_rows(vals, logw, pv, live, np.array([float(q)]), np.array([float(beta)]), tol)


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
    for n in n_values:
        p = seq.field(n)
        lam = luxemburg_norm(u, p)
        rows.append((int(n), lam, abs(lam - sup)))
    errs = [r[2] for r in rows]
    return Table(
        columns=("n", "norm", "sup_error"),
        rows=rows,
        verdicts={"error_eventually_decreasing": eventually_decreasing(errs)},
        meta={"sup": sup, "final_error": errs[-1] if errs else 0.0},
    )


def sobolev_modular(u: GridFunction, Du: GridFunction, p: ExponentField) -> float:
    """First-order semimodular: modular of |u| plus modular of |Du|."""
    _require_same_grid(u, Du, p)
    return modular(u.magnitude(), p) + modular(Du.magnitude(), p)


def sobolev_norm(u: GridFunction, Du: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of the pair (u, Du) under the first-order semimodular."""
    _require_same_grid(u, Du, p)
    mags = np.concatenate([u.magnitude().values, Du.magnitude().values])
    pvals = np.concatenate([p.values, p.values])
    logw = np.concatenate([u.grid.log_weights, u.grid.log_weights])
    mask = mags > 0
    if not np.any(mask):
        return 0.0
    base = logw[mask] + pvals[mask] * np.log(mags[mask])
    return luxemburg_root(base, pvals[mask])
