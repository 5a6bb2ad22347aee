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
``t -> log modular(u / exp(t))``.
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
    return m + np.log(np.exp(t - m[:, None]).sum(axis=-1))


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
    """Solve logsumexp(base_logs - exponents * log(lam)) = 0 for lam > 0.

    ``base_logs`` are the lam-free term logs (log w_i + p_i log|u_i| over the
    nonvanishing cells).  When all exponents equal p the root is the closed
    form exp(logsumexp(base_logs) / p).  Otherwise Newton's method runs in
    t = log lam on F(t) = logsumexp(base_logs - exponents t), which is convex
    and decreasing with F'(t) = -sum_i softmax_i p_i.  With L = F(0) the root
    lies in [min(L/p+, L/p-), max(L/p+, L/p-)]; at the left end F >= 0, so
    the iterates climb to the root without overshooting.  Iteration stops
    once a step is at most :data:`ROOT_RTOL`; failing that, ArithmeticError
    is raised.
    """
    base_logs = np.asarray(base_logs, dtype=float)
    exponents = np.asarray(exponents, dtype=float)
    lr = _logsumexp(base_logs)
    if (exponents == exponents[0]).all():
        return float(np.exp(lr / exponents[0]))
    t = min(lr / exponents.max(), lr / exponents.min())
    for _ in range(_ROOT_MAX_STEPS):
        e = base_logs - exponents * t
        m = e.max()
        s = np.exp(e - m)
        total = s.sum()
        step = (m + np.log(total)) * total / (s @ exponents)
        t += step
        if abs(step) <= ROOT_RTOL:
            return float(np.exp(t))
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
    mags = np.abs(u.values)
    mask = mags > 0
    if not np.any(mask):
        return 0.0
    lr = _logsumexp(u.grid.log_weights[mask] + q * np.log(mags[mask]))
    return float(np.exp(lr / q))


def _sign_with_tol(x, tol):
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


def verify_norm_modular_relations(u: GridFunction, p: ExponentField, tol=1e-9) -> RelationReport:
    """Check every norm/modular relation of the bounded-exponent space on (u, p).

    Covers the unit-ball equivalences, the one-sided dominations inside and
    outside the unit ball, the min/max sandwich between the modular roots,
    the p_minus/p_plus power bounds, and the bound on the norm of the
    constant-one function.  Failures are recorded, never raised: the report
    is consumed by randomized property runs.
    """
    _require_scalar(u)
    _require_same_grid(u, p)
    rep = RelationReport("norm/modular relations")
    pm, pp = p.p_minus, p.p_plus
    m = u.grid.total_measure
    logm = np.log(m)

    lam = luxemburg_norm(u, p)
    lr = log_modular(u, p)
    rho = 0.0 if lr == -np.inf else (np.inf if lr > OVERFLOW_LOG else float(np.exp(lr)))

    # log-scale tolerance; power comparisons amplify the root's error in
    # log lam by up to p_plus
    tol_log = tol * (1.0 + pp)

    if lam == 0.0:
        rep.add("unit_ball_closed_iff", True, 1.0, note="zero function")
        rep.add("modular_dominated_inside", rho <= tol, tol - rho)
        rep.add("modular_dominates_outside", True, 1.0, note="vacuous")
        rep.add("norm_between_modular_roots", rho == 0.0, 0.0)
        rep.add("unit_ball_open_iff", True, 1.0)
        rep.add("unit_sphere_iff", True, 1.0)
        rep.add("exterior_iff", True, 1.0)
        rep.add("power_bounds_outside", True, 1.0, note="vacuous")
        rep.add("power_bounds_inside", rho <= tol, tol - rho)
    else:
        loglam = float(np.log(lam))
        s_lam = _sign_with_tol(loglam, tol)
        s_rho = _sign_with_tol(lr, tol_log)
        # a value pinned to the unit sphere within float noise cannot
        # contradict the other side's classification
        on_sphere = s_lam == 0 or s_rho == 0

        consistent = on_sphere or (s_lam <= 0) == (s_rho <= 0)
        rep.add(
            "unit_ball_closed_iff",
            consistent,
            min(abs(loglam), abs(lr)) if consistent else -min(abs(loglam), abs(lr)),
            note=f"log norm = {loglam:.3e}, log modular = {lr:.3e}",
        )

        if s_lam <= 0:
            slack = lam - rho
            rep.add("modular_dominated_inside", rho <= lam + tol, slack)
        else:
            rep.add("modular_dominated_inside", True, 1.0, note="vacuous (norm > 1)")

        if s_lam > 0:
            rep.add("modular_dominates_outside", loglam <= lr + tol_log, lr - loglam)
        else:
            rep.add("modular_dominates_outside", True, 1.0, note="vacuous (norm <= 1)")

        root_lo = min(lr / pm, lr / pp)
        root_hi = max(lr / pm, lr / pp)
        ok = (root_lo - tol_log <= loglam) and (loglam <= root_hi + tol_log)
        rep.add(
            "norm_between_modular_roots",
            ok,
            min(loglam - root_lo, root_hi - loglam),
            note=f"roots in logs: [{root_lo:.3e}, {root_hi:.3e}]",
        )

        for name, cmp in (
            ("unit_ball_open_iff", lambda s: s < 0),
            ("unit_sphere_iff", lambda s: s == 0),
            ("exterior_iff", lambda s: s > 0),
        ):
            consistent = on_sphere or cmp(s_lam) == cmp(s_rho)
            rep.add(
                name,
                consistent,
                min(abs(loglam), abs(lr)) if consistent else -min(abs(loglam), abs(lr)),
            )

        if s_lam > 0:
            ok = (pm * loglam <= lr + tol_log) and (lr <= pp * loglam + tol_log)
            rep.add("power_bounds_outside", ok, min(lr - pm * loglam, pp * loglam - lr))
        else:
            rep.add("power_bounds_outside", True, 1.0, note="vacuous")
        if s_lam < 0:
            ok = (pp * loglam <= lr + tol_log) and (lr <= pm * loglam + tol_log)
            rep.add("power_bounds_inside", ok, min(lr - pp * loglam, pm * loglam - lr))
        else:
            rep.add("power_bounds_inside", True, 1.0, note="vacuous")

    one = GridFunction.constant(u.grid, 1.0)
    log_norm_one = np.log(luxemburg_norm(one, p))
    bound = max(logm / pm, logm / pp)
    rep.add("constant_one_norm_bound", log_norm_one <= bound + tol, bound - log_norm_one)
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
    defect = np.max(np.abs(1.0 / s.values - 1.0 / p.values - 1.0 / q.values))
    if defect > 1e-10:
        raise StructuralError(f"exponents are not Hoelder-compatible (defect {defect:.3e})")

    rep = RelationReport("Hoelder inequality")
    prod = GridFunction(f.grid, f.values * g.values)
    lhs = luxemburg_norm(prod, s)
    norm_f = luxemburg_norm(f, p)
    norm_g = luxemburg_norm(g, q)
    const = float(np.max(s.values / p.values) + np.max(s.values / q.values))
    rhs = const * norm_f * norm_g
    rep.add(
        "product_norm_bound",
        lhs <= rhs + tol * max(1.0, rhs),
        rhs - lhs,
        note=f"constant = {const:.6g}",
    )

    if np.max(np.abs(s.values - 1.0)) <= 1e-12:
        integral = float(np.sum(f.grid.weights * np.abs(prod.values)))
        dual_min = p.p_plus / (p.p_plus - 1.0) if p.p_plus > 1.0 else np.inf
        const2 = 1.0 / p.p_minus + 1.0 / dual_min
        rhs2 = const2 * norm_f * norm_g
        rep.add(
            "dual_pairing_bound",
            integral <= rhs2 + tol * max(1.0, rhs2),
            rhs2 - integral,
            note=f"constant = {const2:.6g}",
        )
    return rep


def power_identity_check(u: GridFunction, p: ExponentField, s: float, rtol=1e-8) -> RelationReport:
    """Check ||  |u|^s ||_{p/s}^{1/s} = ||u||_p for 1 < s < p_minus."""
    if not (1.0 < s < p.p_minus):
        raise PreconditionError(f"power must lie in (1, p_minus) = (1, {p.p_minus}), got {s}")
    _require_scalar(u)
    _require_same_grid(u, p)
    rhs = luxemburg_norm(u, p)
    powered = GridFunction(u.grid, np.abs(u.values) ** s)
    lhs = luxemburg_norm(powered, p.divided_by(s)) ** (1.0 / s)
    denom = max(abs(rhs), 1e-300)
    rel = abs(lhs - rhs) / denom
    rep = RelationReport("power rescaling identity")
    rep.add(
        "power_rescaling_identity",
        rel <= rtol,
        rtol - rel,
        note=f"lhs = {lhs:.12g}, rhs = {rhs:.12g}",
    )
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
    pm, pp = p.p_minus, p.p_plus
    if not (1.0 <= q <= pm * (1 + 1e-12)):
        raise PreconditionError(f"q must lie in [1, p_minus] = [1, {pm}], got {q}")
    if beta is None:
        beta = pp / pm
    if beta * pm < pp * (1 - 1e-12):
        raise PreconditionError(f"declared beta = {beta} does not dominate p_plus / p_minus")

    m = u.grid.total_measure
    lhs = classical_norm(u, q)
    measure_factor = max(m ** (1.0 / q - 1.0 / pm), m ** (beta * (1.0 / q - 1.0 / pp)))
    ratio_factor = (1.0 + q * (beta - 1.0) / pp) ** (1.0 / q)
    rhs = measure_factor * ratio_factor * luxemburg_norm(u, p)
    rep = RelationReport("embedding bound")
    rep.add(
        "classical_norm_dominated",
        lhs <= rhs + tol * max(1.0, rhs),
        rhs - lhs,
        note=f"q = {q}, beta = {beta}",
    )
    return rep


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
