"""Discrete variable-exponent Lebesgue machinery.

A :class:`Grid` is a finite measure space (cell centers with positive
weights), so weighted power sums *are* the modulars of the corresponding
variable-exponent space and every norm/modular inequality holds exactly at
the discrete level, not merely approximately.  A 1-D grid can stand alone
(:meth:`Grid.uniform_1d`); every 2-D grid is a mesh's ``mesh.grid()``
(:mod:`suplab.discretize`), with one cell per P1 triangle.

Two rules, written once here, admit caller input for the whole package:
every grid-bound array goes through :func:`_cell_array` (a finite, read-only
float copy whose leading axes are exactly the cell count or a mesh's node
shape; nothing is flattened), every integer through :func:`_index` (any
integer type, but no bool).  Each type adds only its own condition.

All power sums are accumulated in the log domain by one logsumexp over the
last axis, with any leading axes as rows.  A cell where the function
vanishes, and a padded cell of a stacked row, is a term log of -inf
(``log 0 = -inf``), so it adds nothing and needs no mask; an empty sum is
-inf.  The linear-scale modular carries a ``+inf`` sentinel once its
logarithm exceeds :data:`OVERFLOW_LOG`.
Norms are Luxemburg norms, all computed by :func:`luxemburg_root`: in closed
form, ``(sum_i w_i |u_i|^p)^(1/p)``, when the exponent is constant, and
otherwise by Newton's method in ``t = log lam`` on the convex, decreasing map
``t -> log modular(u / exp(t))``.  The root takes one row or a padded stack
of rows, so the relation checkers can check a chunk of instances at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .reports import RelationReport

__all__ = [
    "OVERFLOW_LOG",
    "ROOT_RTOL",
    "RELATION_TOL",
    "POWER_IDENTITY_RTOL",
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
    "verify_norm_modular_relations",
    "holder_check",
    "power_identity_check",
    "embedding_constant",
    "embedding_bound_check",
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

# slack of the norm/modular relations (absolute on norms and modulars) and of
# the Hoelder and embedding bounds (relative), and the power rescaling
# identity's largest relative gap between its two sides
RELATION_TOL = 1e-9
POWER_IDENTITY_RTOL = 1e-8


class StructuralError(ValueError):
    """Inputs that cannot be combined (wrong grid, wrong shape, bad exponents)."""


class GridMismatchError(StructuralError):
    pass


class PreconditionError(ValueError):
    """An operation was called outside its stated domain of validity."""


def _logsumexp(t):
    """log sum_j exp(t[..., j]) over the last axis; leading axes are rows.

    An empty or all -inf row gives -inf (the empty sum), and a row with a
    +inf term gives +inf.  Returns a float for one row.
    """
    t = np.asarray(t, dtype=float)
    m = t.max(axis=-1, keepdims=True, initial=-np.inf)
    finite = np.isfinite(m)
    if not finite.all():
        # shifted by 0, such a row sums to 0 or +inf, whose log is its max
        with np.errstate(divide="ignore", over="ignore"):
            return _shifted_logsumexp(t, np.where(finite, m, 0.0))
    return _shifted_logsumexp(t, m)


def _shifted_logsumexp(t, m):
    """m + log sum_j exp(t[..., j] - m) per row, for shifts m of shape (..., 1)."""
    z = t - m
    out = m[..., 0] + np.log(np.exp(z, out=z).sum(axis=-1))
    return out if out.ndim else float(out)


def _log0(x):
    """np.log with log 0 = -inf: a vanishing or padded cell is a -inf term log."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _linear(lr):
    """exp(lr), or the +inf sentinel once lr passes :data:`OVERFLOW_LOG`."""
    out = np.where(lr > OVERFLOW_LOG, np.inf, np.exp(np.minimum(lr, OVERFLOW_LOG)))
    return out if out.ndim else float(out)


def _cell_array(values, lead, noun, ndims=None):
    """``values`` as a finite, read-only float copy with leading axes ``lead`` (a tuple).

    ``ndims`` is the admissible number of axes, an int or a tuple (by
    default ``len(lead)``); anything else raises StructuralError naming
    ``noun`` and the shape.
    """
    arr = np.array(values, dtype=float)
    ndims = (len(lead),) if ndims is None else np.atleast_1d(ndims).tolist()
    if arr.ndim not in ndims or arr.shape[:len(lead)] != lead:
        want = " or ".join(str(lead + ("*",) * (d - len(lead))).replace("'", "")
                           for d in ndims)
        raise StructuralError(f"{noun} of shape {arr.shape}: need {want}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise StructuralError(f"{noun} must be finite, got {arr[tuple(bad[0])]} at "
                              f"{tuple(bad[0].tolist())} of shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _components(arr, noun):
    """``arr`` if its last axis, the gradient components, is not empty: the one component rule."""
    if arr.shape[-1] == 0:
        raise StructuralError(f"{noun} of shape {arr.shape}: need at least one component")
    return arr


def _index(x, noun):
    """x as a Python int: the one integer rule, which takes any integer type but no bool."""
    try:
        if not isinstance(x, bool):  # operator.index refuses NumPy's bool itself
            return operator.index(x)
    except TypeError:
        pass
    raise StructuralError(f"{noun} must be an integer, got {x!r}")


def _schedule(values, symbol, noun=None):
    """``values`` as a tuple of ints: the one rule for a sweep over ``symbol``.

    At least one entry, each an integer (``noun`` in the message, by default
    ``symbol``) with a float value, strictly increasing from at least 1.
    """
    noun = noun or symbol
    sched = tuple(_index(v, noun) for v in values)
    if len(sched) == 0 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise StructuralError(f"the {symbol} schedule must be strictly increasing")
    if sched[0] < 1:
        raise StructuralError(f"the {symbol} schedule must start at 1 or above, got {sched[0]}")
    try:
        float(sched[-1])
    except OverflowError:
        raise StructuralError(f"{noun} has no float value: an integer of "
                              f"{sched[-1].bit_length()} bits") from None
    return sched


@dataclass(frozen=True)
class Grid:
    """Cell centers with positive measures; the sum of weights is the domain measure."""

    dimension: int
    cells: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise StructuralError(f"grid dimension must be 1 or 2, got {self.dimension}")
        weights = _cell_array(self.weights, (), "cell weights", 1)
        cells = _cell_array(self.cells, (weights.size, self.dimension), "cell centers")
        if weights.size < 1:
            raise StructuralError("grid needs at least one cell")
        if not np.all(weights > 0):
            raise StructuralError("all cell weights must be positive")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "weights", weights)

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


@dataclass(frozen=True)
class GridFunction:
    """Cell samples: values (cells,) of a scalar function, or (cells, k) of k components."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _cell_array(self.values, (self.grid.n_cells,), "grid function values", (1, 2))
        if vals.ndim == 2:
            _components(vals, "grid function values")
        # one component is stored as a scalar function
        object.__setattr__(self, "values", vals[:, 0] if vals.shape[1:] == (1,) else vals)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n_cells, float(value)))

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)

    @property
    def components(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

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
        vals = _cell_array(self.values, (self.grid.n_cells,), "exponents")
        if np.min(vals) < 1.0:
            raise StructuralError("exponents must satisfy p(x) >= 1")
        object.__setattr__(self, "values", vals)

    @property
    def p_minus(self) -> float:
        return float(np.min(self.values))

    @property
    def p_plus(self) -> float:
        return float(np.max(self.values))

    @classmethod
    def constant(cls, grid: Grid, q: float) -> "ExponentField":
        return cls(grid, np.full(grid.n_cells, float(q)))


@dataclass(frozen=True)
class ExponentSequence:
    """Family n -> n * profile(x) of exponent fields on a fixed grid.

    Growth (pn1) and the ratio bound (pn2) hold by construction: the minima
    n * min(profile) grow with n, and every field has p_plus / p_minus =
    max(profile) / min(profile), the sequence's :attr:`beta`.
    """

    grid: Grid
    profile: np.ndarray

    def __post_init__(self):
        prof = _cell_array(self.profile, (self.grid.n_cells,), "exponent profile")
        if not np.all(prof > 0):
            raise StructuralError("exponent profile must be positive")
        object.__setattr__(self, "profile", prof)

    @property
    def beta(self) -> float:
        """The tightest uniform ratio bound p_plus <= beta p_minus (pn2)."""
        return float(np.max(self.profile) / np.min(self.profile))

    def field(self, n) -> ExponentField:
        vals = _index(n, "n") * self.profile
        if np.min(vals) <= 1.0:
            raise PreconditionError(f"n = {n} gives an exponent not exceeding 1")
        return ExponentField(self.grid, vals)


def _require_same_grid(*objs):
    """Refuse operands off the first one's grid, naming both by type; a Grid is its own."""
    g0, *grids = (o if isinstance(o, Grid) else o.grid for o in objs)
    for o, g in zip(objs[1:], grids):
        if g is not g0 and not (np.array_equal(g.cells, g0.cells)
                                and np.array_equal(g.weights, g0.weights)):
            raise GridMismatchError(f"operands live on different grids: {type(o).__name__} "
                                    f"against {type(objs[0]).__name__}")


def _require_scalar(u: GridFunction):
    if not u.is_scalar:
        raise StructuralError("operation requires a scalar-valued grid function")


def log_modular(u: GridFunction, p: ExponentField) -> float:
    """log of sum_i w_i |u_i|^{p_i}; -inf when u vanishes identically."""
    _require_scalar(u)
    _require_same_grid(u, p)
    return _logsumexp(u.grid.log_weights + p.values * _log0(np.abs(u.values)))


def modular(u: GridFunction, p: ExponentField) -> float:
    """Weighted power sum of |u| with cell-wise exponents (+inf past the overflow cap)."""
    return _linear(log_modular(u, p))


def luxemburg_root(base_logs, exponents):
    """Solve logsumexp(base_logs - exponents * log(lam)) = 0 for lam > 0, row by row.

    ``base_logs`` are the lam-free term logs log w_i + p_i log|u_i|, one row
    (n,) or a stack of rows (B, n); a cell with ``base_logs = -inf``, where
    u vanishes or a row is padded, adds nothing, and its exponent, any
    finite value, is ignored.  A row whose live exponents all equal p has
    the closed-form root exp(logsumexp(base_logs) / p); a row without live
    cells has root 0.
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
        return float(_stack_roots(base[None], exps[None])[0])
    return _stack_roots(base, exps)


def _stack_roots(base, exps):
    """The roots of :func:`luxemburg_root` for a stack of rows (B, n)."""
    # a row without live cells gets p_hi = -inf < p_lo = +inf, so it is
    # neither closed-form nor Newton and keeps root 0
    p_lo, p_hi = _exponent_bounds(exps, base > -np.inf)
    lr = _logsumexp(base)
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
    return luxemburg_root(u.grid.log_weights + p.values * _log0(np.abs(u.values)), p.values)


# Relation checks.  Each checker's core takes a chunk of B instances as
# padded (B, n) arrays of values, log-weights and exponents; a padded cell
# holds value 0, log-weight -inf and exponent 1, so the live cells of a row
# are those of finite log-weight, and a padded or vanishing cell is a -inf
# term log of every power sum.  A core returns one RelationReport over the
# chunk (RelationReport.add_rows): per check the smallest slack, the witness
# instance's note and the count of failing instances.  The public checker is
# the one-instance chunk of the same core.

def _one_row(u: GridFunction, *fields):
    """Values, log-weights and field values of scalar (u, fields) on u's grid, as one-row chunks."""
    for o in (u, *fields):
        if isinstance(o, GridFunction):
            _require_scalar(o)
    _require_same_grid(u, *fields)
    return (u.values[None], u.grid.log_weights[None], *(f.values[None] for f in fields))


def _live_max(x, live):
    return x.max(axis=-1, where=live, initial=-np.inf)


def _exponent_bounds(pv, live):
    """Row-wise p_minus and p_plus over the live cells."""
    return -_live_max(-pv, live), _live_max(pv, live)


def _norm_rows(logw, logmag, pv):
    """Luxemburg norm of each row; zero for a row that vanishes."""
    return luxemburg_root(logw + pv * logmag, pv)


def _norm_modular_rows(vals, logw, pv) -> RelationReport:
    """Core of :func:`verify_norm_modular_relations` on a chunk of instances."""
    pm, pp = _exponent_bounds(pv, logw > -np.inf)
    logm = _logsumexp(logw)
    base = logw + pv * _log0(np.abs(vals))
    lam = luxemburg_root(base, pv)
    lr = _logsumexp(base)
    rho = _linear(lr)

    # log-scale tolerance; power comparisons amplify the root's error in
    # log lam by up to p_plus
    tol_log = RELATION_TOL * (1.0 + pp)

    # the zero function (lam = 0) has its own outcomes, so its logs are
    # replaced by 0 before the comparisons
    zero = lam == 0.0
    loglam = np.log(np.where(zero, 1.0, lam))
    lr0 = np.where(zero, 0.0, lr)
    s_lam = np.sign(loglam) * (np.abs(loglam) > RELATION_TOL)
    s_rho = np.sign(lr0) * (np.abs(lr0) > tol_log)
    # a value pinned to the unit sphere within float noise cannot
    # contradict the other side's classification
    on_sphere = (s_lam == 0) | (s_rho == 0)
    gap = np.minimum(np.abs(loglam), np.abs(lr0))
    everywhere = np.ones(lam.shape, dtype=bool)
    inside, outside, strictly_inside = s_lam <= 0, s_lam > 0, s_lam < 0
    root_lo = np.minimum(lr0 / pm, lr0 / pp)
    root_hi = np.maximum(lr0 / pm, lr0 / pp)
    zero_inside = (rho <= RELATION_TOL, RELATION_TOL - rho)

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
                 *vacuous_unless(inside, rho <= lam + RELATION_TOL, lam - rho, *zero_inside),
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
    rep.add_rows("constant_one_norm_bound", log_norm_one <= bound + RELATION_TOL,
                 bound - log_norm_one)
    return rep


def verify_norm_modular_relations(u: GridFunction, p: ExponentField) -> RelationReport:
    """Check every norm/modular relation of the bounded-exponent space on (u, p).

    Covers the unit-ball equivalences, the one-sided dominations inside and
    outside the unit ball, the min/max sandwich between the modular roots,
    the p_minus/p_plus power bounds, and the bound on the norm of the
    constant-one function.  Failures are recorded, never raised: the report
    is consumed by randomized property runs, which check their instances a
    chunk at a time through the same core.
    """
    vals, logw, pv = _one_row(u, p)
    return _norm_modular_rows(vals, logw, pv)


def _holder_rows(fv, gv, logw, pv, qv, sv) -> RelationReport:
    """Core of :func:`holder_check` on a chunk of instances."""
    live = logw > -np.inf
    defect = _live_max(np.abs(1.0 / sv - 1.0 / pv - 1.0 / qv), live).max()
    if defect > 1e-10:
        raise StructuralError(f"exponents are not Hoelder-compatible (defect {defect:.3e})")

    prod = fv * gv
    lhs = _norm_rows(logw, _log0(np.abs(prod)), sv)
    norm_f = _norm_rows(logw, _log0(np.abs(fv)), pv)
    norm_g = _norm_rows(logw, _log0(np.abs(gv)), qv)
    const = _live_max(sv / pv, live) + _live_max(sv / qv, live)
    rhs = const * norm_f * norm_g
    rep = RelationReport("Hoelder inequality")
    rep.add_rows("product_norm_bound", lhs <= rhs * (1.0 + RELATION_TOL), rhs - lhs,
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
                     ~unit_s | (integral <= rhs2 * (1.0 + RELATION_TOL)),
                     np.where(unit_s, rhs2 - integral, np.inf),
                     note=lambda w: f"constant = {const2[w]:.6g}")
    return rep


def holder_check(f: GridFunction, g: GridFunction, p: ExponentField, q: ExponentField,
                 s: ExponentField) -> RelationReport:
    """Hoelder bound ||fg||_s <= ((s/p)+ + (s/q)+) ||f||_p ||g||_q.

    Requires 1/s = 1/p + 1/q cell-wise.  When s is identically 1 the
    classical pairing bound with constant 1/p_minus + 1/p'_minus is checked
    as well.
    """
    fv, logw, gv, pv, qv, sv = _one_row(f, g, p, q, s)
    return _holder_rows(fv, gv, logw, pv, qv, sv)


def _power_identity_rows(vals, logw, pv, s) -> RelationReport:
    """Core of :func:`power_identity_check` on a chunk, one power s (B,) per instance."""
    pm, _ = _exponent_bounds(pv, logw > -np.inf)
    bad = ~((1.0 < s) & (s < pm))
    if bad.any():
        w = int(np.argmax(bad))
        raise PreconditionError(f"power must lie in (1, p_minus) = (1, {pm[w]}), got {s[w]}")
    logmag = _log0(np.abs(vals))
    rhs = _norm_rows(logw, logmag, pv)
    ps = pv / s[:, None]
    lhs = _norm_rows(logw, s[:, None] * logmag, ps) ** (1.0 / s)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    rep = RelationReport("power rescaling identity")
    rep.add_rows("power_rescaling_identity", rel <= POWER_IDENTITY_RTOL,
                 POWER_IDENTITY_RTOL - rel,
                 note=lambda w: f"lhs = {lhs[w]:.12g}, rhs = {rhs[w]:.12g}")
    return rep


def power_identity_check(u: GridFunction, p: ExponentField, s: float) -> RelationReport:
    """Check ||  |u|^s ||_{p/s}^{1/s} = ||u||_p for 1 < s < p_minus."""
    vals, logw, pv = _one_row(u, p)
    return _power_identity_rows(vals, logw, pv, np.array([float(s)]))


def embedding_constant(m, q, p_minus, p_plus, beta):
    """Constant C of ||u||_q <= C ||u||_p on a space of total measure m.

    C = max(m^(1/q - 1/p-), m^(beta (1/q - 1/p+))) (1 + q (beta - 1)/p+)^(1/q)
    for 1 <= q <= p_minus and a ratio bound beta with p_plus <= beta p_minus;
    the arguments may be arrays of one instance per entry.
    """
    measure = np.maximum(m ** (1.0 / q - 1.0 / p_minus), m ** (beta * (1.0 / q - 1.0 / p_plus)))
    return measure * (1.0 + q * (beta - 1.0) / p_plus) ** (1.0 / q)


def _embedding_rows(vals, logw, pv, q, beta) -> RelationReport:
    """Core of :func:`embedding_bound_check` on a chunk, one q and beta (B,) per instance."""
    pm, pp = _exponent_bounds(pv, logw > -np.inf)
    bad = ~((1.0 <= q) & (q <= pm * (1 + 1e-12)))
    if bad.any():
        w = int(np.argmax(bad))
        raise PreconditionError(f"q must lie in [1, p_minus] = [1, {pm[w]}], got {q[w]}")
    bad = ~np.isfinite(beta)
    if bad.any():
        # an infinite beta passes vacuously and a nan one fails every row
        w = int(np.argmax(bad))
        raise PreconditionError(f"declared beta must be finite, got {beta[w]}")
    bad = beta * pm < pp * (1 - 1e-12)
    if bad.any():
        w = int(np.argmax(bad))
        raise PreconditionError(f"declared beta = {beta[w]} does not dominate p_plus / p_minus")

    m = np.exp(_logsumexp(logw))
    logmag = _log0(np.abs(vals))
    # the classical norm in closed form, not through luxemburg_root, so that
    # a wrong root breaks the bound instead of scaling both of its sides
    lhs = np.exp(_logsumexp(logw + q[:, None] * logmag) / q)
    rhs = embedding_constant(m, q, pm, pp, beta) * _norm_rows(logw, logmag, pv)
    rep = RelationReport("embedding bound")
    rep.add_rows("classical_norm_dominated", lhs <= rhs * (1.0 + RELATION_TOL), rhs - lhs,
                 note=lambda w: f"q = {q[w]}, beta = {beta[w]}")
    return rep


def embedding_bound_check(u: GridFunction, p: ExponentField, q: float,
                          beta=None) -> RelationReport:
    """Classical-q-norm control by the variable-exponent norm on finite measure.

    ||u||_q <= C ||u||_p for 1 <= q <= p_minus, with C the
    :func:`embedding_constant` of the total measure m and any declared ratio
    bound beta with p_plus <= beta p_minus.
    """
    vals, logw, pv = _one_row(u, p)
    if beta is None:
        beta = p.p_plus / p.p_minus
    return _embedding_rows(vals, logw, pv, np.array([float(q)]), np.array([float(beta)]))
