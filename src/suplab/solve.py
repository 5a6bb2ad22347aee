"""Descent minimization of the power-law energies over interior nodes.

The kink of |xi| is removed by the smoothing sqrt(|xi|^2 + eps^2) with a
decreasing continuation schedule; each stage runs steepest descent with a
backtracking sufficient-decrease line search.  The backtracking trials are
evaluated a batch at a time, in one pass of the stencil and the density
table over a stack of trial iterates, and the density state of the accepted
iterate is kept, so the density is computed once per batch and once per
stage; the iterates are those of one-trial-at-a-time backtracking.
:class:`SolverSettings` holds only the smoothing schedule, the stopping
tolerance and the iteration budget; the line-search constants and the norm
form's steps per refresh are fixed module constants.  Both objectives are
evaluated and differentiated entirely in the log domain, so exponents in
the hundreds never overflow:

* norm form: the variable-exponent norm of the density field is driven down
  by alternating a norm refresh (``luxemburg_root``: closed form for constant
  exponents, Newton in log lam otherwise) with descent on the log-modular of the
  density scaled by the current norm; decreasing that modular below one
  strictly decreases the norm.  The refresh reads the kept density state.
* integral form: plain descent on the log of the exponent-normalized power
  integral.

Smoothed densities come from the family table in :mod:`suplab.energy`, the
cell-gradient stencil and its adjoint from :mod:`suplab.discretize`.

Closed-form oracles for 1-D weighted problems live here as well: the
minimum of the sup of a(x) |u'| under endpoint data is |g1 - g0| / integral
of 1/a, attained by slopes proportional to 1/a, and the minimum of the
weighted p-norm of a |u'| for a constant p is its Hoelder counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import (
    DiscreteField,
    MeshSpec,
    _cell_gradient,
    _cell_gradient_adjoint,
    gradient,
    interpolate_boundary,
)
from .energy import DensitySpec, _density, eval_calFn, eval_Fn
from .exponent_space import (
    ExponentField,
    GridFunction,
    PreconditionError,
    StructuralError,
    _logsumexp,
    _logsumexp_rows,
    luxemburg_root,
)

__all__ = [
    "FUNCTIONAL_NORM",
    "FUNCTIONAL_INTEGRAL",
    "SolverSettings",
    "SolveResult",
    "minimize_power",
    "supremal_oracle_1d",
    "power_oracle_1d",
    "oracle_minimizer_1d",
]

FUNCTIONAL_NORM = "norm"
FUNCTIONAL_INTEGRAL = "integral"

# diminishing returns pushing the scaled modular far below one before the
# norm is refreshed: the norm moves by at most exp(J / p_minus)
_INNER_LOG_DROP = 1.0

# backtracking line search: first trial step of a stage, shrink factor per
# backtrack, Armijo sufficient-decrease constant, most trials per step, and
# the trials evaluated in one batch (a divisor of the most per step)
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_MAX_BACKTRACKS = 60
_TRIALS = 4

# norm form: descent steps between two norm refreshes
_INNER_STEPS = 10


@dataclass(frozen=True)
class SolverSettings:
    """Continuation schedule and stopping control."""

    epsilons: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) == 0 or any(e <= 0 for e in eps):
            raise StructuralError("smoothing schedule must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise StructuralError("smoothing schedule must be strictly decreasing")
        if self.tol <= 0 or self.max_iter < 1:
            raise StructuralError("need a positive tolerance and iteration budget")
        object.__setattr__(self, "epsilons", eps)


@dataclass
class SolveResult:
    field: DiscreteField
    objective: float
    iterations: int
    traces: tuple
    residual: float
    stagnated: bool
    functional: str


class _Descent:
    """Backtracking steepest descent on phi(u) = logsumexp(term_logs(log f(u))).

    term_logs_fn(logf) maps cell-wise log densities, with any leading batch
    axes, to the per-cell term logs and the exponent factor; the gradient is
    the softmax-weighted scatter of p * dlog f.  The descent holds one
    density state, the iterate ``u`` with its log f and d(log f)/d(xi): a
    norm refresh and the next run() start from it, so the density is
    computed once per stage and once per batch of line-search trials.  The
    trials t, t/2, t/4, ... are evaluated :data:`_TRIALS` at a time in one
    stencil-and-density pass, and the first, in order, that passes the
    Armijo test is accepted: the step sequential backtracking takes.  The
    warm step survives across run() calls within a stage.
    """

    def __init__(self, mesh, spec, eps, settings, u):
        self.mesh = mesh
        self.spec = spec
        self.eps = eps
        self.settings = settings
        self.t0 = _STEP_INIT
        # smoothed built-in densities vanish only where a coefficient does
        self.positive = (spec.family == "shifted_norm"
                         or np.min(spec.coefficients.get("a", 1.0)) > 0.0)
        self.u = u
        self.logf, self.dlog = self.log_density(u)
        # a column of trial steps, broadcast against the node array
        self.step_shape = (_TRIALS,) + (1,) * u.ndim

    def log_density(self, unodes):
        """log f and d(log f)/d(xi) on the cells of node values, batch axes first."""
        xi = _cell_gradient(self.mesh, unodes)
        f, dlog = _density(self.spec, self.spec.coefficients, None, xi, self.eps)
        if self.positive:
            return np.log(f), dlog
        mask = f > 0
        logf = np.full(f.shape, -np.inf)
        logf[mask] = np.log(f[mask])
        return logf, dlog

    def norm(self, logw, pv):
        """Luxemburg norm of the density field at the iterate; zero if it vanishes."""
        mask = self.logf > -np.inf
        if not np.any(mask):
            return 0.0
        return luxemburg_root(logw[mask] + pv[mask] * self.logf[mask], pv[mask])

    def line_search(self, term_logs_fn, phi, g, gg):
        """Move the state to the first trial step passing the Armijo test.

        Returns the step, phi and the term logs there, or None, leaving
        the state as it was, once :data:`_MAX_BACKTRACKS` trials have failed.
        """
        t = self.t0
        for _ in range(_MAX_BACKTRACKS // _TRIALS):
            steps = []
            for _ in range(_TRIALS):
                steps.append(t)
                t *= _STEP_SHRINK
            trials = self.u - np.array(steps).reshape(self.step_shape) * g
            logf, dlog = self.log_density(trials)
            terms, _ = term_logs_fn(logf)
            phis = _logsumexp_rows(terms)
            for j, step in enumerate(steps):
                if phis[j] <= phi - _SUFFICIENT_DECREASE * step * gg:
                    self.u, self.logf, self.dlog = trials[j], logf[j], dlog[j]
                    return step, float(phis[j]), terms[j]
        return None

    def run(self, term_logs_fn, max_steps, stop_floor=-np.inf):
        terms, pfac = term_logs_fn(self.logf)
        phi = _logsumexp(terms)
        trace = [phi]
        iters = 0
        stagnated = False
        gnorm = np.inf
        while iters < max_steps:
            sigma = np.exp(terms - phi) if np.isfinite(phi) else np.zeros_like(terms)
            g = _cell_gradient_adjoint(self.mesh, (sigma * pfac)[:, None] * self.dlog)
            gnorm = float(np.abs(g).max())
            gg = float((g * g).sum())
            if gg == 0.0:
                break
            accepted = self.line_search(term_logs_fn, phi, g, gg)
            if accepted is None:
                stagnated = True
                break
            t, phi_new, terms = accepted
            drop = phi - phi_new
            phi = phi_new
            trace.append(phi)
            iters += 1
            self.t0 = t * 4.0
            if drop < self.settings.tol or phi < stop_floor:
                break
        return trace, iters, stagnated, gnorm


def minimize_power(functional: str, density: DensitySpec, p: ExponentField,
                   mesh: MeshSpec, settings: SolverSettings | None = None,
                   init: DiscreteField | None = None) -> SolveResult:
    """Minimize the chosen power-law functional over the interior nodes.

    ``functional`` is ``"norm"`` (variable-exponent norm of the density
    field) or ``"integral"`` (exponent-normalized power integral).  The
    returned objective is evaluated on the unsmoothed density at the final
    iterate; a failed line search is reported through ``stagnated`` rather
    than passed off as convergence.
    """
    if functional not in (FUNCTIONAL_NORM, FUNCTIONAL_INTEGRAL):
        raise PreconditionError(f"unknown functional {functional!r}")
    settings = settings or SolverSettings()
    grid = mesh.grid()
    if p.grid.n_cells != grid.n_cells:
        raise StructuralError("exponent field does not live on the mesh cells")
    if density.grid.n_cells != grid.n_cells:
        raise StructuralError("density does not live on the mesh cells")
    if init is not None and init.mesh.cells != mesh.cells:
        raise StructuralError("warm start lives on a different mesh")
    field = init if init is not None else interpolate_boundary(mesh)

    u = np.array(field.node_values)
    logw = grid.log_weights
    pv = p.values

    traces = []
    total_iters = 0
    stagnated = False
    residual = np.inf

    if functional == FUNCTIONAL_INTEGRAL:
        log_p = np.log(pv)

        def term_logs(logf):
            return logw - log_p + pv * logf, pv

        for eps in settings.epsilons:
            descent = _Descent(mesh, density, eps, settings, u)
            trace, iters, stag, residual = descent.run(term_logs, settings.max_iter)
            u = descent.u
            traces.append(
                tuple(float(np.exp(t)) if t <= 700.0 else np.inf for t in trace)
            )
            total_iters += iters
            stagnated = stagnated or stag
    else:
        for eps in settings.epsilons:
            descent = _Descent(mesh, density, eps, settings, u)
            lam = descent.norm(logw, pv)
            trace = [lam]
            if lam == 0.0:
                traces.append(tuple(trace))
                residual = 0.0
                continue
            stage_iters = 0
            while stage_iters < settings.max_iter:
                loglam = np.log(lam)

                def term_logs(logf, _ll=loglam):
                    return logw + pv * (logf - _ll), pv

                inner = min(_INNER_STEPS, settings.max_iter - stage_iters)
                _, iters, stag, residual = descent.run(
                    term_logs, inner, stop_floor=-_INNER_LOG_DROP
                )
                total_iters += iters
                stage_iters += max(iters, 1)
                if stag and iters == 0:
                    stagnated = True
                    break
                lam_new = descent.norm(logw, pv)
                trace.append(lam_new)
                if lam - lam_new < settings.tol * max(lam_new, 1e-300):
                    lam = lam_new
                    break
                lam = lam_new
            traces.append(tuple(trace))
            u = descent.u

    final = DiscreteField(mesh, u)
    du = gradient(final)
    ucells = final.cell_values()
    if functional == FUNCTIONAL_NORM:
        objective = eval_Fn(density, ucells, du, p)
    else:
        objective = eval_calFn(density, ucells, du, p)
    return SolveResult(
        field=final,
        objective=float(objective),
        iterations=total_iters,
        traces=tuple(traces),
        residual=float(residual),
        stagnated=stagnated,
        functional=functional,
    )


def supremal_oracle_1d(a: GridFunction, g0: float, g1: float) -> float:
    """Exact minimum of sup a(x) |u'| under u(x0) = g0, u(x1) = g1.

    Any competitor satisfies |u'| <= L / a and the total rise pins
    L >= |g1 - g0| / integral(1/a); slopes proportional to 1/a attain it.
    """
    if a.grid.dimension != 1:
        raise PreconditionError("the closed-form oracle is one-dimensional")
    if np.any(a.values <= 0):
        raise PreconditionError("weight must be strictly positive")
    inv_mass = float(np.sum(a.grid.weights / a.values))
    return abs(g1 - g0) / inv_mass


def power_oracle_1d(a: GridFunction, p: float, g0: float, g1: float) -> float:
    """Exact minimum of the weighted p-norm (sum_i w_i (a_i |u'_i|)^p)^(1/p), constant p > 1.

    Hoelder on the total rise, |g1 - g0| = |sum_i w_i (a_i u'_i) / a_i|
    <= ||a u'||_p ||1/a||_p', gives m_p = |g1 - g0| / (sum_i w_i a_i^{-p'})^{1/p'}
    with p' = p/(p-1), attained by slopes proportional to a^{-p'}.  As p
    grows, m_p tends to :func:`supremal_oracle_1d`.
    """
    if a.grid.dimension != 1:
        raise PreconditionError("the closed-form oracle is one-dimensional")
    if np.any(a.values <= 0):
        raise PreconditionError("weight must be strictly positive")
    if not p > 1.0:
        raise PreconditionError(f"the power oracle needs p > 1, got {p}")
    dual = p / (p - 1.0)
    return abs(g1 - g0) / float(np.sum(a.grid.weights * a.values ** -dual)) ** (1.0 / dual)


def oracle_minimizer_1d(a: GridFunction, g0: float, g1: float) -> np.ndarray:
    """Node values of the equalizing profile: a |u'| constant at the oracle level."""
    lstar = supremal_oracle_1d(a, g0, g1)
    steps = np.sign(g1 - g0) * lstar * a.grid.weights / a.values
    return np.concatenate([[g0], g0 + np.cumsum(steps)])
