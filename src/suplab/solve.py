"""Descent minimization of the power-law energies over interior nodes.

The kink of |xi| is removed by the smoothing sqrt(|xi|^2 + eps^2) with a
decreasing continuation schedule; each stage runs steepest descent with a
backtracking sufficient-decrease line search.  Both objectives are evaluated
and differentiated entirely in the log domain, so exponents in the hundreds
never overflow:

* norm form: the variable-exponent norm of the density field is driven down
  by alternating a norm refresh (``luxemburg_root``: closed form for constant
  exponents, bisection otherwise) with descent on the log-modular of the
  density scaled by the current norm; decreasing that modular below one
  strictly decreases the norm.
* integral form: plain descent on the log of the exponent-normalized power
  integral.

Smoothed densities come from the family table in :mod:`suplab.energy`, the
cell-gradient stencil and its adjoint from :mod:`suplab.discretize`.

Closed-form supremal oracles for 1-D weighted problems live here as well:
the minimum of the sup of a(x) |u'| under endpoint data is
|g1 - g0| / integral of 1/a, attained by slopes proportional to 1/a.
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
    luxemburg_root,
)

__all__ = [
    "FUNCTIONAL_NORM",
    "FUNCTIONAL_INTEGRAL",
    "SolverSettings",
    "SolveResult",
    "minimize_power",
    "supremal_oracle_1d",
    "oracle_minimizer_1d",
]

FUNCTIONAL_NORM = "norm"
FUNCTIONAL_INTEGRAL = "integral"

# diminishing returns pushing the scaled modular far below one before the
# norm is refreshed: the norm moves by at most exp(J / p_minus)
_INNER_LOG_DROP = 1.0


@dataclass(frozen=True)
class SolverSettings:
    """Continuation schedule, line-search rule, and stopping control."""

    epsilons: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    step_init: float = 1.0
    step_shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    tol: float = 1e-10
    max_iter: int = 20000
    max_backtracks: int = 60
    inner_steps: int = 10

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) == 0 or any(e <= 0 for e in eps):
            raise StructuralError("smoothing schedule must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise StructuralError("smoothing schedule must be strictly decreasing")
        if not (0.0 < self.step_shrink < 1.0):
            raise StructuralError("step shrink factor must lie in (0, 1)")
        if not (0.0 < self.sufficient_decrease <= 0.5):
            raise StructuralError("sufficient-decrease constant must lie in (0, 1/2]")
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
    """Backtracking steepest descent on phi(u) = logsumexp(term_logs(u)).

    term_logs_fn(logf) maps cell-wise log densities to the per-cell term
    logs; the gradient is the softmax-weighted scatter of p * dlog f.  The
    warm line-search step survives across run() calls within a stage.
    """

    def __init__(self, mesh, spec, eps, settings):
        self.mesh = mesh
        self.spec = spec
        self.eps = eps
        self.settings = settings
        self.t0 = settings.step_init
        # smoothed built-in densities vanish only where a coefficient does
        self.positive = (spec.family == "shifted_norm"
                         or np.min(spec.coefficients.get("a", 1.0)) > 0.0)

    def eval(self, unodes, term_logs_fn):
        xi = _cell_gradient(self.mesh, unodes)
        f, dlog = _density(self.spec, self.spec.coefficients, None, xi, self.eps)
        if self.positive:
            logf = np.log(f)
        else:
            mask = f > 0
            logf = np.full(f.shape, -np.inf)
            logf[mask] = np.log(f[mask])
        terms, pfac = term_logs_fn(logf)
        phi = _logsumexp(terms)
        return phi, (terms, pfac, dlog)

    def grad(self, phi, parts):
        terms, pfac, dlog = parts
        sigma = np.exp(terms - phi) if np.isfinite(phi) else np.zeros_like(terms)
        coef = (sigma * pfac)[:, None] * dlog
        return _cell_gradient_adjoint(self.mesh, coef)

    def run(self, u, term_logs_fn, max_steps, stop_floor=-np.inf):
        st = self.settings
        c1 = st.sufficient_decrease
        trace = []
        iters = 0
        stagnated = False
        gnorm = np.inf
        phi, parts = self.eval(u, term_logs_fn)
        trace.append(phi)
        while iters < max_steps:
            g = self.grad(phi, parts)
            gnorm = float(np.max(np.abs(g)))
            gg = float(np.sum(g * g))
            if gg == 0.0:
                break
            t = self.t0
            accepted = False
            for _ in range(st.max_backtracks):
                trial = u - t * g
                phi_new, parts_new = self.eval(trial, term_logs_fn)
                if phi_new <= phi - c1 * t * gg:
                    accepted = True
                    break
                t *= st.step_shrink
            if not accepted:
                stagnated = True
                break
            drop = phi - phi_new
            u, phi, parts = trial, phi_new, parts_new
            trace.append(phi)
            iters += 1
            self.t0 = t * 4.0
            if drop < st.tol or phi < stop_floor:
                break
        return u, trace, iters, stagnated, gnorm


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
    pmin, pmax = p.p_minus, p.p_plus

    traces = []
    total_iters = 0
    stagnated = False
    residual = np.inf

    if functional == FUNCTIONAL_INTEGRAL:
        log_p = np.log(pv)

        def term_logs(logf):
            return logw - log_p + pv * logf, pv

        for eps in settings.epsilons:
            descent = _Descent(mesh, density, eps, settings)
            u, trace, iters, stag, residual = descent.run(
                u, term_logs, settings.max_iter
            )
            traces.append(
                tuple(float(np.exp(t)) if t <= 700.0 else np.inf for t in trace)
            )
            total_iters += iters
            stagnated = stagnated or stag
    else:
        for eps in settings.epsilons:
            trace = []
            descent = _Descent(mesh, density, eps, settings)

            def norm_of(unodes, bracket=None):
                xi = _cell_gradient(mesh, unodes)
                f, _ = _density(density, density.coefficients, None, xi, eps)
                mask = f > 0
                if not np.any(mask):
                    return 0.0
                base = logw[mask] + pv[mask] * np.log(f[mask])
                return luxemburg_root(base, pv[mask], float(np.max(f)), bracket=bracket)

            lam = norm_of(u)
            trace.append(lam)
            if lam == 0.0:
                traces.append(tuple(trace))
                residual = 0.0
                continue
            stage_iters = 0
            while stage_iters < settings.max_iter:
                loglam = np.log(lam)

                def term_logs(logf, _ll=loglam):
                    return logw + pv * (logf - _ll), pv

                inner = min(settings.inner_steps, settings.max_iter - stage_iters)
                u, inner_trace, iters, stag, residual = descent.run(
                    u, term_logs, inner, stop_floor=-_INNER_LOG_DROP
                )
                total_iters += iters
                stage_iters += max(iters, 1)
                j_end = inner_trace[-1]
                if stag and iters == 0:
                    stagnated = True
                    break
                bracket = None
                if j_end < 0:
                    bracket = (lam * np.exp(j_end / pmin), lam * np.exp(j_end / pmax))
                lam_new = norm_of(u, bracket=bracket)
                trace.append(lam_new)
                if lam - lam_new < settings.tol * max(lam_new, 1e-300):
                    lam = lam_new
                    break
                lam = lam_new
            traces.append(tuple(trace))

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


def oracle_minimizer_1d(a: GridFunction, g0: float, g1: float) -> np.ndarray:
    """Node values of the equalizing profile: a |u'| constant at the oracle level."""
    lstar = supremal_oracle_1d(a, g0, g1)
    steps = np.sign(g1 - g0) * lstar * a.grid.weights / a.values
    return np.concatenate([[g0], g0 + np.cumsum(steps)])
