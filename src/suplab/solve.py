"""Descent minimization of the power-law energies over interior nodes.

The kink of |xi| is removed by the smoothing sqrt(|xi|^2 + eps^2) with a
decreasing continuation schedule, one stage per eps.  Both functionals are
minimized by one stage loop, entirely in the log domain, so exponents in
the hundreds never overflow: a stage alternates :data:`_INNER_STEPS`
steepest-descent steps on phi(u) = logsumexp(log w + p (log f(u) - c))
with a refresh of the stage value, until the value's log drops by less
than :data:`_TOL` over a refresh or :data:`_MAX_ITER` steps are spent.
The functionals differ only in the value and the per-cell offset c:

* norm form: the norm lam of the density field (``luxemburg_root``) and
  c = log lam, refreshed with it, so phi is the log-modular of f / lam;
  driving that modular below one strictly decreases the norm.
* integral form: calF = sum (w/p) f^p and the fixed c = log(p) / p, so
  phi = log calF.

The line search backtracks under the Armijo test.  It evaluates its trials
a batch at a time, in one pass of the stencil and the density table, and
keeps the accepted iterate's density for the next step and the refresh;
the iterates are those of one-trial-at-a-time backtracking.

Smoothed densities come from the family table in :mod:`suplab.energy`, the
cell-gradient stencil and its adjoint from :mod:`suplab.discretize`; the
closed forms the minima are checked against live in :mod:`suplab.oracles`.
"""

from __future__ import annotations

import math
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
from .energy import DensitySpec, _density, _log_calF, eval_calFn, eval_Fn
from .exponent_space import (
    ExponentField,
    PreconditionError,
    StructuralError,
    _linear,
    _log0,
    _logsumexp,
    _require_same_grid,
    luxemburg_root,
)

__all__ = [
    "FUNCTIONAL_NORM",
    "FUNCTIONAL_INTEGRAL",
    "SolveResult",
    "minimize_power",
]

FUNCTIONAL_NORM = "norm"
FUNCTIONAL_INTEGRAL = "integral"

# smoothing continuation, one stage per eps; a stage stops once the log of
# its value drops by less than _TOL over a refresh, or after _MAX_ITER steps
_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_TOL = 1e-10
_MAX_ITER = 20000

# backtracking line search: first trial step of a stage, shrink factor per
# backtrack, Armijo sufficient-decrease constant, most trials per step, and
# the trials evaluated in one batch (a divisor of the most per step)
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_MAX_BACKTRACKS = 60
_TRIALS = 4

# descent steps between two refreshes of the stage value
_INNER_STEPS = 10


@dataclass
class SolveResult:
    field: DiscreteField
    objective: float
    iterations: int
    traces: tuple
    residual: float
    stagnated: bool


class _Descent:
    """Backtracking steepest descent on phi(u) = logsumexp(term_logs(log f(u))).

    term_logs_fn(logf) maps cell-wise log densities, with any leading batch
    axes, to the per-cell term logs and the exponent factor; the gradient is
    the softmax-weighted scatter of p * dlog f.  The descent holds one
    density state, the iterate ``u`` with its log f and d(log f)/d(xi): a
    refresh of the stage value and the next run() start from it, so the
    density is computed once per stage and once per batch of line-search
    trials.  The trials t, t/2, t/4, ... are evaluated :data:`_TRIALS` at a
    time in one stencil-and-density pass, and the first, in order, that
    passes the Armijo test is accepted: the step sequential backtracking
    takes.  The warm step survives across run() calls within a stage.
    """

    def __init__(self, mesh, spec, eps, u):
        self.mesh = mesh
        self.spec = spec
        self.eps = eps
        self.t0 = _STEP_INIT
        # a smoothed density vanishes only where a weight does
        self.positive = np.min(spec.coefficients.get("a", 1.0)) > 0.0
        self.u = u
        self.logf, self.dlog = self.log_density(u)
        # a column of trial steps, broadcast against the node array
        self.step_shape = (_TRIALS,) + (1,) * u.ndim

    def log_density(self, unodes):
        """log f and d(log f)/d(xi) on the cells of node values, batch axes first."""
        xi = _cell_gradient(self.mesh, unodes)
        f, dlog = _density(self.spec, xi, None, self.eps)
        return (np.log(f) if self.positive else _log0(f)), dlog

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
            phis = _logsumexp(terms)
            for j, step in enumerate(steps):
                if phis[j] <= phi - _SUFFICIENT_DECREASE * step * gg:
                    self.u, self.logf, self.dlog = trials[j], logf[j], dlog[j]
                    return step, float(phis[j]), terms[j]
        return None

    def run(self, term_logs_fn, max_steps):
        """Up to ``max_steps`` steps, the last one that drops phi by under _TOL.

        Returns the steps taken, whether a line search failed, and max |g|
        of the last gradient taken.
        """
        terms, pfac = term_logs_fn(self.logf)
        phi = _logsumexp(terms)
        iters = 0
        stagnated = False
        g = None
        while iters < max_steps:
            sigma = np.exp(terms - phi) if math.isfinite(phi) else np.zeros_like(terms)
            g = _cell_gradient_adjoint(self.mesh, (sigma * pfac)[:, None] * self.dlog)
            gg = float((g * g).sum())
            if gg == 0.0:
                break
            accepted = self.line_search(term_logs_fn, phi, g, gg)
            if accepted is None:
                stagnated = True
                break
            t, phi_new, terms = accepted
            drop, phi = phi - phi_new, phi_new
            iters += 1
            self.t0 = t * 4.0
            if drop < _TOL:
                break
        gnorm = np.inf if g is None else float(np.abs(g).max())
        return iters, stagnated, gnorm


def minimize_power(functional: str, density: DensitySpec, p: ExponentField,
                   mesh: MeshSpec, init: DiscreteField | None = None) -> SolveResult:
    """Minimize the chosen power-law functional over the interior nodes.

    ``functional`` is ``"norm"`` (variable-exponent norm of the density
    field) or ``"integral"`` (exponent-normalized power integral), with the
    density and ``p`` on the mesh's grid and any warm start ``init`` on
    ``mesh`` and its trace.  Each stage's trace holds its value (lam or
    calF) at the start and after each refresh.  The returned objective is
    evaluated on the unsmoothed density
    at the final iterate; a failed line search is reported through
    ``stagnated`` rather than passed off as convergence.
    """
    if functional not in (FUNCTIONAL_NORM, FUNCTIONAL_INTEGRAL):
        raise PreconditionError(f"unknown functional {functional!r}")
    grid = mesh.grid()
    _require_same_grid(grid, density, p)
    field = interpolate_boundary(mesh)
    if init is not None:
        # the descent never moves a boundary node, so a warm start must begin on the trace
        b = mesh._simplices[3]
        if init.mesh != mesh or (init.node_values.flat[b] != field.node_values.flat[b]).any():
            raise StructuralError("warm start lives on a different mesh or off its trace")
        field = init

    u = np.array(field.node_values)
    logw = grid.log_weights
    pv = p.values

    # refresh(log f) -> (trace value, its log, offset c)
    if functional == FUNCTIONAL_NORM:
        def refresh(logf):
            lam = luxemburg_root(logw + pv * logf, pv)
            loglam = _log0(lam)
            return lam, loglam, loglam

        evaluate = eval_Fn
    else:
        log_p_over_p = np.log(pv) / pv

        def refresh(logf):
            phi = _log_calF(logw, pv, logf)
            return _linear(phi), phi, log_p_over_p

        evaluate = eval_calFn

    def term_logs(logf):
        # reads the offset c of the latest refresh
        return logw + pv * (logf - c), pv

    traces = []
    total_iters = 0
    stagnated = False
    residual = np.inf
    for eps in _EPSILONS:
        descent = _Descent(mesh, density, eps, u)
        value, log_value, c = refresh(descent.logf)
        trace = [value]
        stage_iters = 0
        while stage_iters < _MAX_ITER:
            if log_value == -np.inf:
                # the value vanishes: no step can lower it
                residual = 0.0
                break
            inner = min(_INNER_STEPS, _MAX_ITER - stage_iters)
            iters, stag, residual = descent.run(term_logs, inner)
            total_iters += iters
            stage_iters += max(iters, 1)
            if stag and iters == 0:
                stagnated = True
                break
            value, new_log, c = refresh(descent.logf)
            trace.append(value)
            drop, log_value = log_value - new_log, new_log
            if drop < _TOL:
                break
        traces.append(tuple(trace))
        u = descent.u

    final = DiscreteField(mesh, u)
    objective = evaluate(density, final.cell_values(), gradient(final), p)
    return SolveResult(
        field=final,
        objective=float(objective),
        iterations=total_iters,
        traces=tuple(traces),
        residual=float(residual),
        stagnated=stagnated,
    )
