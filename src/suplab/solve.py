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

The stage loop lives in :func:`minimize_power`, with the iterate, its log
density and d(log f)/d(xi), the offset c and the warm step as locals.  Its
one helper, :func:`_armijo`, backtracks under the Armijo test: it evaluates
the trials a batch at a time, in one pass of the stencil and the density
table, and hands back the accepted iterate's density for the next step and
the refresh; the iterates are those of one-trial-at-a-time backtracking.
The solve runs under one ``np.errstate(divide="ignore")``, so every log is
``np.log``, with log 0 = -inf silent, and the returned objective is the
stage value at eps = 0: the refresh of the exact density's log.

Smoothed densities come from the family table in :mod:`suplab.energy`, the
cell-gradient stencil and its adjoint from :mod:`suplab.discretize`; the
closed forms the minima are checked against live in :mod:`suplab.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import (
    DiscreteField,
    MeshSpec,
    _cell_gradient,
    _cell_gradient_adjoint,
    interpolate_boundary,
)
from .energy import DensitySpec, _density, _log_calF
from .exponent_space import (
    ExponentField,
    PreconditionError,
    StructuralError,
    _linear,
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


def _armijo(mesh, density, eps, logw, pv, c, u, g, phi, gg, t):
    """The first of the trial steps t, t/2, t/4, ... along -g passing the Armijo test.

    phi(u) = logsumexp(logw + pv (log f(u) - c)) with the density smoothed
    at ``eps``.  The trials are evaluated :data:`_TRIALS` at a time in one
    stencil-and-density pass and compared in order, so the step is the one
    sequential backtracking takes.
    Returns the step, the iterate there with its log f, d(log f)/d(xi),
    phi and term logs, or None once :data:`_MAX_BACKTRACKS` trials failed.
    """
    for _ in range(_MAX_BACKTRACKS // _TRIALS):
        steps = []
        for _ in range(_TRIALS):
            steps.append(t)
            t *= _STEP_SHRINK
        trials = u - np.multiply.outer(steps, g)
        f, dlog = _density(density, _cell_gradient(mesh, trials), None, eps)
        logf = np.log(f)
        terms = logw + pv * (logf - c)
        phis = _logsumexp(terms)
        for j, step in enumerate(steps):
            if phis[j] <= phi - _SUFFICIENT_DECREASE * step * gg:
                return step, trials[j], logf[j], dlog[j], float(phis[j]), terms[j]
    return None


@np.errstate(divide="ignore")
def minimize_power(functional: str, density: DensitySpec, p: ExponentField,
                   mesh: MeshSpec, init: DiscreteField | None = None) -> SolveResult:
    """Minimize the chosen power-law functional over the interior nodes.

    ``functional`` is ``"norm"`` (variable-exponent norm of the density
    field) or ``"integral"`` (exponent-normalized power integral), with the
    density and ``p`` on the mesh's grid and any warm start ``init`` on
    ``mesh`` and its trace; a start where the density is not finite is
    refused.  Each stage's trace holds its value (lam or
    calF) at the start and after each refresh.  The returned objective is
    that value on the unsmoothed density at the final iterate; a failed
    line search is reported through ``stagnated`` rather than passed off
    as convergence.
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
    # a density that overflows at the start leaves every stage at phi = +inf
    with np.errstate(over="ignore", invalid="ignore"):
        f0, _ = _density(density, _cell_gradient(mesh, u))
    bad = np.flatnonzero(~np.isfinite(f0))
    if bad.size:
        raise StructuralError(f"{density.family} density is not finite at the start: "
                              f"{f0[bad[0]]} in cell {bad[0]}")
    logw = grid.log_weights
    pv = p.values

    # refresh(log f) -> (trace value, its log, offset c)
    if functional == FUNCTIONAL_NORM:
        def refresh(logf):
            lam = luxemburg_root(logw + pv * logf, pv)
            loglam = np.log(lam)
            return lam, loglam, loglam
    else:
        log_p_over_p = np.log(pv) / pv

        def refresh(logf):
            phi = _log_calF(logw, pv, logf)
            return _linear(phi), phi, log_p_over_p

    traces = []
    total_iters = 0
    stagnated = False
    residual = np.inf
    for eps in _EPSILONS:
        # the iterate's density state, kept from the accepted trial of each step
        f, dlog = _density(density, _cell_gradient(mesh, u), None, eps)
        logf = np.log(f)
        t0 = _STEP_INIT
        value, log_value, c = refresh(logf)
        trace = [value]
        stage_iters = 0
        while stage_iters < _MAX_ITER:
            if log_value == -np.inf:
                # the value vanishes: no step can lower it
                residual = 0.0
                break
            terms = logw + pv * (logf - c)
            phi = _logsumexp(terms)
            iters = 0
            failed = False
            for _ in range(min(_INNER_STEPS, _MAX_ITER - stage_iters)):
                # the gradient of phi: the softmax-weighted scatter of p d(log f)
                sigma = np.exp(terms - phi)
                g = _cell_gradient_adjoint(mesh, (sigma * pv)[:, None] * dlog)
                gg = float((g * g).sum())
                if gg == 0.0:
                    break
                accepted = _armijo(mesh, density, eps, logw, pv, c, u, g, phi, gg, t0)
                if accepted is None:
                    failed = True
                    break
                t, u, logf, dlog, new_phi, terms = accepted
                drop, phi = phi - new_phi, new_phi
                iters += 1
                t0 = t * 4.0
                if drop < _TOL:
                    break
            residual = float(np.abs(g).max())
            total_iters += iters
            stage_iters += max(iters, 1)
            if failed and iters == 0:
                stagnated = True
                break
            value, new_log, c = refresh(logf)
            trace.append(value)
            drop, log_value = log_value - new_log, new_log
            if drop < _TOL:
                break
        traces.append(tuple(trace))

    f, _ = _density(density, _cell_gradient(mesh, u))
    return SolveResult(
        field=DiscreteField(mesh, u),
        objective=refresh(np.log(f))[0],
        iterations=total_iters,
        traces=tuple(traces),
        residual=float(residual),
        stagnated=stagnated,
    )
