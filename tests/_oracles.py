"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: constant
exponent norms come from the direct power-sum formula, variable-exponent
norms from a Brent root solve, minimizers from Lagrange closed forms, the
constant-exponent minimum from Hoelder's inequality, the variable-exponent
minimum from two nested Brent roots on its KKT conditions, and the quadratic
energy from a dense solve of the 5-point Laplace equation.  Nothing here
imports suplab.
"""

import numpy as np
from scipy.optimize import brentq


def logsumexp(t):
    t = np.asarray(t, dtype=float)
    m = np.max(t)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(t - m))))


def constant_p_norm(values, weights, q):
    """(sum w |v|^q)^(1/q) via the direct formula."""
    mags = np.abs(np.asarray(values, dtype=float))
    mask = mags > 0
    if not mask.any():
        return 0.0
    lr = logsumexp(np.log(weights[mask]) + q * np.log(mags[mask]))
    return float(np.exp(lr / q))


def brentq_luxemburg(values, exponents, weights, lo_hint=None, hi_hint=None):
    """Luxemburg norm by Brent's method on lam -> log modular(u / lam)."""
    mags = np.abs(np.asarray(values, dtype=float))
    mask = mags > 0
    if not mask.any():
        return 0.0
    p = np.asarray(exponents, dtype=float)[mask]
    base = np.log(np.asarray(weights, dtype=float)[mask]) + p * np.log(mags[mask])

    def excess(lam):
        return logsumexp(base - p * np.log(lam))

    lo = lo_hint or float(np.max(mags))
    hi = hi_hint or lo
    while excess(lo) <= 0:
        lo *= 0.25
    while excess(hi) > 0:
        hi *= 4.0
    return float(brentq(excess, lo, hi, xtol=1e-300, rtol=1e-15))


def el_slopes_constant_q(a_cells, weights, q, total_rise):
    """Exact minimizer slopes of sum w (a s)^q subject to sum w s = rise.

    Stationarity forces s_i proportional to a_i^(-q/(q-1)); the multiplier is
    fixed by the boundary rise.
    """
    a = np.asarray(a_cells, dtype=float)
    w = np.asarray(weights, dtype=float)
    s = a ** (-q / (q - 1.0))
    s *= total_rise / np.sum(w * s)
    return s


def power_minimum_constant_q(a_cells, weights, q, total_rise):
    """Minimum of (sum w (a s)^q)^(1/q) subject to sum w s = rise, for q > 1.

    Hoelder on the rise, sum w (a s) / a <= ||a s||_q ||1/a||_q', gives
    |rise| / (sum w a^(-q'))^(1/q') with q' = q/(q-1), attained by the
    slopes of el_slopes_constant_q.  As q grows it tends to |rise| / sum w/a.
    """
    a = np.asarray(a_cells, dtype=float)
    w = np.asarray(weights, dtype=float)
    dual = q / (q - 1.0)
    return abs(total_rise) / float(np.sum(w * a ** -dual)) ** (1.0 / dual)


def _monotone_root(fn):
    """Brent root of a monotone fn of a log variable, bracketed outward from 0."""
    step = 1.0
    while fn(-step) * fn(step) > 0:
        step *= 2.0
    return brentq(fn, -step, step, xtol=1e-15, rtol=1e-15)


def power_minimum_variable_p(a_cells, weights, exponents, total_rise):
    """Minimum of ||a s||_{p(.)} subject to sum w s = rise, by two nested Brent roots.

    The minimum is the lam at which the largest rise under modular(a s / lam)
    = 1 is |rise|.  At a fixed lam that largest rise has the KKT slopes
    s_i = (lam^p_i / (mu p_i a_i^p_i))^(1/(p_i - 1)): the inner root in
    log mu puts the modular at 1, and the outer root in log lam makes
    sum w s equal |rise|.  Everything is in logs, so exponents in the
    hundreds do not overflow.
    """
    a, w, p = (np.asarray(v, dtype=float) for v in (a_cells, weights, exponents))
    loga, logw, logp = np.log(a), np.log(w), np.log(p)

    def log_slopes(loglam, logmu):
        return (p * loglam - logmu - logp - p * loga) / (p - 1.0)

    def log_rise(loglam):
        logmu = _monotone_root(
            lambda logmu: logsumexp(logw + p * (loga + log_slopes(loglam, logmu) - loglam)))
        return logsumexp(logw + log_slopes(loglam, logmu))

    return float(np.exp(_monotone_root(lambda t: log_rise(t) - np.log(abs(total_rise)))))


def el_nodes_inverse_weight(q, x_nodes):
    """Closed-form minimizer for a(x) = 1/(1+x) on (0,1), u(0)=0, u(1)=1.

    u'(x) = c (1+x)^r with r = q/(q-1); c normalizes the total rise to 1.
    As q grows this tends to (2/3)(x + x^2/2).
    """
    r = q / (q - 1.0)
    c = (r + 1.0) / (2.0 ** (r + 1.0) - 1.0)
    x = np.asarray(x_nodes, dtype=float)
    return c * ((1.0 + x) ** (r + 1.0) - 1.0) / (r + 1.0)


def limit_minimizer_inverse_weight(x_nodes):
    """(2/3)(x + x^2/2): the best-Lipschitz-extension profile for a = 1/(1+x)."""
    x = np.asarray(x_nodes, dtype=float)
    return (2.0 / 3.0) * (x + 0.5 * x * x)


def quadratic_energy_solve_2d(nx, ny, hx, hy, boundary_fn):
    """Dense linear solve of the 5-point discrete Laplace equation with Dirichlet data.

    On right triangles with legs along the axes, two per rectangle, the
    stiffness of sum_cells w |Du_cell|^2 is the 5-point Laplacian (Courant's
    P1 elements), so the q = 2 energy minimizer is the discrete harmonic
    extension of the trace.  The Laplacian is assembled here from its
    5-point stencil, not from any cell-gradient stencil.
    """
    xs = np.arange(nx + 1) * hx
    ys = np.arange(ny + 1) * hy
    u = np.array([[boundary_fn(x, y) for y in ys] for x in xs])
    interior = [(i, j) for i in range(1, nx) for j in range(1, ny)]
    row = {node: k for k, node in enumerate(interior)}
    A = np.zeros((len(interior), len(interior)))
    rhs = np.zeros(len(interior))
    for k, (i, j) in enumerate(interior):
        A[k, k] = 2.0 / hx**2 + 2.0 / hy**2
        for node, h in (((i - 1, j), hx), ((i + 1, j), hx), ((i, j - 1), hy), ((i, j + 1), hy)):
            if node in row:
                A[k, row[node]] = -1.0 / h**2
            else:
                rhs[k] += u[node] / h**2
    sol = np.linalg.solve(A, rhs)
    for k, node in enumerate(interior):
        u[node] = sol[k]
    return u
