"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: constant
exponent norms come from the direct power-sum formula, variable-exponent
norms from a Brent root solve, minimizers from Lagrange closed forms, the
constant-exponent minimum from Hoelder's inequality, and the quadratic
energy from a dense linear solve.  Nothing here imports suplab.
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
    """Dense linear solve of min sum_cells w |Du_cell|^2 with Dirichlet data.

    Uses the same bilinear-cell-average gradient stencil as the library but
    assembles the normal equations G^T W G explicitly and solves them
    directly, giving an independent oracle for the q = 2 energy minimizer.
    """
    nodes_x, nodes_y = nx + 1, ny + 1
    n_nodes = nodes_x * nodes_y
    n_cells = nx * ny

    def node_id(i, j):
        return i * nodes_y + j

    rows_x = np.zeros((n_cells, n_nodes))
    rows_y = np.zeros((n_cells, n_nodes))
    cell = 0
    for i in range(nx):
        for j in range(ny):
            for (di, dj, sx, sy) in (
                (0, 0, -1, -1),
                (1, 0, +1, -1),
                (0, 1, -1, +1),
                (1, 1, +1, +1),
            ):
                k = node_id(i + di, j + dj)
                rows_x[cell, k] += sx / (2.0 * hx)
                rows_y[cell, k] += sy / (2.0 * hy)
            cell += 1

    G = np.vstack([rows_x, rows_y])
    w = np.full(2 * n_cells, hx * hy)
    A = G.T @ (w[:, None] * G)

    xs = np.arange(nodes_x) * hx
    ys = np.arange(nodes_y) * hy
    u = np.zeros((nodes_x, nodes_y))
    for i in range(nodes_x):
        for j in range(nodes_y):
            u[i, j] = boundary_fn(xs[i], ys[j])

    interior = []
    for i in range(nodes_x):
        for j in range(nodes_y):
            if 0 < i < nx and 0 < j < ny:
                interior.append(node_id(i, j))
    interior = np.array(interior, dtype=int)
    fixed = np.setdiff1d(np.arange(n_nodes), interior)
    uflat = u.ravel()

    rhs = -A[np.ix_(interior, fixed)] @ uflat[fixed]
    uflat[interior] = np.linalg.solve(A[np.ix_(interior, interior)], rhs)
    return uflat.reshape(nodes_x, nodes_y)
