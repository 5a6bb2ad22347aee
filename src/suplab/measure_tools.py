"""Finitely-supported per-cell probability measures and their limit facts.

A :class:`DiscreteYoungMeasure` attaches a finite probability measure over
gradient values to every grid cell.  Two facts drive the lower-bound side of
the power-law approximation arguments, and both become exactly computable
here: the Jensen bound for level convex integrands (the mean never beats the
worst atom), checked for a :class:`~suplab.energy.DensitySpec` on a batch of
trials, and the q -> infinity collapse of mixed power sums onto the largest
atom value.  One weight rule holds for measures and Jensen trials alike:
weights are >= 0 and sum to 1, and a zero weight is padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import DensitySpec, _density, eval_density
from .exponent_space import Grid, GridFunction, StructuralError, _log0, _logsumexp
from .reports import RelationReport, Table, eventually_decreasing

__all__ = [
    "DEFAULT_Q_SCHEDULE",
    "JENSEN_TOL",
    "DiscreteYoungMeasure",
    "barycenter",
    "jensen_check",
    "young_q_limit",
]

# error decays like log(.)/q, so a geometric schedule shows the trend in few rows
DEFAULT_Q_SCHEDULE = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

# f(mean) may exceed the max over the atoms by JENSEN_TOL (1 + |max|)
JENSEN_TOL = 1e-10


def _check_weights(wts, noun, first=0):
    """Raise StructuralError unless each row of ``wts`` is a probability vector.

    A row's weights must be >= 0 and sum to 1 within 1e-12 (a NaN fails
    both); a zero weight marks a padded atom.  Row r is named in the error
    as ``noun first + r``.
    """
    ok = (wts >= 0).all(axis=-1) & (np.abs(wts.sum(axis=-1) - 1.0) <= 1e-12)
    if not ok.all():
        r = int(np.argmax(~ok))
        raise StructuralError(f"{noun} {first + r}: atom weights {wts[r].tolist()} are not "
                              "probabilities (>= 0, summing to 1)")


@dataclass(frozen=True)
class DiscreteYoungMeasure:
    """Per-cell atoms (points, weights); weights are probabilities summing to one.

    Weights must be >= 0 and sum to 1 within 1e-12, the rule jensen_check
    applies to its trials; an atom of weight zero carries no mass and is
    dropped.
    """

    grid: Grid
    atoms: tuple

    def __post_init__(self):
        if len(self.atoms) != self.grid.n_cells:
            raise StructuralError(
                f"{len(self.atoms)} atom lists for {self.grid.n_cells} cells"
            )
        cleaned = []
        dim = None
        for i, (points, weights) in enumerate(self.atoms):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            wts = np.asarray(weights, dtype=float).ravel()
            if pts.shape[0] != wts.size:
                pts = pts.T
            if pts.shape[0] != wts.size or wts.size < 1:
                raise StructuralError(f"cell {i}: malformed atoms")
            if dim is None:
                dim = pts.shape[1]
            elif pts.shape[1] != dim:
                raise StructuralError("atom dimension varies across cells")
            _check_weights(wts[None], "cell", i)
            pts, wts = pts[wts > 0], wts[wts > 0]
            pts.setflags(write=False)
            wts.setflags(write=False)
            cleaned.append((pts, wts))
        object.__setattr__(self, "atoms", tuple(cleaned))


def barycenter(mu: DiscreteYoungMeasure) -> GridFunction:
    """Cell-wise first moment; with unit atoms this recovers the gradient field."""
    vals = np.array([wts @ pts for pts, wts in mu.atoms])
    return GridFunction(mu.grid, vals)


def jensen_check(f: DensitySpec, cell, u_val, atoms) -> RelationReport:
    """Check f(x, u, mean) <= max over atoms of f(x, u, atom), for one trial or a batch.

    Over a finite support the measure-essential supremum is the plain max.
    One trial is ``cell``, ``u_val`` and atoms (points (m, k), weights
    (m,)); a batch of T trials passes arrays (T,) for ``cell`` and ``u_val``
    and atoms (points (T, m, k), weights (T, m)).  Each trial's weights
    must be probabilities, by the rule of :class:`DiscreteYoungMeasure`,
    else StructuralError is raised; a zero weight marks a padded atom that
    never sets the max.  The density is evaluated by one family-table call
    for the means and one for the atoms.  Violations are recorded, not
    raised: they are evidence the integrand is not level convex.
    ``meta["violations"]`` counts the failing trials; the slack is the
    smallest margin, and the witness the first failing trial, or the trial
    of smallest margin if none fails.
    """
    points, weights = atoms
    pts = np.asarray(points, dtype=float)
    wts = np.asarray(weights, dtype=float)
    if np.ndim(cell) == 0:
        pts = np.atleast_2d(pts)
        wts = wts.ravel()
        if pts.shape[0] != wts.size:
            pts = pts.T
        pts, wts = pts[None], wts[None]
    _check_weights(wts, "trial")
    cells = np.atleast_1d(np.asarray(cell, dtype=int))
    u_vals = np.broadcast_to(np.asarray(u_val, dtype=float), cells.shape)
    mean = np.matmul(wts[:, None, :], pts)[:, 0]
    live = wts > 0

    def values(trial, xi):
        c = {k: v[cells[trial]] for k, v in f.coefficients.items()}
        return _density(f, c, u_vals[trial], xi, 0.0)[0]

    lhs = values(np.arange(cells.size), mean)
    atom_vals = np.full(live.shape, -np.inf)
    atom_vals[live] = values(np.nonzero(live)[0], pts[live])
    rhs = atom_vals.max(axis=1)
    bad = lhs > rhs + JENSEN_TOL * (1.0 + np.abs(rhs))
    rep = RelationReport("Jensen bound over atoms")
    rep.add_rows(
        "mean_below_worst_atom", ~bad, rhs - lhs,
        note=lambda w: f"f(mean) = {lhs[w]:.6g}, max atom value = {rhs[w]:.6g}",
        witness=lambda w: {"cell": int(cells[w]), "mean": mean[w].tolist(),
                           "lhs": float(lhs[w]), "rhs": float(rhs[w])},
    )
    return rep


def young_q_limit(f: DensitySpec, u: GridFunction, mu: DiscreteYoungMeasure,
                  q_values=DEFAULT_Q_SCHEDULE) -> Table:
    """Tabulate the mixed q-power means of the density over a Young measure.

    Row value: (sum_i w_i sum_a omega_ia f(x_i, u_i, xi_ia)^q)^(1/q),
    accumulated in the log domain.  As q grows the rows approach the largest
    atom value max_i max_a f(x_i, u_i, xi_ia).
    """
    if mu.grid.n_cells != u.grid.n_cells:
        raise StructuralError("field and measure live on different grids")
    logw = []
    vals = []
    for i, (pts, wts) in enumerate(mu.atoms):
        for a in range(wts.size):
            vals.append(eval_density(f, i, u.values[i], pts[a]))
            logw.append(np.log(mu.grid.weights[i] * wts[a]))
    vals = np.array(vals)
    if np.any(vals < 0):
        raise StructuralError("density must be nonnegative on all atoms")
    logw = np.array(logw)
    logf = _log0(vals)
    fmax = float(vals.max())

    rows = []
    for q in q_values:
        q = float(q)
        val = float(np.exp(_logsumexp(logw + q * logf) / q))
        rows.append((int(q), val, abs(val - fmax)))
    errs = [r[2] for r in rows]
    return Table(
        columns=("q", "value", "limit_error"),
        rows=rows,
        verdicts={"error_eventually_decreasing": eventually_decreasing(errs)},
        meta={"limit": fmax, "final_error": errs[-1] if errs else 0.0},
    )
