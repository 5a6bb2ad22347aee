"""Finitely-supported per-cell probability measures and their limit facts.

A :class:`DiscreteYoungMeasure` attaches a finite probability measure over
gradient values to every grid cell, as one zero-padded array pair: points
(cells, m, k) and weights (cells, m), a batch of Jensen trials, one per
cell.  Two facts drive the lower-bound side of the power-law approximation
arguments, and both become exactly computable here: the Jensen bound for
level convex integrands (the mean never beats the worst atom), checked for
a :class:`~suplab.energy.DensitySpec` on a batch of trials, and the
q -> infinity collapse of mixed power sums onto the largest atom value.
One weight rule holds for measures and Jensen trials alike: weights are
>= 0 and sum to 1, and a zero weight is padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import JENSEN_TOL, DensitySpec, _density, eval_density
from .exponent_space import (Grid, GridFunction, StructuralError, _cell_array, _components,
                             _log0, _require_same_grid, _schedule, luxemburg_root)
from .reports import RelationReport, Table, eventually_decreasing

__all__ = [
    "DEFAULT_Q_SCHEDULE",
    "DiscreteYoungMeasure",
    "barycenter",
    "jensen_check",
    "young_q_limit",
]

# error decays like log(.)/q, so a geometric schedule shows the trend in few rows
DEFAULT_Q_SCHEDULE = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _atoms(points, weights, lead, noun):
    """Points (T, m, k) and weights (T, m) of T rows of atoms, as read-only float arrays.

    Both arrays follow the cell-array rule with leading axes ``lead`` (the
    cells of a measure, or () for Jensen trials), so every value is finite,
    and a point has at least one component.
    Each row's weights must be >= 0 and sum to 1 within 1e-12, else
    StructuralError names the row r as ``noun r``.
    """
    pts = _components(_cell_array(points, lead, "atom points", 3), "atom points")
    wts = _cell_array(weights, lead, "atom weights", 2)
    if wts.shape != pts.shape[:2]:
        raise StructuralError(f"atoms of shapes {pts.shape} and {wts.shape}; "
                              "need points (T, m, k) and weights (T, m)")
    ok = (wts >= 0).all(axis=-1) & (np.abs(wts.sum(axis=-1) - 1.0) <= 1e-12)
    if not ok.all():
        r = int(np.argmax(~ok))
        raise StructuralError(f"{noun} {r}: atom weights {wts[r].tolist()} are not "
                              "probabilities (>= 0, summing to 1)")
    return pts, wts


def _mean(pts, wts):
    """The first moment of each row's atoms, shape (T, k)."""
    return np.matmul(wts[:, None, :], pts)[:, 0]


@dataclass(frozen=True)
class DiscreteYoungMeasure:
    """Atoms on every cell: points (cells, m, k) and weights (cells, m).

    Cell i carries the atoms points[i, a] with weights weights[i, a]; each
    cell's weights follow the rule of :func:`jensen_check`, and an atom of
    weight zero is padding, kept in the arrays and never counted.
    """

    grid: Grid
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points, weights = _atoms(self.points, self.weights, (self.grid.n_cells,), "cell")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)


def barycenter(mu: DiscreteYoungMeasure) -> GridFunction:
    """Cell-wise first moment; with unit atoms this recovers the gradient field."""
    return GridFunction(mu.grid, _mean(mu.points, mu.weights))


def jensen_check(f: DensitySpec, cell, u_val, atoms) -> RelationReport:
    """Check f(x, u, mean) <= max over atoms of f(x, u, atom), for one trial or a batch.

    Over a finite support the measure-essential supremum is the plain max.
    One trial is ``cell``, ``u_val`` and atoms (points (m, k), weights
    (m,)); a batch of T trials passes arrays (T,) for ``cell`` and ``u_val``
    and atoms (points (T, m, k), weights (T, m)), the layout of a
    :class:`DiscreteYoungMeasure`.  Each trial's cell must be an integer
    index into f's grid, its points finite and its weights probabilities,
    else StructuralError is raised; a zero weight marks a padded atom that
    never sets the max.  The density is evaluated by one family-table call
    for the means and one for the atoms.  Violations are recorded, not
    raised: they are evidence the integrand is not level convex.
    ``meta["violations"]`` counts the failing trials; the slack is the
    smallest margin, and the witness the first failing trial, or the trial
    of smallest margin if none fails.
    """
    points, weights = atoms
    if np.ndim(cell) == 0:
        points, weights = np.asarray(points)[None], np.asarray(weights)[None]
    pts, wts = _atoms(points, weights, (), "trial")
    cells = np.atleast_1d(np.asarray(cell))
    if not np.issubdtype(cells.dtype, np.integer):
        raise StructuralError(f"cell indices must be integers, got dtype {cells.dtype}")
    off = cells[(cells < 0) | (cells >= f.grid.n_cells)]
    if off.size:
        raise StructuralError(f"cell {off[0]} is not one of the {f.grid.n_cells} cells")
    # no row reads u yet (ROADMAP item 13), but it must still fit the trials
    np.broadcast_to(np.asarray(u_val, dtype=float), cells.shape)
    mean = _mean(pts, wts)
    live = wts > 0
    lhs = _density(f, mean, cells)[0]
    atom_vals = np.full(live.shape, -np.inf)
    atom_vals[live] = _density(f, pts[live], cells[np.nonzero(live)[0]])[0]
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

    Row value: (sum_i w_i sum_a omega_ia f(x_i, u_i, xi_ia)^q)^(1/q), the
    Luxemburg norm of constant exponent q of the live atoms' values under
    the weights w_i omega_ia; one stacked root gives every q.  As q grows
    the rows approach the largest atom value max_i max_a f(x_i, u_i, xi_ia).
    u, mu and f must share one grid.
    """
    _require_same_grid(u, mu, f)
    q_values = _schedule(q_values, "q")
    cells, atoms = np.nonzero(mu.weights > 0)
    vals = np.array([eval_density(f, i, u.values[i], mu.points[i, a])
                     for i, a in zip(cells, atoms)])
    logw = np.log(mu.grid.weights[cells] * mu.weights[cells, atoms])
    q = np.asarray(q_values, dtype=float)
    base = logw + q[:, None] * _log0(vals)
    norms = luxemburg_root(base, np.broadcast_to(q[:, None], base.shape))
    fmax = float(vals.max())

    rows = [(qq, float(val), abs(float(val) - fmax)) for qq, val in zip(q_values, norms)]
    errs = [r[2] for r in rows]
    return Table(("q", "value", "limit_error"), rows,
                 {"error_eventually_decreasing": eventually_decreasing(errs)},
                 {"limit": fmax, "final_error": errs[-1]})
