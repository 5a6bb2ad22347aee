#!/usr/bin/env python3
"""Per-cell probability measures over gradients and their power-mean limits.

A measure is one zero-padded array pair, points (cells, m, k) and weights
(cells, m): a batch of Jensen trials, one per cell.  Two facts are shown.
First the Jensen bound: for a level convex density, the value at the mean
gradient never beats the worst atom, and the ``unit_sphere_distance``
family, whose sublevel sets are annuli, breaks the bound.  Second the q-limit: mixed q-power means over cells
and atoms collapse onto the single largest atom value as q grows.
"""

import numpy as np

from suplab import DensitySpec, DiscreteYoungMeasure, Grid, GridFunction, barycenter, jensen_check
from suplab.measure_tools import young_q_limit

one_cell = Grid(1, np.array([[0.5]]), np.array([1.0]))

# barycenter of a weighted pair of atoms
mu = DiscreteYoungMeasure(one_cell, np.array([[[1.0], [3.0]]]), np.array([[0.25, 0.75]]))
print("atoms (1, w=1/4), (3, w=3/4) -> barycenter", barycenter(mu).values.ravel()[0])

# Jensen for the scaled norm density, on the measure's arrays: f(mean) = 5 <= 6
f = DensitySpec.weighted_norm(one_cell, 2.0)
rep = jensen_check(f, np.arange(1), np.zeros(1), (mu.points, mu.weights))
w = rep.checks[0].witness
print(f"Jensen for f = 2|xi|: f(mean) = {w['lhs']} <= worst atom {w['rhs']}  -> {rep.passed}")

# the unit_sphere_distance row f = ||xi| - 1| has annular sublevel sets: its
# row claims no level convexity, and Jensen fails
annulus = DensitySpec(one_cell, "unit_sphere_distance")
rep = jensen_check(annulus, 0, 0.0, (np.array([[1.5], [-1.5]]), np.array([0.5, 0.5])))
w = rep.checks[0].witness
print(f"annulus probe: f(mean) = {w['lhs']} > worst atom {w['rhs']}  -> passed = {rep.passed}")
print()

# the q-limit: (1/2 + 3^q/2)^(1/q) marches to 3
f = DensitySpec.weighted_norm(one_cell, 1.0)
u = GridFunction.constant(one_cell, 0.0)
mu = DiscreteYoungMeasure(one_cell, np.array([[[1.0], [3.0]]]), np.array([[0.5, 0.5]]))
table = young_q_limit(f, u, mu)
print("mixed power means over atoms (f-values 1 and 3):")
print(f"  {'q':>5s}  {'value':>12s}  {'gap to 3':>10s}")
for q, val, err in table.rows:
    print(f"  {q:5d}  {val:12.8f}  {err:10.2e}")
