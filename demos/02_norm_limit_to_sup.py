#!/usr/bin/env python3
"""Norms with growing exponents converge to the supremum.

For any bounded u, the variable-exponent norms with p_n = n * profile(x)
approach the essential supremum of |u| as n grows, whatever the profile: every
p_n has the same ratio p_n^+ / p_n^- = max(profile) / min(profile), the
sequence's beta.  On a grid every cell has positive mass, so the essential
supremum is the plain max.
"""

import numpy as np

from suplab import ExponentSequence, Grid, GridFunction, norm_limit_study

grid = Grid.uniform_1d(0.0, 1.0, 32)
x = grid.cells[:, 0]
u = GridFunction(grid, x)  # the identity profile; sup = last midpoint
schedule = [4, 8, 16, 32, 64, 128, 200]

for label, profile in (
    ("flat profile p_n = n", np.ones(32)),
    ("sine profile p_n = n (2 + sin 2 pi x)", 2.0 + np.sin(2 * np.pi * x)),
):
    seq = ExponentSequence(grid, profile)
    table = norm_limit_study(u, seq, schedule)
    print(f"{label}   (beta = {seq.beta:.4f}, sup |u| = {table.meta['sup']:.6f})")
    print(f"  {'n':>4s}  {'norm':>12s}  {'error':>10s}")
    for n, _, _, norm, _, err in table.rows:
        print(f"  {n:4d}  {norm:12.8f}  {err:10.2e}")
    print(f"  error eventually decreasing: {table.verdicts['error_eventually_decreasing']}")
    print()
