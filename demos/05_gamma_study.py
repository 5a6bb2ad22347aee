#!/usr/bin/env python3
"""The two limit theorems at work: convergence of minima and the 0/infinity split.

First the norm-form study: minima of the variable-exponent norms of
a(x)|u'| converge to the supremal value 2/3, for a flat exponent profile
and for the oscillating profile 2 + sin(2 pi x) alike.

Then the integral-form dichotomy on fixed probes: the exponent-normalized
power integral collapses to zero when the probe's supremal value is below
one, and blows up when it is above one.
"""

from suplab import BoundarySpec, DensitySpec, MeshSpec, StudyConfig
from suplab.gamma_lab import run_integral_dichotomy_study, run_norm_gamma_study

mesh = MeshSpec(1, (1.0,), (64,), BoundarySpec.endpoints(0.0, 1.0))
density = DensitySpec.weighted_norm(mesh.grid(), lambda x: 1.0 / (1.0 + x), alpha=0.5)

for profile in ("constant", "sine"):
    cfg = StudyConfig(kind="norm_gamma", density=density, mesh=mesh,
                      profile=profile, n_schedule=(4, 8, 16, 32))
    res = run_norm_gamma_study(cfg)
    print(f"norm-form minima, {profile} exponent profile (oracle {res.meta['oracle']:.6f}):")
    print(f"  {'n':>4s}  {'p-':>7s}  {'p+':>7s}  {'minimum':>12s}  {'rel error':>10s}")
    for n, pm, pp, val, oracle, err in res.rows:
        print(f"  {n:4d}  {pm:7.2f}  {pp:7.2f}  {val:12.8f}  {err:10.2e}")
    print(f"  verdicts: {res.verdicts}")
    print()

unit = DensitySpec.weighted_norm(mesh.grid(), 1.0)
for scale, schedule in ((0.5, (5, 10, 20, 30, 40, 50)), (2.0, (5, 10, 15, 20, 25, 30))):
    cfg = StudyConfig(kind="integral_dichotomy", density=unit, mesh=mesh,
                      profile="sine", n_schedule=schedule, probe_scale=scale)
    res = run_integral_dichotomy_study(cfg)
    print(f"dichotomy, probe scale {scale} (sup = {res.meta['sup']:.3f}, {res.meta['branch']}):")
    for n, pm, pp, val, oracle, err in res.rows:
        print(f"  n = {n:3d}:  integral = {val:.6e}")
    print(f"  verdicts: {res.verdicts}")
    print()
