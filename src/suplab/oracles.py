"""Closed-form limits the convergence studies are checked against.

* 1-D: the minimum of sup a(x) |u'| under endpoint data g0, g1 is the
  weighted Lipschitz value |g1 - g0| / integral of 1/a (McShane 1934),
  attained by slopes proportional to 1/a, the equalizing profile.
* 2-D: affine data with a constant weight, where the affine extension is
  optimal and the value is the weight times the slope magnitude.

A 1-D mesh stores its trace as end values, so the oracles read them from
``mesh.boundary.params``; a 2-D mesh only takes affine traces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .discretize import DiscreteField, interpolate_boundary
from .exponent_space import GridFunction, PreconditionError

if TYPE_CHECKING:
    from .gamma_lab import StudyConfig

__all__ = [
    "supremal_oracle_1d",
    "oracle_minimizer_1d",
    "study_oracle",
    "limit_minimizer",
]


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


def _weight_field(cfg: StudyConfig) -> GridFunction:
    if cfg.density.family != "weighted_norm":
        raise PreconditionError(
            "closed-form oracles need the weighted-norm density family"
        )
    return GridFunction(cfg.mesh.grid(), cfg.density.coefficients["a"])


def study_oracle(cfg: StudyConfig) -> float:
    """Closed-form limiting minimum for the configured problem.

    1-D: :func:`supremal_oracle_1d` of the weight and the end values.
    2-D: the weight times the slope magnitude; the weight must be constant.
    """
    a = _weight_field(cfg)
    if cfg.mesh.dimension == 1:
        g0, g1 = cfg.mesh.boundary.params
        return supremal_oracle_1d(a, g0, g1)
    if np.ptp(a.values) > 1e-12 * max(1.0, float(np.max(np.abs(a.values)))):
        raise PreconditionError("2-D oracle needs a constant weight")
    slopes = np.asarray(cfg.mesh.boundary.params[1:], dtype=float)
    return float(a.values[0]) * float(np.linalg.norm(slopes))


def limit_minimizer(cfg: StudyConfig) -> DiscreteField:
    """The limiting optimal field: equalizing profile in 1-D, affine extension in 2-D."""
    if cfg.mesh.dimension == 1:
        a = _weight_field(cfg)
        g0, g1 = cfg.mesh.boundary.params
        return DiscreteField(cfg.mesh, oracle_minimizer_1d(a, g0, g1))
    return interpolate_boundary(cfg.mesh)
