"""Uniform 1-D and 2-D meshes with node unknowns and cell energies.

Nodes carry the field values (boundary nodes pinned by Dirichlet data,
interior nodes free), cells carry the quadrature weights and gradients, so
the discrete energies are unconstrained functions of the interior nodes.

The cell-gradient stencil and its adjoint on raw node arrays live here only:
:func:`gradient` wraps the stencil, and the descent solver calls both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exponent_space import Grid, GridFunction, StructuralError

__all__ = [
    "BoundarySpec",
    "MeshSpec",
    "DiscreteField",
    "gradient",
    "interpolate_boundary",
]


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet trace: interval endpoint values, or an affine function of position."""

    kind: str
    params: tuple

    @classmethod
    def endpoints(cls, g0: float, g1: float) -> "BoundarySpec":
        return cls("endpoints", (float(g0), float(g1)))

    @classmethod
    def affine(cls, c0: float, *slopes: float) -> "BoundarySpec":
        return cls("affine", (float(c0),) + tuple(float(s) for s in slopes))

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "affine":
            c0, slopes = self.params[0], np.asarray(self.params[1:], dtype=float)
            if slopes.size != pts.shape[1]:
                raise StructuralError(
                    f"affine trace has {slopes.size} slopes for dimension {pts.shape[1]}"
                )
            return c0 + pts @ slopes
        raise StructuralError(f"trace kind {self.kind!r} has no pointwise values")


@dataclass(frozen=True)
class MeshSpec:
    """Axis-aligned uniform mesh over (0, extent) per axis with Dirichlet data."""

    dimension: int
    extents: tuple
    cells: tuple
    boundary: BoundarySpec

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise StructuralError("mesh dimension must be 1 or 2")
        extents = tuple(float(e) for e in np.atleast_1d(self.extents))
        cells = tuple(int(c) for c in np.atleast_1d(self.cells))
        if len(extents) != self.dimension or len(cells) != self.dimension:
            raise StructuralError("extents and cells must match the dimension")
        if any(e <= 0 for e in extents):
            raise StructuralError("extents must be positive")
        if any(c < 2 for c in cells):
            raise StructuralError("need at least two cells per axis")
        if self.boundary.kind == "endpoints" and self.dimension != 1:
            raise StructuralError("endpoint traces only make sense in 1-D")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "cells", cells)

    # cached: the solver's inner loop reads these on every stencil call
    @cached_property
    def spacings(self) -> tuple:
        return tuple(e / c for e, c in zip(self.extents, self.cells))

    @cached_property
    def node_shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    def node_axes(self):
        return [np.linspace(0.0, e, c + 1) for e, c in zip(self.extents, self.cells)]

    def grid(self) -> Grid:
        if self.dimension == 1:
            return Grid.uniform_1d(0.0, self.extents[0], self.cells[0])
        return Grid.uniform_2d(
            (0.0, self.extents[0]), (0.0, self.extents[1]), self.cells
        )

    def boundary_node_values(self) -> np.ndarray:
        """Trace values on all nodes (interior entries are meaningless filler)."""
        axes = self.node_axes()
        if self.boundary.kind == "endpoints":
            g0, g1 = self.boundary.params
            out = np.empty(self.node_shape)
            out[0], out[-1] = g0, g1
            out[1:-1] = 0.0
            return out
        if self.dimension == 1:
            return self.boundary.value(axes[0][:, None])
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return self.boundary.value(pts).reshape(self.node_shape)


@dataclass(frozen=True)
class DiscreteField:
    """Node values on a mesh; boundary nodes are fixed, updates go through with_interior."""

    mesh: MeshSpec
    node_values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.node_values, dtype=float)
        if vals.shape != self.mesh.node_shape:
            raise StructuralError(
                f"node values of shape {vals.shape} on mesh with nodes {self.mesh.node_shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "node_values", vals)

    def interior(self) -> np.ndarray:
        if self.mesh.dimension == 1:
            return np.array(self.node_values[1:-1])
        return np.array(self.node_values[1:-1, 1:-1]).ravel()

    def with_interior(self, vec: np.ndarray) -> "DiscreteField":
        vals = np.array(self.node_values)
        if self.mesh.dimension == 1:
            vals[1:-1] = vec
        else:
            nx, ny = self.mesh.cells
            vals[1:-1, 1:-1] = np.asarray(vec, dtype=float).reshape(nx - 1, ny - 1)
        return DiscreteField(self.mesh, vals)

    def cell_values(self) -> GridFunction:
        """Corner averages on the cell centers."""
        u = self.node_values
        if self.mesh.dimension == 1:
            vals = 0.5 * (u[1:] + u[:-1])
        else:
            vals = 0.25 * (u[1:, 1:] + u[1:, :-1] + u[:-1, 1:] + u[:-1, :-1])
            vals = vals.ravel()
        return GridFunction(self.mesh.grid(), vals)

    def scaled(self, c: float) -> "DiscreteField":
        return DiscreteField(self.mesh, c * self.node_values)


def _cell_gradient(mesh: MeshSpec, u: np.ndarray) -> np.ndarray:
    """Cell gradients, shape (cells, dimension), of raw node values on the mesh.

    1-D cells use the forward difference across the cell; 2-D cells average
    the two edge differences per axis (the bilinear-cell gradient).
    """
    if mesh.dimension == 1:
        (h,) = mesh.spacings
        return ((u[1:] - u[:-1]) / h)[:, None]
    hx, hy = mesh.spacings
    dx = (u[1:, :-1] - u[:-1, :-1] + u[1:, 1:] - u[:-1, 1:]) / (2.0 * hx)
    dy = (u[:-1, 1:] - u[:-1, :-1] + u[1:, 1:] - u[1:, :-1]) / (2.0 * hy)
    return np.column_stack([dx.ravel(), dy.ravel()])


def _cell_gradient_adjoint(mesh: MeshSpec, coef: np.ndarray) -> np.ndarray:
    """Node gradient of sum_cells coef . xi, the adjoint of the stencil;
    the entries of the fixed Dirichlet boundary nodes are zero."""
    g = np.zeros(mesh.node_shape)
    if mesh.dimension == 1:
        (h,) = mesh.spacings
        c = coef[:, 0] / h
        g[1:] += c
        g[:-1] -= c
        g[0] = g[-1] = 0.0
        return g
    hx, hy = mesh.spacings
    nx, ny = mesh.cells
    cx = coef[:, 0].reshape(nx, ny) / (2.0 * hx)
    cy = coef[:, 1].reshape(nx, ny) / (2.0 * hy)
    g[1:, :-1] += cx
    g[1:, 1:] += cx
    g[:-1, :-1] -= cx
    g[:-1, 1:] -= cx
    g[:-1, 1:] += cy
    g[1:, 1:] += cy
    g[:-1, :-1] -= cy
    g[1:, :-1] -= cy
    g[0, :] = g[-1, :] = 0.0
    g[:, 0] = g[:, -1] = 0.0
    return g


def gradient(field: DiscreteField) -> GridFunction:
    """Cell-wise finite-difference gradient; exact for affine node data."""
    return GridFunction(field.mesh.grid(), _cell_gradient(field.mesh, field.node_values))


def interpolate_boundary(mesh: MeshSpec, g: BoundarySpec | None = None) -> DiscreteField:
    """Feasible initial field: linear blend of the trace (transfinite in 2-D)."""
    g = g or mesh.boundary
    axes = mesh.node_axes()
    if mesh.dimension == 1:
        if g.kind == "endpoints":
            g0, g1 = g.params
        else:
            g0 = float(g.value(np.array([[0.0]])))
            g1 = float(g.value(np.array([[mesh.extents[0]]])))
        t = axes[0] / mesh.extents[0]
        return DiscreteField(mesh, (1.0 - t) * g0 + t * g1)

    spec = MeshSpec(mesh.dimension, mesh.extents, mesh.cells, g)
    tr = spec.boundary_node_values()
    s = (axes[0] / mesh.extents[0])[:, None]
    t = (axes[1] / mesh.extents[1])[None, :]
    u = (
        (1 - s) * tr[0, :][None, :]
        + s * tr[-1, :][None, :]
        + (1 - t) * tr[:, 0][:, None]
        + t * tr[:, -1][:, None]
        - (
            (1 - s) * (1 - t) * tr[0, 0]
            + s * (1 - t) * tr[-1, 0]
            + (1 - s) * t * tr[0, -1]
            + s * t * tr[-1, -1]
        )
    )
    return DiscreteField(mesh, u)
