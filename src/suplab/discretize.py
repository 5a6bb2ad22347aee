"""Uniform 1-D and 2-D meshes with node unknowns and cell energies.

Nodes carry the field values (boundary nodes pinned by Dirichlet data,
interior nodes free), cells carry the quadrature weights and gradients, so
the discrete energies are unconstrained functions of the interior nodes.

The cell-gradient stencil and its adjoint on raw node arrays live here only:
:func:`gradient` wraps the stencil, and the descent solver calls both; the
stencil also takes a batch of node arrays, for the solver's line-search
trials.
"""

from __future__ import annotations

import itertools
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
    """Dirichlet trace: interval endpoint values, or an affine function of position.

    A 1-D mesh stores an affine trace as the endpoint values it takes.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if not np.all(np.isfinite(self.params)):
            raise StructuralError(f"{self.kind} trace values must be finite, got {self.params}")

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
        if not np.all(np.isfinite(extents)):
            raise StructuralError(f"extents must be finite, got {extents}")
        if any(e <= 0 for e in extents):
            raise StructuralError("extents must be positive")
        if any(c < 2 for c in cells):
            raise StructuralError("need at least two cells per axis")
        if self.boundary.kind == "endpoints" and self.dimension != 1:
            raise StructuralError("endpoint traces only make sense in 1-D")
        if self.boundary.kind == "affine":
            # an affine trace takes its extremes at the corners of the box
            corners = np.array(list(itertools.product(*((0.0, e) for e in extents))))
            with np.errstate(over="ignore", invalid="ignore"):
                values = self.boundary.value(corners)
            if not np.all(np.isfinite(values)):
                raise StructuralError(f"affine trace {self.boundary.params} overflows: it "
                                      f"reaches {values.tolist()} at the corners")
            if self.dimension == 1:
                # a 1-D trace is its two end values
                object.__setattr__(self, "boundary", BoundarySpec.endpoints(*values))
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "cells", cells)
        # finite trace values can still overflow in the interpolant's cell
        # averages or in the stencil's sums and divide
        with np.errstate(over="ignore", invalid="ignore"):
            u = interpolate_boundary(self).node_values
            finite = np.isfinite(_cell_average(self, u)).all() and np.isfinite(
                _cell_gradient(self, u)).all()
        if not finite:
            raise StructuralError(f"{self.boundary.kind} trace {self.boundary.params} overflows: "
                                  "its interpolant has a non-finite cell value or gradient")

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
        """Trace values on all nodes of a 2-D mesh (interior entries are filler)."""
        X, Y = np.meshgrid(*self.node_axes(), indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return self.boundary.value(pts).reshape(self.node_shape)


@dataclass(frozen=True)
class DiscreteField:
    """Read-only node values on a mesh; the solver keeps the boundary nodes at the trace."""

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

    def cell_values(self) -> GridFunction:
        """Corner averages on the cell centers."""
        return GridFunction(self.mesh.grid(), _cell_average(self.mesh, self.node_values))

    def scaled(self, c: float) -> "DiscreteField":
        return DiscreteField(self.mesh, c * self.node_values)


def _cell_average(mesh: MeshSpec, u: np.ndarray) -> np.ndarray:
    """Corner averages, shape (cells,), of raw node values on the mesh."""
    if mesh.dimension == 1:
        return 0.5 * (u[1:] + u[:-1])
    return (0.25 * (u[1:, 1:] + u[1:, :-1] + u[:-1, 1:] + u[:-1, :-1])).ravel()


def _cell_gradient(mesh: MeshSpec, u: np.ndarray) -> np.ndarray:
    """Cell gradients, shape (..., cells, dimension), of raw node values on the mesh.

    Axes of ``u`` before the node axes are batch axes, carried through.
    1-D cells use the forward difference across the cell; 2-D cells average
    the two edge differences per axis (the bilinear-cell gradient).
    """
    if mesh.dimension == 1:
        (h,) = mesh.spacings
        return ((u[..., 1:] - u[..., :-1]) / h)[..., None]
    hx, hy = mesh.spacings
    dx = (u[..., 1:, :-1] - u[..., :-1, :-1] + u[..., 1:, 1:] - u[..., :-1, 1:]) / (2.0 * hx)
    dy = (u[..., :-1, 1:] - u[..., :-1, :-1] + u[..., 1:, 1:] - u[..., 1:, :-1]) / (2.0 * hy)
    cells = u.shape[:-2] + (-1,)
    return np.stack([dx.reshape(cells), dy.reshape(cells)], axis=-1)


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


def interpolate_boundary(mesh: MeshSpec) -> DiscreteField:
    """Feasible initial field: linear blend of the trace (transfinite in 2-D)."""
    axes = mesh.node_axes()
    if mesh.dimension == 1:
        g0, g1 = mesh.boundary.params
        t = axes[0] / mesh.extents[0]
        return DiscreteField(mesh, (1.0 - t) * g0 + t * g1)

    tr = mesh.boundary_node_values()
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
