"""Uniform 1-D and 2-D simplex meshes with node unknowns and cell energies.

Nodes carry the field values (boundary nodes pinned by Dirichlet data,
interior nodes free), cells carry the quadrature weights and gradients, so
the discrete energies are unconstrained functions of the interior nodes.
The start field, :func:`interpolate_boundary`, is the trace at every node
(in 1-D the linear blend of the end values), built once per mesh; the
mesh's overflow check reads the same array.  The cells are P1 simplices,
listed once in the table ``MeshSpec._simplices``: the 1-D segments, and
two right triangles per 2-D square (2 nx ny cells of weight hx hy / 2, at
their centroids).

The cell-gradient stencil (one gather from the table), its adjoint (one
scatter) and the cell average (the vertex mean) live here only:
:func:`gradient` wraps the stencil, the descent solver calls it and its
adjoint, and the stencil also takes a batch of node arrays, for the
solver's line-search trials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exponent_space import Grid, GridFunction, StructuralError, _cell_array, _index

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
        cells = tuple(_index(c, "cell count")
                      for c in (self.cells if np.ndim(self.cells) else (self.cells,)))
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
        # finite trace values can still overflow in the start's vertex
        # means or in the stencil's differences and divide
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_cell_average(self, self._start)).all() and np.isfinite(
                _cell_gradient(self, self._start)).all()
        if not finite:
            raise StructuralError(f"{self.boundary.kind} trace {self.boundary.params} overflows: "
                                  "its interpolant has a non-finite cell value or gradient")

    @cached_property
    def _start(self) -> np.ndarray:
        """Start values: the trace at every node (in 1-D the linear blend of the end values)."""
        axes = self.node_axes()
        if self.dimension == 1:
            g0, g1 = self.boundary.params
            t = axes[0] / self.extents[0]
            u = (1.0 - t) * g0 + t * g1
        else:
            points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
            u = self.boundary.value(points).reshape(self.node_shape)
        # finite wherever the trace is finite at the corners
        return _cell_array(u, self.node_shape, "start values")

    # cached: the stencil and its adjoint read the node shape and the table per call
    @cached_property
    def spacings(self) -> tuple:
        return tuple(e / c for e, c in zip(self.extents, self.cells))

    @cached_property
    def node_shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    @cached_property
    def _simplices(self) -> tuple:
        """The simplex table ``(vertices, legs, differences, boundary)``.

        ``vertices`` (cells, dimension + 1) index the flattened nodes: the
        right-angle vertex, then its neighbour along each axis, at the signed
        ``legs`` (cells, dimension), +-h.  Row k of ``differences`` takes a
        cell's vertex values to its difference along axis k.  ``boundary``
        indexes the Dirichlet nodes.  1-D cells are the segments; each 2-D
        square, in turn, splits along its rising diagonal into the triangles
        with right angles at its corners (1, 0) and (0, 1).
        """
        dim, nodes = self.dimension, np.arange(math.prod(self.node_shape)).reshape(self.node_shape)
        corners = np.array([[0]] if dim == 1 else [[1, 0], [0, 1]])
        # a cell's vertices in its square: the corner, then it flipped along each axis
        offsets = np.concatenate([corners[:, None], corners[:, None] ^ np.eye(dim, dtype=int)], 1)
        vertices = np.stack([nodes[tuple(slice(k, k + n) for k, n in zip(o, self.cells))]
                             for o in offsets.reshape(-1, dim)], axis=-1).reshape(-1, dim + 1)
        legs = np.tile((1 - 2 * corners) * np.array(self.spacings), (math.prod(self.cells), 1))
        edge = np.ones(self.node_shape, dtype=bool)
        edge[(slice(1, -1),) * dim] = False
        return vertices, legs, np.eye(dim + 1)[1:] - np.eye(dim + 1)[:1], np.flatnonzero(edge)

    def node_axes(self):
        return [np.linspace(0.0, e, c + 1) for e, c in zip(self.extents, self.cells)]

    def grid(self) -> Grid:
        """Cells at the simplex centroids, weighted by the simplex volumes; one Grid per mesh."""
        return self._grid

    @cached_property
    def _grid(self) -> Grid:
        vertices = self._simplices[0]
        # the mean vertex multi-index, scaled: in 1-D exactly (i + 0.5) h
        centres = np.stack(np.unravel_index(vertices, self.node_shape), axis=-1).mean(axis=1)
        volume = math.prod(self.spacings) / math.factorial(self.dimension)
        return Grid(self.dimension, centres * self.spacings, np.full(len(vertices), volume))


@dataclass(frozen=True)
class DiscreteField:
    """Read-only node values on a mesh; the solver keeps the boundary nodes at the trace."""

    mesh: MeshSpec
    node_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "node_values",
                           _cell_array(self.node_values, self.mesh.node_shape, "node values"))

    def cell_values(self) -> GridFunction:
        """Vertex means at the cell centroids."""
        return GridFunction(self.mesh.grid(), _cell_average(self.mesh, self.node_values))

    def scaled(self, c: float) -> "DiscreteField":
        return DiscreteField(self.mesh, c * self.node_values)


def _cell_average(mesh: MeshSpec, u: np.ndarray) -> np.ndarray:
    """Vertex means, shape (cells,), of raw node values on the mesh."""
    return u.ravel().take(mesh._simplices[0]).mean(axis=-1)


def _cell_gradient(mesh: MeshSpec, u: np.ndarray) -> np.ndarray:
    """Cell gradients, shape (..., cells, dimension), of raw node values on the mesh.

    Axes of ``u`` before the node axes are batch axes, carried through.
    Component k is the difference from the right-angle vertex to its
    neighbour along axis k over the signed leg: exact for the piecewise
    linear interpolant, and in 1-D the forward difference ``(u[i+1] - u[i]) / h``.
    """
    vertices, legs = mesh._simplices[:2]
    x = u.reshape(u.shape[:u.ndim - mesh.dimension] + (-1,)).take(vertices, axis=-1)
    return (x[..., 1:] - x[..., :1]) / legs


def _cell_gradient_adjoint(mesh: MeshSpec, coef: np.ndarray) -> np.ndarray:
    """Node gradient of sum_cells coef . xi, the adjoint of the stencil, zero on
    the Dirichlet boundary; in 1-D node i sums c[i-1] - c[i], c = coef / h."""
    vertices, legs, differences, boundary = mesh._simplices
    w = (coef / legs) @ differences
    g = np.bincount(vertices.ravel(), w.ravel(), minlength=math.prod(mesh.node_shape))
    g[boundary] = 0.0
    return g.reshape(mesh.node_shape)


def gradient(field: DiscreteField) -> GridFunction:
    """Cell-wise finite-difference gradient; exact for affine node data."""
    return GridFunction(field.mesh.grid(), _cell_gradient(field.mesh, field.node_values))


def interpolate_boundary(mesh: MeshSpec) -> DiscreteField:
    """Feasible initial field: the trace at every node, built once per mesh."""
    return DiscreteField(mesh, mesh._start)
