import re

import numpy as np
import pytest

from suplab.discretize import (
    BoundarySpec,
    DiscreteField,
    MeshSpec,
    _cell_average,
    _cell_gradient,
    _cell_gradient_adjoint,
    gradient,
    interpolate_boundary,
)
from suplab.energy import DensitySpec, eval_supremal
from suplab.exponent_space import Grid, StructuralError


def mesh_1d(cells=100, g0=0.0, g1=1.0, extent=1.0):
    return MeshSpec(1, (extent,), (cells,), BoundarySpec.endpoints(g0, g1))


def mesh_2d(cells=(8, 8), trace=None):
    trace = trace or BoundarySpec.affine(0.0, 1.0, 0.0)
    return MeshSpec(2, (1.0, 1.0), cells, trace)


class TestMeshSpec:
    def test_needs_two_cells(self):
        with pytest.raises(StructuralError):
            MeshSpec(1, (1.0,), (1,), BoundarySpec.endpoints(0, 1))

    def test_positive_extent(self):
        with pytest.raises(StructuralError):
            MeshSpec(1, (0.0,), (4,), BoundarySpec.endpoints(0, 1))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_finite_extent(self, bad):
        with pytest.raises(StructuralError, match=f"extents must be finite, got \\({bad},\\)"):
            MeshSpec(1, (bad,), (8,), BoundarySpec.endpoints(0, 1))
        with pytest.raises(StructuralError, match=f"extents must be finite, got \\(1.0, {bad}\\)"):
            MeshSpec(2, (1.0, bad), (4, 4), BoundarySpec.affine(0.0, 1.0, 0.0))

    @pytest.mark.parametrize("make", [
        lambda bad: BoundarySpec.endpoints(0.0, bad),
        lambda bad: BoundarySpec.affine(bad, 1.0),
        lambda bad: BoundarySpec.affine(0.0, bad, 1.0),
    ], ids=["endpoints", "affine_c0", "affine_slope"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_finite_trace(self, make, bad):
        with pytest.raises(StructuralError, match=f"trace values must be finite, got .*{bad}"):
            make(bad)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_overflowing_affine_trace_is_named(self, dimension):
        # the trace reaches 10 * 1e308 at the far corners; the refusal comes
        # without a NumPy warning, an error under this suite
        slopes = (1e308, 0.0)[:dimension]
        trace = BoundarySpec.affine(0.0, *slopes)
        with pytest.raises(StructuralError, match=r"affine trace \(0\.0, 1e\+308.*\) overflows: "
                                                  r"it reaches \[0\.0, .*inf\]"):
            MeshSpec(dimension, (10.0,) * dimension, (8,) * dimension, trace)

    @pytest.mark.parametrize("call, message", [
        (lambda: MeshSpec(3, (1.0,) * 3, (4,) * 3, BoundarySpec.affine(0.0, 1.0, 0.0, 0.0)),
         "mesh dimension must be 1 or 2"),
        (lambda: MeshSpec(1, (1.0, 1.0), (4,), BoundarySpec.endpoints(0, 1)),
         "extents and cells must match the dimension"),
        (lambda: MeshSpec(2, (1.0, 1.0), (4,), BoundarySpec.affine(0.0, 1.0, 0.0)),
         "extents and cells must match the dimension"),
        (lambda: BoundarySpec.endpoints(0.0, 1.0).value(np.zeros((2, 1))),
         "trace kind 'endpoints' has no pointwise values"),
    ], ids=["dimension", "extents_length", "cells_length", "endpoints_value"])
    def test_refusal(self, call, message):
        with pytest.raises(StructuralError, match=message):
            call()

    @pytest.mark.parametrize("dimension, extent, cells, trace", [
        # the stencil's divide: adjacent nodes 5e307 apart on h = 1/4
        (1, 1.0, 4, BoundarySpec.endpoints(-1e308, 1e308)),
        # the cell average: the last two nodes sum past the float range
        (1, 1000.0, 1000, BoundarySpec.endpoints(-1e308, 1e308)),
        # the 2-D vertex mean: a triangle's three node values sum past the
        # float range
        (2, 10.0, 4, BoundarySpec.affine(0.0, 1.7e307, 0.0)),
    ], ids=["stencil_1d", "cell_average_1d", "cell_average_2d"])
    def test_overflowing_interpolant_is_named(self, dimension, extent, cells, trace):
        # every trace value is finite; the refusal comes without a NumPy
        # warning, an error under this suite
        with pytest.raises(StructuralError, match=rf"{trace.kind} trace .* overflows: its "
                                                  "interpolant has a non-finite cell value"):
            MeshSpec(dimension, (extent,) * dimension, (cells,) * dimension, trace)

    def test_endpoint_trace_rejected_in_2d(self):
        with pytest.raises(StructuralError):
            MeshSpec(2, (1.0, 1.0), (4, 4), BoundarySpec.endpoints(0, 1))

    def test_affine_trace_needs_one_slope_per_axis(self):
        with pytest.raises(StructuralError, match="2 slopes for dimension 1"):
            MeshSpec(1, (1.0,), (4,), BoundarySpec.affine(0.0, 1.0, 2.0))

    @pytest.mark.parametrize("cells", [(8.7,), (np.float64(8.0),), ("8",), (True,)],
                             ids=["float", "numpy_float", "str", "bool"])
    def test_non_integer_cell_count_refused(self, cells):
        # int() would build 8 cells from 8.7, and True would be one cell
        with pytest.raises(StructuralError,
                           match=re.escape(f"cell count must be an integer, got {cells[0]!r}")):
            MeshSpec(1, (1.0,), cells, BoundarySpec.endpoints(0, 1))

    def test_integer_cell_counts_of_any_type(self):
        for cells in ((8,), [np.int64(8)], np.array([8]), 8):
            assert MeshSpec(1, (1.0,), cells, BoundarySpec.endpoints(0, 1)).cells == (8,)

    def test_grid_measure(self):
        mesh = mesh_2d((4, 5))
        assert mesh.grid().total_measure == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mesh", [mesh_1d(16), mesh_2d((3, 4))], ids=["1d", "2d"])
    def test_one_grid_per_mesh(self, mesh):
        # the same-grid checks compare grids by identity before their values
        assert mesh.grid() is mesh.grid()

    def test_2d_cells_are_triangle_pairs(self):
        # each square splits along its rising diagonal into two P1 triangles,
        # with cells at the centroids and weights of half a square
        mesh = MeshSpec(2, (1.0, 2.0), (3, 4), BoundarySpec.affine(0.0, 1.0, 0.0))
        grid = mesh.grid()
        assert grid.n_cells == 2 * 3 * 4
        assert np.allclose(grid.weights, (1.0 / 3.0) * (2.0 / 4.0) / 2.0, rtol=1e-15, atol=0)
        hx, hy = mesh.spacings
        assert np.allclose(grid.cells[:2], [[2 * hx / 3, hy / 3], [hx / 3, 2 * hy / 3]],
                           rtol=0, atol=1e-15)
        vertices, legs, _, boundary = mesh._simplices
        assert vertices.shape == (24, 3) and legs.shape == (24, 2)
        # the first square's triangles, right-angle vertex first, on nodes
        # numbered i * 5 + j: right angles at (1, 0) and at (0, 1)
        assert vertices[:2].tolist() == [[5, 0, 6], [1, 6, 0]]
        assert legs[:2].tolist() == [[-hx, hy], [hx, -hy]]
        # every node lies on the boundary except the (3 - 1) * (4 - 1) interior ones
        assert boundary.size == 4 * 5 - 2 * 3


class TestGradient:
    @pytest.mark.parametrize("mesh", [
        MeshSpec(1, (1.3,), (7,), BoundarySpec.endpoints(0.0, 1.0)),
        MeshSpec(2, (1.0, 2.0), (3, 4), BoundarySpec.affine(0.0, 1.0, 0.0)),
    ], ids=["1d", "2d"])
    def test_adjoint_is_the_transpose_on_interior_nodes(self, mesh):
        # <D u, c> = <u, D* c> for u vanishing on the boundary
        rng = np.random.default_rng(5)
        u = np.zeros(mesh.node_shape)
        inner = (slice(1, -1),) * mesh.dimension
        u[inner] = rng.normal(size=u[inner].shape)
        c = rng.normal(size=(mesh.grid().n_cells, mesh.dimension))
        lhs = np.sum(_cell_gradient(mesh, u) * c)
        rhs = np.sum(u * _cell_gradient_adjoint(mesh, c))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @pytest.mark.parametrize("cells, extent", [(200, 1.0), (7, 1.3), (1000, 1000.0)])
    def test_1d_stencils_are_the_slices(self, cells, extent):
        # the simplex gather and scatter repeat the 1-D slice stencils bit for
        # bit, which keeps every 1-D result unchanged
        mesh = mesh_1d(cells, extent=extent)
        (h,) = mesh.spacings
        rng = np.random.default_rng(7)
        u = rng.normal(size=(3, cells + 1))
        assert np.array_equal(_cell_gradient(mesh, u)[..., 0], (u[..., 1:] - u[..., :-1]) / h)
        assert np.array_equal(_cell_average(mesh, u[0]), 0.5 * (u[0, 1:] + u[0, :-1]))
        coef = rng.normal(size=(cells, 1))
        c = coef[:, 0] / h
        g = _cell_gradient_adjoint(mesh, coef)
        assert np.array_equal(g[1:-1], c[:-1] - c[1:])
        assert g[0] == g[-1] == 0.0
        ref = Grid.uniform_1d(0.0, extent, cells)
        assert np.array_equal(mesh.grid().cells, ref.cells)
        assert np.array_equal(mesh.grid().weights, ref.weights)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_checkerboard_is_not_a_near_kernel(self, n):
        # the interior +-1 checkerboard: its Rayleigh quotient
        # sum_T w_T |grad c_T|^2 / sum c^2 stays bounded away from zero (the
        # 5-point Laplacian's is ~7.4-7.9); a gradient that averages a
        # square's edge differences cannot see it (0.53, 0.26, 0.13)
        mesh = mesh_2d((n, n))
        i, j = np.indices(mesh.node_shape)
        c = np.where((i + j) % 2 == 0, 1.0, -1.0)
        c[[0, -1], :] = c[:, [0, -1]] = 0.0
        xi = _cell_gradient(mesh, c)
        energy = np.sum(mesh.grid().weights * np.sum(xi * xi, axis=-1))
        assert energy / np.sum(c * c) >= 1.0

    def test_affine_exact_1d(self):
        mesh = mesh_1d(37, g0=0.25, g1=2.0)
        u = interpolate_boundary(mesh)
        g = gradient(u)
        assert np.allclose(g.values, 1.75, rtol=0, atol=1e-13)

    def test_quadratic_midpoint_identity(self):
        # (x_{i+1}^2 - x_i^2)/h = x_i + x_{i+1} = 2 * midpoint
        mesh = mesh_1d(100)
        x = np.linspace(0.0, 1.0, 101)
        u = DiscreteField(mesh, x * x)
        g = gradient(u)
        centers = mesh.grid().cells[:, 0]
        assert np.allclose(g.values, 2.0 * centers, rtol=0, atol=1e-13)

    def test_affine_exact_2d(self):
        mesh = mesh_2d((6, 9), BoundarySpec.affine(0.5, 1.0, 2.0))
        u = interpolate_boundary(mesh)
        g = gradient(u)
        assert np.allclose(g.values[:, 0], 1.0, atol=1e-12)
        assert np.allclose(g.values[:, 1], 2.0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        mesh = mesh_2d((5, 7))
        u = DiscreteField(mesh, rng.normal(size=mesh.node_shape))
        v = DiscreteField(mesh, rng.normal(size=mesh.node_shape))
        a, b = 2.5, -1.25
        combo = DiscreteField(mesh, a * u.node_values + b * v.node_values)
        lhs = gradient(combo).values
        rhs = a * gradient(u).values + b * gradient(v).values
        assert np.array_equal(lhs, rhs) or np.allclose(lhs, rhs, atol=1e-14)

    @pytest.mark.parametrize("mesh", [mesh_1d(23), mesh_2d((5, 7))], ids=["1d", "2d"])
    def test_batch_equals_one_call_per_array(self, mesh):
        # the line search's trial batch must see exactly the unbatched stencil
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(3,) + mesh.node_shape)
        out = _cell_gradient(mesh, batch)
        n_cells = mesh.grid().n_cells
        assert out.shape == (3, n_cells, mesh.dimension)
        for k in range(3):
            one = _cell_gradient(mesh, batch[k])
            assert one.shape == (n_cells, mesh.dimension)
            assert np.array_equal(out[k], one)
        # rows are cells in grid order, columns the gradient components
        field = gradient(DiscreteField(mesh, batch[1]))
        assert np.array_equal(out[1].reshape(field.values.shape), field.values)


class TestInterpolateBoundary:
    def test_identity_trace(self):
        mesh = mesh_1d(10, 0.0, 1.0)
        u = interpolate_boundary(mesh)
        assert np.allclose(u.node_values, np.linspace(0, 1, 11), atol=1e-15)

    def test_zero_trace(self):
        mesh = mesh_1d(10, 0.0, 0.0)
        assert np.allclose(interpolate_boundary(mesh).node_values, 0.0)

    def test_affine_trace_2d_reproduced(self):
        mesh = mesh_2d((7, 5), BoundarySpec.affine(0.0, 1.0, 0.0))
        u = interpolate_boundary(mesh)
        X = np.linspace(0, 1, 8)[:, None] * np.ones((1, 6))
        assert np.allclose(u.node_values, X, atol=1e-14)

    @pytest.mark.parametrize("cells, extents, trace", [
        ((6, 6), (1.0, 1.0), BoundarySpec.affine(0.0, 1.0, 0.5)),
        ((7, 5), (2.0, 0.3), BoundarySpec.affine(-1.25, 3.0, -0.7)),
        ((2, 9), (1e-3, 5.0), BoundarySpec.affine(1e3, 0.1, 7.0)),
        ((13, 11), (3.7, 1.9), BoundarySpec.affine(0.3, -2.2, 1.1)),
    ], ids=["x_plus_half_y_6x6", "7x5", "2x9_thin", "13x11"])
    def test_2d_start_is_the_trace_at_every_node(self, cells, extents, trace):
        # a transfinite patch of the trace would round it differently, on
        # the boundary nodes too, where the descent pins the start's values
        mesh = MeshSpec(2, extents, cells, trace)
        nodes = np.stack(np.meshgrid(*mesh.node_axes(), indexing="ij"), axis=-1).reshape(-1, 2)
        u = interpolate_boundary(mesh).node_values
        assert np.array_equal(u.ravel(), mesh.boundary.value(nodes))

    @pytest.mark.parametrize("mesh", [mesh_1d(9), mesh_2d((4, 3))], ids=["1d", "2d"])
    def test_start_is_built_once_per_mesh(self, mesh, monkeypatch):
        # the overflow check built the start; every field after it copies that array
        def refused(*args):
            raise AssertionError("the start was built again")

        monkeypatch.setattr(MeshSpec, "node_axes", refused)
        for _ in range(2):
            assert np.array_equal(interpolate_boundary(mesh).node_values, mesh._start)

    def test_affine_trace_supremal_is_slope(self):
        mesh = mesh_2d((6, 6), BoundarySpec.affine(0.0, 3.0, 4.0))
        u = interpolate_boundary(mesh)
        f = DensitySpec.weighted_norm(mesh.grid(), 1.0)
        assert eval_supremal(f, u.cell_values(), gradient(u)) == pytest.approx(5.0, rel=1e-12)


class TestDiscreteField:
    def test_cell_values_average_corners(self):
        mesh = mesh_1d(4, 0.0, 1.0)
        u = interpolate_boundary(mesh)
        assert np.allclose(u.cell_values().values, mesh.grid().cells[:, 0], atol=1e-15)

    def test_shape_mismatch(self):
        mesh = mesh_1d(4)
        with pytest.raises(StructuralError, match=r"node values of shape \(3,\): need \(5,\)"):
            DiscreteField(mesh, np.zeros(3))

    def test_non_finite_node_refused(self):
        # accepted, a NaN node would fail only later, as non-finite grid
        # function values, naming neither the field nor a warm start
        mesh = mesh_1d(4)
        nodes = np.array(interpolate_boundary(mesh).node_values)
        nodes[2] = np.nan
        with pytest.raises(StructuralError,
                           match=r"node values must be finite, got nan at \(2,\) of shape \(5,\)"):
            DiscreteField(mesh, nodes)
