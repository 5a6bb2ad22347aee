import numpy as np
import pytest

from suplab.discretize import BoundarySpec, DiscreteField, MeshSpec, interpolate_boundary
from suplab.energy import DensitySpec
from suplab.exponent_space import ExponentField, GridFunction, PreconditionError, StructuralError
from suplab.solve import (
    SolverSettings,
    minimize_power,
    oracle_minimizer_1d,
    supremal_oracle_1d,
)

from _oracles import el_slopes_constant_q, quadratic_energy_solve_2d


def mesh_1d(cells, g0=0.0, g1=1.0):
    return MeshSpec(1, (1.0,), (cells,), BoundarySpec.endpoints(g0, g1))


def inverse_weight(grid):
    return DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x), alpha=0.5)


class TestSupremalOracle:
    def test_unit_weight(self):
        grid = mesh_1d(16).grid()
        a = GridFunction.constant(grid, 1.0)
        assert supremal_oracle_1d(a, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_weight(self):
        grid = mesh_1d(200).grid()
        a = GridFunction.from_callable(grid, lambda x: 1.0 / (1.0 + x))
        # integral of (1+x) over (0,1) is 3/2, midpoint-exact for a linear integrand
        assert supremal_oracle_1d(a, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_constant_two(self):
        grid = mesh_1d(16).grid()
        a = GridFunction.constant(grid, 2.0)
        assert supremal_oracle_1d(a, 0.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_positive_weight_required(self):
        grid = mesh_1d(8).grid()
        a = GridFunction(grid, np.linspace(-0.1, 1.0, 8))
        with pytest.raises(PreconditionError):
            supremal_oracle_1d(a, 0.0, 1.0)

    def test_minimizer_hits_boundary_data(self):
        grid = mesh_1d(50).grid()
        a = GridFunction.from_callable(grid, lambda x: 1.0 / (1.0 + x))
        nodes = oracle_minimizer_1d(a, 0.25, 2.0)
        assert nodes[0] == pytest.approx(0.25)
        assert nodes[-1] == pytest.approx(2.0, rel=1e-12)
        # the equalizing profile has a |u'| constant at the oracle level
        du = np.diff(nodes) / grid.weights
        vals = a.values * du
        assert np.allclose(vals, supremal_oracle_1d(a, 0.25, 2.0), rtol=1e-10)


class TestNormMinimization:
    def test_affine_data_is_already_optimal(self):
        mesh = mesh_1d(32)
        grid = mesh.grid()
        f = DensitySpec.weighted_norm(grid, 1.0)
        p = ExponentField.constant(grid, 6.0)
        res = minimize_power("norm", f, p, mesh)
        assert res.objective == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(res.field.node_values, np.linspace(0, 1, 33), atol=1e-9)

    def test_recovers_affine_from_perturbed_start(self):
        mesh = mesh_1d(32)
        grid = mesh.grid()
        f = DensitySpec.weighted_norm(grid, 1.0)
        p = ExponentField.constant(grid, 4.0)
        rng = np.random.default_rng(8)
        start = interpolate_boundary(mesh)
        nodes = np.array(start.node_values)
        nodes[1:-1] += 0.1 * rng.normal(size=31)
        res = minimize_power("norm", f, p, mesh, init=DiscreteField(mesh, nodes))
        assert res.objective == pytest.approx(1.0, rel=1e-6)
        assert np.max(np.abs(res.field.node_values - np.linspace(0, 1, 33))) < 1e-3

    def test_matches_closed_form_minimizer(self):
        mesh = mesh_1d(200)
        grid = mesh.grid()
        f = inverse_weight(grid)
        q = 8.0
        p = ExponentField.constant(grid, q)
        res = minimize_power("norm", f, p, mesh)
        slopes = el_slopes_constant_q(f.coefficients["a"], grid.weights, q, 1.0)
        ref = np.concatenate([[0.0], np.cumsum(slopes * grid.weights)])
        assert not res.stagnated or res.iterations > 0
        assert np.max(np.abs(res.field.node_values - ref)) < 1e-2

    def test_variable_exponent_path(self):
        mesh = mesh_1d(48)
        grid = mesh.grid()
        x = grid.cells[:, 0]
        f = inverse_weight(grid)
        p = ExponentField(grid, 16.0 * (2.0 + np.sin(2 * np.pi * x)))
        res = minimize_power("norm", f, p, mesh)
        # the minimum is within a few percent of the supremal oracle already at n = 16
        assert abs(res.objective - 2.0 / 3.0) < 0.05

    def test_2d_affine_extension_optimal(self):
        mesh = MeshSpec(2, (1.0, 1.0), (10, 10), BoundarySpec.affine(0.0, 1.0, 0.0))
        grid = mesh.grid()
        f = DensitySpec.weighted_norm(grid, 1.0)
        p = ExponentField.constant(grid, 6.0)
        rng = np.random.default_rng(3)
        start = interpolate_boundary(mesh)
        nodes = np.array(start.node_values)
        nodes[1:-1, 1:-1] += 0.05 * rng.normal(size=(9, 9))
        res = minimize_power("norm", f, p, mesh, init=DiscreteField(mesh, nodes))
        assert res.objective == pytest.approx(1.0, rel=1e-5)
        assert np.max(np.abs(res.field.node_values - start.node_values)) < 5e-3

    def test_traces_monotone_within_stages(self):
        mesh = mesh_1d(64)
        grid = mesh.grid()
        f = inverse_weight(grid)
        p = ExponentField.constant(grid, 8.0)
        res = minimize_power("norm", f, p, mesh)
        for stage in res.traces:
            assert all(b <= a + 1e-12 for a, b in zip(stage, stage[1:]))

    def test_value_lower_bound_from_restriction(self):
        # the norm of any feasible density field dominates the supremal
        # oracle cut down to a single cell's mass
        mesh = mesh_1d(64)
        grid = mesh.grid()
        f = inverse_weight(grid)
        lstar = supremal_oracle_1d(GridFunction(grid, f.coefficients["a"]), 0.0, 1.0)
        for q in (4.0, 32.0):
            p = ExponentField.constant(grid, q)
            res = minimize_power("norm", f, p, mesh)
            floor = lstar * min(1.0, float(np.min(grid.weights)) ** (1.0 / q))
            assert res.objective >= floor - 1e-9

    def test_custom_family_rejected(self):
        mesh = mesh_1d(8)
        f = DensitySpec.custom(mesh.grid(), "capped_norm")
        p = ExponentField.constant(mesh.grid(), 4.0)
        with pytest.raises(PreconditionError):
            minimize_power("norm", f, p, mesh)

    def test_unknown_functional_rejected(self):
        mesh = mesh_1d(8)
        f = DensitySpec.weighted_norm(mesh.grid(), 1.0)
        p = ExponentField.constant(mesh.grid(), 4.0)
        with pytest.raises(PreconditionError):
            minimize_power("maximal", f, p, mesh)


class TestIntegralMinimization:
    def test_quadratic_matches_linear_solve(self):
        # q = 2, a = 1: the energy is quadratic, so the descent minimizer
        # must agree with the direct solve of the normal equations
        nx = ny = 12
        mesh = MeshSpec(2, (1.0, 1.0), (nx, ny), BoundarySpec.affine(0.0, 1.0, 0.0))
        grid = mesh.grid()

        def bdry(x, y):
            return x * x - y * y / 2.0

        nodes = np.zeros(mesh.node_shape)
        xs, ys = mesh.node_axes()
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                nodes[i, j] = bdry(xv, yv)
        start = DiscreteField(mesh, nodes)

        f = DensitySpec.weighted_norm(grid, 1.0)
        p = ExponentField.constant(grid, 2.0)
        settings = SolverSettings(epsilons=(1e-3,), tol=1e-16, max_iter=60000)
        res = minimize_power("integral", f, p, mesh, settings=settings, init=start)
        ref = quadratic_energy_solve_2d(nx, ny, 1.0 / nx, 1.0 / ny, bdry)
        assert np.max(np.abs(res.field.node_values - ref)) < 1e-6

    def test_trace_nonincreasing(self):
        mesh = mesh_1d(32)
        grid = mesh.grid()
        f = inverse_weight(grid)
        p = ExponentField.constant(grid, 4.0)
        res = minimize_power("integral", f, p, mesh)
        for stage in res.traces:
            finite = [v for v in stage if np.isfinite(v)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(finite, finite[1:]))

    def test_epsilon_floor_robustness(self):
        mesh = mesh_1d(64)
        grid = mesh.grid()
        f = inverse_weight(grid)
        p = ExponentField.constant(grid, 16.0)
        base = SolverSettings()
        halved = SolverSettings(epsilons=base.epsilons + (5e-7,))
        r1 = minimize_power("norm", f, p, mesh, settings=base)
        r2 = minimize_power("norm", f, p, mesh, settings=halved)
        assert abs(r1.objective - r2.objective) / r1.objective < 1e-3


class TestSolverSettings:
    def test_schedule_must_decrease(self):
        with pytest.raises(StructuralError):
            SolverSettings(epsilons=(1e-3, 1e-2))
