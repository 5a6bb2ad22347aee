import numpy as np
import pytest

from suplab.energy import (
    DensityContractError,
    DensitySpec,
    density_field,
    eval_calFn,
    eval_density,
    eval_Fn,
    eval_supremal,
    growth_check,
    level_convexity_probe,
    register_custom_rule,
)
from suplab.discretize import BoundarySpec, MeshSpec, gradient
from suplab.exponent_space import (
    ExponentField,
    ExponentSequence,
    Grid,
    GridFunction,
    StructuralError,
    luxemburg_norm,
)
from suplab.measure_tools import jensen_check
from suplab.solve import SolverSettings, minimize_power

from _oracles import constant_p_norm


def line_grid(cells=100):
    return Grid.uniform_1d(0.0, 1.0, cells)


class TestEvalDensity:
    def test_plain_norm(self):
        grid = line_grid(4)
        f = DensitySpec.weighted_norm(grid, 1.0)
        assert eval_density(f, 0, 0.0, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_weight_at_point(self):
        grid = Grid(1, np.array([[1.0]]), np.array([1.0]))
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x))
        assert eval_density(f, 0, 0.0, 2.0) == pytest.approx(1.0)

    def test_anisotropic(self):
        grid = line_grid(3)
        f = DensitySpec.anisotropic(grid, np.array([1.0, 2.0]))
        assert eval_density(f, 1, 0.0, np.array([3.0, 1.0])) == pytest.approx(3.0)
        with pytest.raises(StructuralError):
            eval_density(f, 1, 0.0, np.array([3.0]))

    def test_shifted(self):
        grid = line_grid(3)
        f = DensitySpec.shifted_norm(grid, np.array([1.0]))
        assert eval_density(f, 0, 0.0, np.array([3.0])) == pytest.approx(2.0)

    def test_negative_custom_rule_is_contract_error(self):
        register_custom_rule("bad_negative_probe", lambda c, u, xi: -1.0)
        grid = line_grid(2)
        f = DensitySpec.custom(grid, "bad_negative_probe")
        with pytest.raises(DensityContractError):
            eval_density(f, 0, 0.0, np.array([1.0]))

    def test_unknown_rule_rejected(self):
        with pytest.raises(StructuralError):
            DensitySpec.custom(line_grid(2), "no_such_rule")

    @pytest.mark.parametrize("make", [
        lambda g: DensitySpec.weighted_norm(g, -1.0, alpha=1.0),
        lambda g: DensitySpec.weighted_norm(g, np.array([1.0, np.nan, 1.0, 1.0])),
        lambda g: DensitySpec.anisotropic(g, np.array([1.0, -2.0]), alpha=0.5),
        lambda g: DensitySpec.anisotropic(g, np.inf),
    ])
    def test_negative_or_nonfinite_weight_is_named(self, make):
        with pytest.raises(StructuralError, match="weight 'a' must be finite and nonnegative"):
            make(line_grid(4))

    def test_zero_weight_cell_is_legal(self):
        a = np.array([1.0, 0.0, 1.0, 1.0])
        f = DensitySpec.weighted_norm(line_grid(4), a, alpha=1e-9)
        assert eval_density(f, 1, 0.0, np.array([2.0])) == 0.0


class TestCustomRuleBatches:
    @pytest.mark.parametrize("rule, coeffs", [
        ("unit_sphere_distance", {}),
        ("capped_norm", {"cap": 0.5, "slope": 0.1}),
        ("weighted_norm_power", {"a": lambda x: 1.0 + x, "power": 3.0}),
    ])
    @pytest.mark.parametrize("k", [1, 2])
    def test_batch_equals_per_sample(self, rule, coeffs, k):
        grid = line_grid(256)
        coeffs = {key: v(grid.points) if callable(v) else v for key, v in coeffs.items()}
        f = DensitySpec.custom(grid, rule, coeffs)
        rng = np.random.default_rng(7)
        u = GridFunction(grid, rng.normal(size=256))
        Du = GridFunction(grid, 2.0 * rng.normal(size=(256, k)))
        batch = density_field(f, u, Du).values
        xi = Du.values.reshape(256, k)
        single = [eval_density(f, i, u.values[i], xi[i]) for i in range(256)]
        assert np.array_equal(batch, single)

    def test_negative_sample_of_a_batch_is_named(self):
        # one sample of the 256-trial batch has norm below 0.5
        register_custom_rule("norm_minus_half", lambda c, u, xi: np.linalg.norm(xi, axis=-1) - 0.5)
        grid = line_grid(4)
        f = DensitySpec.custom(grid, "norm_minus_half")
        pts = 3.0 + np.abs(np.random.default_rng(1).normal(size=(256, 1, 1)))
        pts[137] = 0.25
        cells = np.zeros(256, dtype=int)
        with pytest.raises(DensityContractError, match=r"-0\.25 at xi = \[0\.25\]"):
            jensen_check(f, cells, 0.0, (pts, np.ones((256, 1))))

    def test_rule_without_one_value_per_sample_is_contract_error(self):
        register_custom_rule("one_value_per_call", lambda c, u, xi: 1.0)
        grid = line_grid(4)
        f = DensitySpec.custom(grid, "one_value_per_call")
        assert eval_density(f, 0, 0.0, np.array([2.0])) == 1.0
        Du = GridFunction(grid, np.ones(4))
        with pytest.raises(DensityContractError, match="shape"):
            density_field(f, None, Du)


def per_cell_anisotropic(cells=8):
    grid = line_grid(cells)
    return DensitySpec.anisotropic(grid, 1.0 + grid.cells[:, 0])


class TestDensityField:
    @pytest.mark.parametrize("f", [
        DensitySpec.weighted_norm(line_grid(8), lambda x: 1.0 + x),
        DensitySpec.shifted_norm(line_grid(8), np.array([0.4])),
        per_cell_anisotropic(),
        DensitySpec.anisotropic(Grid.uniform_2d((0.0, 1.0), (0.0, 1.0), (3, 3)), [1.0, 2.0]),
        DensitySpec.custom(line_grid(8), "capped_norm", {"cap": 0.5}),
    ], ids=["weighted", "shifted", "anisotropic_per_cell", "anisotropic_2d", "custom"])
    def test_field_matches_samples(self, f):
        rng = np.random.default_rng(9)
        grid = f.grid
        du = GridFunction(grid, rng.normal(size=(grid.n_cells, grid.dimension)))
        u = GridFunction(grid, rng.normal(size=grid.n_cells))
        xi = du.values.reshape(grid.n_cells, -1)
        samples = [eval_density(f, i, u.values[i], xi[i]) for i in range(grid.n_cells)]
        assert np.array_equal(density_field(f, u, du).values, samples)

    def test_per_cell_anisotropic_descent(self):
        # in 1-D, one anisotropy weight per cell is the weighted norm
        f = per_cell_anisotropic()
        grid = f.grid
        mesh = MeshSpec(1, (1.0,), (grid.n_cells,), BoundarySpec.endpoints(0.0, 1.0))
        p = ExponentField.constant(grid, 4.0)
        settings = SolverSettings(epsilons=(1e-2, 1e-3), max_iter=200)
        res = minimize_power("norm", f, p, mesh, settings)
        du = gradient(res.field).values
        samples = [eval_density(f, i, 0.0, du[i]) for i in range(grid.n_cells)]
        assert res.objective == pytest.approx(
            luxemburg_norm(GridFunction(grid, samples), p), rel=1e-12)
        weighted = DensitySpec.weighted_norm(grid, f.coefficients["a"][:, 0])
        ref = minimize_power("norm", weighted, p, mesh, settings)
        assert res.objective == pytest.approx(ref.objective, rel=1e-9)


class TestSupremal:
    def test_constant_field_vanishes(self):
        grid = line_grid(10)
        f = DensitySpec.weighted_norm(grid, 1.0)
        du = GridFunction.constant(grid, 0.0)
        assert eval_supremal(f, None, du) == 0.0

    def test_identity_slope(self):
        grid = line_grid(10)
        f = DensitySpec.weighted_norm(grid, 1.0)
        du = GridFunction.constant(grid, 1.0)
        assert eval_supremal(f, None, du) == pytest.approx(1.0)

    def test_balanced_profile(self):
        # u(x) = (2/3)(x + x^2/2) has u' = (2/3)(1+x), so a u' = 2/3 in every cell
        grid = line_grid(200)
        x = grid.cells[:, 0]
        f = DensitySpec.weighted_norm(grid, lambda t: 1.0 / (1.0 + t))
        du = GridFunction(grid, (2.0 / 3.0) * (1.0 + x))
        vals = density_field(f, None, du).values
        assert np.allclose(vals, 2.0 / 3.0, rtol=1e-12)
        assert eval_supremal(f, None, du) == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestPowerFunctionals:
    def test_norm_form_constant_data(self):
        grid = line_grid(20)
        f = DensitySpec.weighted_norm(grid, 1.0)
        p = ExponentField.constant(grid, 6.0)
        assert eval_Fn(f, None, GridFunction.constant(grid, 0.0), p) == 0.0

    def test_norm_form_unit_density(self):
        grid = line_grid(20)
        f = DensitySpec.weighted_norm(grid, 1.0)
        du = GridFunction.constant(grid, 1.0)
        for n in (2, 7, 40):
            p = ExponentField.constant(grid, float(n))
            assert eval_Fn(f, None, du, p) == pytest.approx(1.0, rel=1e-10)

    def test_norm_form_quartic(self):
        grid = line_grid(100)
        x = grid.cells[:, 0]
        f = DensitySpec.weighted_norm(grid, 1.0)
        du = GridFunction(grid, 2.0 * x)
        p = ExponentField.constant(grid, 4.0)
        expect = 2.0 * (1.0 / 5.0) ** 0.25
        assert eval_Fn(f, None, du, p) == pytest.approx(expect, rel=1e-4)

    def test_norm_form_matches_classical(self):
        rng = np.random.default_rng(2)
        grid = line_grid(64)
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 + x)
        for _ in range(20):
            du = GridFunction(grid, rng.normal(size=64))
            q = float(rng.uniform(1.5, 9.0))
            p = ExponentField.constant(grid, q)
            dens = density_field(f, None, du)
            assert eval_Fn(f, None, du, p) == pytest.approx(
                constant_p_norm(dens.values, grid.weights, q), rel=1e-10
            )

    def test_integral_form_closed_forms(self):
        grid = line_grid(40)
        f = DensitySpec.weighted_norm(grid, 1.0)
        half = GridFunction.constant(grid, 0.5)
        one = GridFunction.constant(grid, 1.0)
        for n in (10, 50):
            p = ExponentField.constant(grid, float(n))
            assert eval_calFn(f, None, half, p) == pytest.approx((0.5 ** n) / n, rel=1e-12)
            assert eval_calFn(f, None, one, p) == pytest.approx(1.0 / n, rel=1e-12)
        p50 = ExponentField.constant(grid, 50.0)
        assert eval_calFn(f, None, half, p50) == pytest.approx(1.8e-17, rel=2e-2)

    def test_integral_form_overflow_sentinel(self):
        grid = line_grid(40)
        f = DensitySpec.weighted_norm(grid, 1.0)
        two = GridFunction.constant(grid, 2.0)
        p = ExponentField.constant(grid, 1100.0)
        assert eval_calFn(f, None, two, p) == np.inf

    def test_norm_form_approaches_supremal(self):
        # fixed field, default sine exponent profile: the norms must land
        # within 1% of the supremal value by n = 200
        grid = line_grid(32)
        x = grid.cells[:, 0]
        f = DensitySpec.weighted_norm(grid, lambda t: 1.0 / (1.0 + t))
        du = GridFunction(grid, 1.0 + 0.5 * np.sin(3.0 * x))
        sup = eval_supremal(f, None, du)
        seq = ExponentSequence(grid, 2.0 + np.sin(2 * np.pi * x))
        errs = []
        for n in (25, 50, 100, 200):
            val = eval_Fn(f, None, du, seq.field(n))
            errs.append(abs(val - sup))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 0.01 * sup


class TestRescaling:
    def test_supremal_power_compatibility(self):
        # taking the density to a power commutes with the supremal energy
        grid = line_grid(50)
        x = grid.cells[:, 0]
        a = 1.0 / (1.0 + x)
        base = DensitySpec.weighted_norm(grid, a)
        squared = DensitySpec.custom(
            grid, "weighted_norm_power", {"a": a, "power": 2.0},
            alpha=0.25, gamma=2.0,
        )
        du = GridFunction(grid, 1.0 + x * x)
        lhs = eval_supremal(base, None, du) ** 2.0
        rhs = eval_supremal(squared, None, du)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestProbes:
    def test_weighted_norm_is_level_convex(self):
        grid = line_grid(16)
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 + x)
        rep = level_convexity_probe(f, trials=10000, seed=1)
        assert rep.passed
        assert rep.meta["violations"] == 0

    def test_capped_norm_is_level_convex(self):
        grid = line_grid(16)
        f = DensitySpec.custom(grid, "capped_norm", {"cap": 1.0, "slope": 1e-6})
        rep = level_convexity_probe(f, trials=10000, seed=2)
        assert rep.passed

    def test_sphere_distance_is_not(self):
        grid = line_grid(16)
        f = DensitySpec.custom(grid, "unit_sphere_distance", level_convex=False)
        rep = level_convexity_probe(f, trials=10000, seed=3)
        assert not rep.passed
        assert rep.meta["violations"] >= 1
        w = rep.checks[0].witness
        assert w is not None and w["lhs"] > w["rhs"]

    @pytest.mark.parametrize("grid", [line_grid(16), Grid.uniform_2d((0.0, 1.0), (0.0, 1.0), (4, 4))],
                             ids=["1d", "2d"])
    def test_level_convexity_witnesses_recompute(self, grid):
        f = DensitySpec.custom(grid, "unit_sphere_distance", level_convex=False)
        rep = level_convexity_probe(f, trials=2000, seed=8)
        witnesses = rep.meta["witnesses"]
        assert len(witnesses) == min(rep.meta["violations"], 10) > 0
        for w in witnesses:
            xi1, xi2, theta = np.array(w["xi1"]), np.array(w["xi2"]), w["theta"]
            assert xi1.shape == (grid.dimension,)
            lhs = eval_density(f, w["cell"], w["u"], theta * xi1 + (1 - theta) * xi2)
            rhs = max(eval_density(f, w["cell"], w["u"], xi1),
                      eval_density(f, w["cell"], w["u"], xi2))
            assert (lhs, rhs) == (w["lhs"], w["rhs"])
            assert lhs > rhs

    def test_growth_witnesses_recompute(self):
        grid = line_grid(64)
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x), alpha=0.9)
        rep = growth_check(f, trials=2000, seed=9)
        witnesses = rep.meta["witnesses"]
        assert len(witnesses) == min(rep.meta["violations"], 10) > 0
        for w in witnesses:
            xi = np.array(w["xi"])
            assert w["cell_center"] == grid.cells[w["cell"]].tolist()
            assert w["value"] == eval_density(f, w["cell"], w["u"], xi)
            assert w["bound"] == pytest.approx(0.9 * np.linalg.norm(xi), rel=1e-15)
            assert w["value"] < w["bound"]

    def test_probes_repeat_with_the_seed(self):
        grid = line_grid(16)
        annulus = DensitySpec.custom(grid, "unit_sphere_distance", level_convex=False)
        steep = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x), alpha=0.9)
        for probe, f in ((level_convexity_probe, annulus), (growth_check, steep)):
            first = probe(f, trials=500, seed=11).meta
            assert first["violations"] > 0
            assert probe(f, trials=500, seed=11).meta == first
            assert probe(f, trials=500, seed=12).meta != first

    def test_growth_passes_at_infimum(self):
        grid = line_grid(64)
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x), alpha=0.5)
        rep = growth_check(f, trials=5000, seed=4)
        assert rep.passed

    def test_growth_fails_above_infimum(self):
        grid = line_grid(64)
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x), alpha=0.9)
        rep = growth_check(f, trials=5000, seed=5)
        assert not rep.passed
        witness = rep.checks[0].witness
        # 1/(1+x) < 0.9 exactly when x > 1/9
        assert witness["cell_center"][0] > 1.0 / 9.0

    def test_growth_constant_floor(self):
        plane = Grid.uniform_2d((0.0, 1.0), (0.0, 1.0), (4, 4))
        # the default alpha of the 2-D anisotropic norm max(|xi_1|, 2 |xi_2|)
        # is |xi| / sqrt(2), reached where |xi_1| = |xi_2|
        for f, alpha in ((DensitySpec.weighted_norm(line_grid(32), 2.0, alpha=2.0), 2.0),
                         (DensitySpec.anisotropic(plane, [1.0, 2.0]), 1.0 / np.sqrt(2.0))):
            assert f.alpha == pytest.approx(alpha, rel=1e-15)
            assert growth_check(f, trials=2000, seed=6).passed
