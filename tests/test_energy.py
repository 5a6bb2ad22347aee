import re

import numpy as np
import pytest

from suplab.energy import (
    _FAMILIES,
    DensitySpec,
    _density,
    _norm,
    density_field,
    eval_calFn,
    eval_density,
    eval_Fn,
    eval_supremal,
    growth_check,
    level_convexity_probe,
)
from suplab.discretize import BoundarySpec, MeshSpec, gradient
from suplab.exponent_space import (
    ExponentField,
    ExponentSequence,
    Grid,
    GridFunction,
    PreconditionError,
    StructuralError,
    luxemburg_norm,
)
from suplab import solve
from suplab.solve import minimize_power

from _oracles import constant_p_norm


def line_grid(cells=100):
    return Grid.uniform_1d(0.0, 1.0, cells)


def plane_grid(cells, extents=(1.0, 1.0)):
    """The grid of a 2-D mesh: two triangles per square."""
    return MeshSpec(2, extents, cells, BoundarySpec.affine(0.0, 0.0, 0.0)).grid()


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

    @pytest.mark.parametrize("family, cell", [
        ("weighted_norm", -1), ("weighted_norm", 4), ("weighted_norm", np.int64(-1)),
        ("capped_norm", 4), ("unit_sphere_distance", -1),
    ], ids=["negative", "past_end", "numpy_index", "capped_norm", "unit_sphere_distance"])
    def test_cell_off_the_grid_refused(self, family, cell):
        # with a = [1, 2, 3, 4], cell -1 would read the last cell's weight and
        # cell 4 would be a bare IndexError; a family without a coefficient
        # would evaluate any index
        coefficients = {"a": [1.0, 2.0, 3.0, 4.0]} if family == "weighted_norm" else {}
        f = DensitySpec(line_grid(4), family, coefficients)
        with pytest.raises(StructuralError, match=f"cell {int(cell)} is not one of the 4 cells"):
            eval_density(f, cell, 0.0, 1.0)

    @pytest.mark.parametrize("cell", [1.7, np.float64(1.0), "1", True, np.True_],
                             ids=["float", "numpy_float", "str", "bool", "numpy_bool"])
    def test_non_integer_cell_refused(self, cell):
        # 1.7 would be NumPy's bare IndexError; 1.0 would pass the range
        # check and then fail the same way; True would read cell 1's weight, 2.0
        f = DensitySpec.weighted_norm(line_grid(4), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(StructuralError, match=re.escape(f"cell index must be an integer, got {cell!r}")):
            eval_density(f, cell, 0.0, 1.0)

    @pytest.mark.parametrize("family, xi, message", [
        ("weighted_norm", [np.nan], r"xi must be finite, got nan at \(0,\) of shape \(1,\)"),
        ("weighted_norm", np.inf, r"xi must be finite, got inf at \(0,\) of shape \(1,\)"),
        ("weighted_norm", [1.0, -np.inf],
         r"xi must be finite, got -inf at \(1,\) of shape \(2,\)"),
        ("weighted_norm", [[1.0]], r"xi of shape \(1, 1\): need \(\*,\)"),
        *[(family, [], r"xi of shape \(0,\): need at least one component")
          for family in _FAMILIES],
    ], ids=["nan", "inf", "minus_inf_component", "matrix",
            *[f"no_component_{family}" for family in _FAMILIES]])
    def test_xi_that_is_not_one_finite_vector_refused(self, family, xi, message):
        # nan would come back as the value nan, where jensen_check refuses
        # the same point; a (1, 1) xi would be a bare TypeError; a xi with no
        # component would be read as 0 (the value 1 of unit_sphere_distance),
        # and anisotropic's max over no component a bare ValueError
        f = DensitySpec(line_grid(4), family)
        with pytest.raises(StructuralError, match=message):
            eval_density(f, 0, 0.0, xi)

    def test_unknown_rule_rejected(self):
        with pytest.raises(StructuralError, match="unknown density family 'no_such_rule'"):
            DensitySpec(line_grid(2), "no_such_rule")

    @pytest.mark.parametrize("make, message", [
        (lambda g: DensitySpec(g, "capped_norm", {"a": 1.0}), "capped_norm reads no coefficient 'a'"),
        (lambda g: DensitySpec(g, "weighted_norm", {"b": 1.0}), "weighted_norm reads no coefficient 'b'"),
        (lambda g: DensitySpec.shifted_norm(g, np.inf), "shift 'b' must be finite, got inf"),
        (lambda g: DensitySpec.weighted_norm(g, np.ones((4, 2))),
         r"weight 'a' of shape \(4, 2\): need \(4,\)$"),
        # a (2, 2) array is shared by every cell: (4, 2, 2) has an axis too many
        (lambda g: DensitySpec.anisotropic(g, np.ones((2, 2))),
         r"weight 'a' of shape \(4, 2, 2\): need \(4, \*\)$"),
        (lambda g: DensitySpec.weighted_norm(g, 0.0), "alpha must be positive"),
        (lambda g: DensitySpec.weighted_norm(g, 1.0, alpha=-1.0), "alpha must be positive"),
        (lambda g: DensitySpec.weighted_norm(g, 1.0, alpha=np.inf), "alpha must be positive and finite"),
    ], ids=["coefficient_of_no_row", "coefficient_of_another_row",
            "infinite_shift", "weight_with_components", "anisotropy_of_two_axes",
            "zero_weight_default_alpha", "negative_alpha", "infinite_alpha"])
    def test_density_refusal(self, make, message):
        with pytest.raises(StructuralError, match=message):
            make(line_grid(4))

    def test_left_out_coefficient_takes_its_default(self):
        grid = line_grid(4)
        for family, value in (("weighted_norm", 1.0), ("shifted_norm", 0.0), ("anisotropic", 1.0)):
            f = DensitySpec(grid, family)
            assert np.all(next(iter(f.coefficients.values())) == value)
        assert DensitySpec(grid, "capped_norm").coefficients == {}

    @pytest.mark.parametrize("make", [
        lambda g: DensitySpec.weighted_norm(g, -1.0, alpha=1.0),
        lambda g: DensitySpec.weighted_norm(g, np.array([1.0, np.nan, 1.0, 1.0])),
        lambda g: DensitySpec.anisotropic(g, np.array([1.0, -2.0]), alpha=0.5),
        lambda g: DensitySpec.anisotropic(g, np.inf),
    ])
    def test_negative_or_nonfinite_weight_is_named(self, make):
        # the finite rule is the one of every grid-bound array; the sign rule is the weight's
        with pytest.raises(StructuralError,
                           match="weight 'a' must be (nonnegative$|finite, got (nan|inf) at)"):
            make(line_grid(4))

    def test_zero_weight_cell_is_legal(self):
        a = np.array([1.0, 0.0, 1.0, 1.0])
        f = DensitySpec.weighted_norm(line_grid(4), a, alpha=1e-9)
        assert eval_density(f, 1, 0.0, np.array([2.0])) == 0.0


class TestCustomRuleBatches:
    # the two rows without a coefficient, and the weighted norm
    @pytest.mark.parametrize("rule, coeffs", [
        ("unit_sphere_distance", {}),
        ("capped_norm", {}),
        ("weighted_norm", {"a": lambda x: 1.0 + x}),
    ])
    @pytest.mark.parametrize("k", [1, 2])
    def test_batch_equals_per_sample(self, rule, coeffs, k):
        grid = line_grid(256)
        f = DensitySpec(grid, rule, coeffs)
        rng = np.random.default_rng(7)
        u = GridFunction(grid, rng.normal(size=256))
        Du = GridFunction(grid, 2.0 * rng.normal(size=(256, k)))
        batch = density_field(f, u, Du).values
        xi = Du.values.reshape(256, k)
        single = [eval_density(f, i, u.values[i], xi[i]) for i in range(256)]
        assert np.array_equal(batch, single)


PLANE = plane_grid((3, 4), (1.0, 2.0))


class TestFamilyRows:
    """Each row's claims hold for the density it builds with its defaults."""

    @pytest.mark.parametrize("grid", [line_grid(16), PLANE], ids=["1d", "2d"])
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_row_claims_hold(self, family, grid):
        row = _FAMILIES[family]
        f = DensitySpec(grid, family)
        assert f.level_convex == row.level_convex
        # the parse-time probes: H1 passes iff the row claims level convexity,
        # and the default alpha passes H2
        assert level_convexity_probe(f, trials=2000, seed=0).passed == row.level_convex
        assert growth_check(f, trials=2000, seed=0).passed
        # the descent runs on a row iff eps > 0 gives its gradient
        mesh = MeshSpec(1, (1.0,), (8,), BoundarySpec.endpoints(0.0, 1.0))
        args = ("norm", DensitySpec(mesh.grid(), family), ExponentField.constant(mesh.grid(), 4.0),
                mesh)
        if row.smoothed:
            minimize_power(*args)
        else:
            with pytest.raises(PreconditionError, match="no smoothed gradient"):
                minimize_power(*args)

    @pytest.mark.parametrize("family, coeffs", [
        ("weighted_norm", {"a": lambda x: 1.0 + x}),
        ("shifted_norm", {"b": [0.3, -0.2]}),
        ("anisotropic", {"a": [1.0, 3.0]}),
    ])
    def test_smoothed_log_gradient_is_a_gradient(self, family, coeffs):
        # d(log f)/d(xi) at eps = 1e-2 against a central difference of log f
        assert _FAMILIES[family].smoothed
        f = DensitySpec(line_grid(32), family, coeffs)
        xi = np.random.default_rng(3).normal(size=(32, 2))
        eps, h = 1e-2, 1e-6
        _, dlog = _density(f, xi, None, eps)
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            up, _ = _density(f, xi + step, None, eps)
            down, _ = _density(f, xi - step, None, eps)
            central = (np.log(up) - np.log(down)) / (2.0 * h)
            assert np.max(np.abs(dlog[:, j] - central)) < 1e-7 * np.max(np.abs(dlog))


# each row's default density as a function of (|xi|, max_j |xi_j|)
DEFAULT_ROW_VALUES = {
    "weighted_norm": lambda r, m: r,
    "shifted_norm": lambda r, m: r,
    "anisotropic": lambda r, m: m,
    "capped_norm": lambda r, m: min(r, 1.0) + 1e-6 * r,
    "unit_sphere_distance": lambda r, m: abs(r - 1.0),
}


class TestExactNorm:
    """One norm serves every row: exact at every finite magnitude, today's bits near 1."""

    # |xi| far from 1, where a norm that squares first overflows or underflows,
    # with the norm and the largest |xi_j| in exact arithmetic
    @pytest.mark.parametrize("xi, norm, top", [
        ([1e200], 1e200, 1e200),
        ([1e-200, 0.0], 1e-200, 1e-200),
        ([3e200, 4e200], 5e200, 4e200),
    ], ids=["huge", "tiny", "huge_2d"])
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_rows_are_exact_far_from_one(self, family, xi, norm, top):
        want = DEFAULT_ROW_VALUES[family](norm, top)
        xi = np.array(xi)
        grid = line_grid(4) if xi.size == 1 else PLANE
        f = DensitySpec(grid, family)
        du = GridFunction(grid, np.tile(xi, (grid.n_cells, 1)))
        with np.errstate(all="raise"):
            vals = [eval_density(f, 0, 0.0, xi)] + list(density_field(f, None, du).values)
        # hypot may land one rounding off: 3e200 and 4e200 give the float just below 5e200
        np.testing.assert_allclose(vals, want, rtol=2.0 ** -52, atol=0.0)

    def test_one_component_norm_is_the_root_of_the_square(self):
        # so every 1-D density, and every shipped output, keeps its bits
        rng = np.random.default_rng(31)
        xi = rng.choice([-1.0, 1.0], size=(100_000, 1)) * 10.0 ** rng.uniform(-150, 150,
                                                                              (100_000, 1))
        r, s2 = _norm(xi)
        assert s2 is None
        assert np.array_equal(r, np.sqrt(np.vecdot(xi, xi)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    def test_smoothed_norm_is_the_root_of_the_smoothed_square(self, k, eps):
        # the descent reads s2 for d(log f)/d(xi), so its iterates keep their bits
        rng = np.random.default_rng(32)
        xi = rng.choice([-1.0, 1.0], size=(10_000, k)) * 10.0 ** rng.uniform(-150, 150,
                                                                             (10_000, k))
        r, s2 = _norm(xi, eps)
        want = np.vecdot(xi, xi) + eps * eps
        assert np.array_equal(s2, want)
        assert np.array_equal(r, np.sqrt(want))


def per_cell_anisotropic(cells=8):
    grid = line_grid(cells)
    return DensitySpec.anisotropic(grid, 1.0 + grid.cells[:, 0])


# one density of every family, some with per-cell coefficients
FIELD_DENSITIES = pytest.mark.parametrize("f", [
    DensitySpec.weighted_norm(line_grid(8), lambda x: 1.0 + x),
    DensitySpec.shifted_norm(line_grid(8), np.array([0.4])),
    per_cell_anisotropic(),
    DensitySpec.anisotropic(plane_grid((3, 3)), [1.0, 2.0]),
    DensitySpec(line_grid(8), "capped_norm"),
    DensitySpec(plane_grid((3, 3)), "unit_sphere_distance"),
], ids=["weighted", "shifted", "anisotropic_per_cell", "anisotropic_2d", "capped_norm",
        "unit_sphere_distance_2d"])


class TestDensityField:
    @FIELD_DENSITIES
    def test_field_matches_samples(self, f):
        rng = np.random.default_rng(9)
        grid = f.grid
        du = GridFunction(grid, rng.normal(size=(grid.n_cells, grid.dimension)))
        u = GridFunction(grid, rng.normal(size=grid.n_cells))
        xi = du.values.reshape(grid.n_cells, -1)
        samples = [eval_density(f, i, u.values[i], xi[i]) for i in range(grid.n_cells)]
        assert np.array_equal(density_field(f, u, du).values, samples)

    @FIELD_DENSITIES
    def test_lookup_by_cells_matches_the_field(self, f):
        # the path of eval_density and jensen_check: the coefficients of the
        # given cells, in any order and with repeats
        rng = np.random.default_rng(5)
        grid = f.grid
        xi = rng.normal(size=(grid.n_cells, grid.dimension))
        field = density_field(f, None, GridFunction(grid, xi if grid.dimension > 1 else xi[:, 0]))
        cells = rng.permutation(np.repeat(np.arange(grid.n_cells), 3))
        vals, _ = _density(f, xi[cells], cells)
        assert np.array_equal(vals, field.values[cells])

    def test_per_cell_anisotropic_descent(self, monkeypatch):
        # in 1-D, one anisotropy weight per cell is the weighted norm
        f = per_cell_anisotropic()
        grid = f.grid
        mesh = MeshSpec(1, (1.0,), (grid.n_cells,), BoundarySpec.endpoints(0.0, 1.0))
        p = ExponentField.constant(grid, 4.0)
        monkeypatch.setattr(solve, "_EPSILONS", (1e-2, 1e-3))
        monkeypatch.setattr(solve, "_MAX_ITER", 200)
        res = minimize_power("norm", f, p, mesh)
        du = gradient(res.field).values
        samples = [eval_density(f, i, 0.0, du[i]) for i in range(grid.n_cells)]
        assert res.objective == pytest.approx(
            luxemburg_norm(GridFunction(grid, samples), p), rel=1e-12)
        weighted = DensitySpec.weighted_norm(grid, f.coefficients["a"][:, 0])
        ref = minimize_power("norm", weighted, p, mesh)
        assert res.objective == pytest.approx(ref.objective, rel=1e-9)

    # same cell count on (0, 4): the weights 1/(1+x) there would give the
    # norm of another problem; 8 cells: NumPy's bare broadcast ValueError
    @pytest.mark.parametrize("other", [Grid.uniform_1d(0.0, 4.0, 16), line_grid(8)],
                             ids=["same_size", "fewer_cells"])
    def test_density_off_the_field_grid_refused(self, other):
        grid = line_grid(16)
        f = DensitySpec.weighted_norm(other, lambda x: 1.0 / (1.0 + x))
        du = GridFunction.constant(grid, 1.0)
        p = ExponentField.constant(grid, 4.0)
        for evaluate in (lambda: eval_Fn(f, None, du, p), lambda: eval_calFn(f, None, du, p),
                         lambda: eval_supremal(f, None, du)):
            with pytest.raises(StructuralError,
                               match="different grids: DensitySpec against GridFunction"):
                evaluate()

    def test_cell_values_off_the_field_grid_refused(self):
        grid = line_grid(16)
        f = DensitySpec.weighted_norm(grid, 1.0)
        u = GridFunction.constant(line_grid(8), 0.0)
        with pytest.raises(StructuralError,
                           match="different grids: GridFunction against GridFunction"):
            density_field(f, u, GridFunction.constant(grid, 1.0))


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


class TestProbes:
    def test_weighted_norm_is_level_convex(self):
        grid = line_grid(16)
        f = DensitySpec.weighted_norm(grid, lambda x: 1.0 + x)
        rep = level_convexity_probe(f, trials=10000, seed=1)
        assert rep.passed
        assert rep.meta["violations"] == {"level_convexity": 0}

    def test_capped_norm_is_level_convex(self):
        grid = line_grid(16)
        f = DensitySpec(grid, "capped_norm")
        rep = level_convexity_probe(f, trials=10000, seed=2)
        assert rep.passed

    def test_sphere_distance_is_not(self):
        grid = line_grid(16)
        f = DensitySpec(grid, "unit_sphere_distance")
        rep = level_convexity_probe(f, trials=10000, seed=3)
        assert not rep.passed
        assert rep.meta["violations"]["level_convexity"] >= 1
        w = rep.checks[0].witness
        assert w is not None and w["lhs"] > w["rhs"]

    @pytest.mark.parametrize("grid", [line_grid(16), plane_grid((4, 4))],
                             ids=["1d", "2d"])
    def test_level_convexity_witnesses_recompute(self, grid):
        f = DensitySpec(grid, "unit_sphere_distance")
        rep = level_convexity_probe(f, trials=2000, seed=8)
        assert rep.meta["violations"]["level_convexity"] == rep.meta["failing"].sum() > 0
        w = rep.checks[0].witness
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
        assert rep.meta["violations"]["growth_lower_bound"] == rep.meta["failing"].sum() > 0
        w = rep.checks[0].witness
        xi = np.array(w["xi"])
        assert w["cell_center"] == grid.cells[w["cell"]].tolist()
        assert w["value"] == eval_density(f, w["cell"], w["u"], xi)
        assert w["bound"] == pytest.approx(0.9 * np.linalg.norm(xi), rel=1e-15)
        assert w["value"] < w["bound"]

    def test_probes_repeat_with_the_seed(self):
        grid = line_grid(16)
        annulus = DensitySpec(grid, "unit_sphere_distance")
        steep = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x), alpha=0.9)
        def outcome(rep):
            return rep.meta["failing"].tolist(), rep.checks

        for probe, f in ((level_convexity_probe, annulus), (growth_check, steep)):
            first = outcome(probe(f, trials=500, seed=11))
            assert any(first[0])
            assert outcome(probe(f, trials=500, seed=11)) == first
            assert outcome(probe(f, trials=500, seed=12)) != first

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
        plane = plane_grid((4, 4))
        # the default alpha of the 2-D anisotropic norm max(|xi_1|, 2 |xi_2|)
        # is |xi| / sqrt(2), reached where |xi_1| = |xi_2|
        for f, alpha in ((DensitySpec.weighted_norm(line_grid(32), 2.0, alpha=2.0), 2.0),
                         (DensitySpec.anisotropic(plane, [1.0, 2.0]), 1.0 / np.sqrt(2.0))):
            assert f.alpha == pytest.approx(alpha, rel=1e-15)
            assert growth_check(f, trials=2000, seed=6).passed
