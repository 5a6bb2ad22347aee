import numpy as np
import pytest

from suplab import exponent_space
from suplab.discretize import BoundarySpec, MeshSpec
from suplab.energy import DensitySpec, eval_calFn, eval_Fn
from suplab.exponent_space import (
    ExponentField,
    ExponentSequence,
    Grid,
    GridFunction,
    GridMismatchError,
    PreconditionError,
    StructuralError,
    _logsumexp,
    embedding_bound_check,
    embedding_constant,
    holder_check,
    log_modular,
    luxemburg_norm,
    luxemburg_root,
    modular,
    power_identity_check,
    verify_norm_modular_relations,
)
from suplab.gamma_lab import norm_limit_study

from _oracles import brentq_luxemburg, constant_p_norm


def piecewise_grid():
    """Unit interval split into (0, 1/2) with p = 2 and (1/2, 1) with p = 4."""
    grid = Grid(1, np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
    p = ExponentField(grid, np.array([2.0, 4.0]))
    return grid, p


def random_instance(rng, min_cells=16, max_cells=256, allow_zeros=True):
    cells = int(rng.integers(min_cells, max_cells + 1))
    length = float(rng.uniform(0.5, 2.0))
    grid = Grid.uniform_1d(0.0, length, cells)
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    vals = scale * rng.normal(size=cells)
    if allow_zeros and rng.uniform() < 0.2:
        vals[rng.uniform(size=cells) < 0.3] = 0.0
    u = GridFunction(grid, vals)
    if rng.uniform() < 0.25:
        p = ExponentField.constant(grid, float(rng.uniform(1.1, 12.0)))
    else:
        lo = float(rng.uniform(1.05, 4.0))
        hi = lo * float(rng.uniform(1.0, 5.0))
        p = ExponentField(grid, rng.uniform(lo, hi, size=cells))
    return grid, u, p


LINE2 = Grid.uniform_1d(0.0, 1.0, 2)
LINE4 = Grid.uniform_1d(0.0, 1.0, 4)
LINE8 = Grid.uniform_1d(0.0, 1.0, 8)


class TestGridAndFields:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: Grid(3, np.array([[0.5, 0.5, 0.5]]), np.ones(1)), StructuralError,
         "grid dimension must be 1 or 2, got 3"),
        # flat centers are not taken for a column
        (lambda: Grid(1, np.array([0.25, 0.75]), np.ones(2)), StructuralError,
         r"cell centers of shape \(2,\): need \(2, 1\)"),
        # nothing grid-bound is flattened: a (2, 4) array is not 8 cells
        (lambda: Grid(1, np.full((8, 1), 0.5), np.ones((2, 4))), StructuralError,
         r"cell weights of shape \(2, 4\): need \(\*,\)"),
        (lambda: Grid(1, np.zeros((0, 1)), np.zeros(0)), StructuralError,
         "grid needs at least one cell"),
        (lambda: Grid.uniform_1d(1.0, 0.0, 4), StructuralError, "need x1 > x0"),
        (lambda: GridFunction(LINE2, np.ones((2, 1, 1))), StructuralError,
         r"grid function values of shape \(2, 1, 1\): need \(2,\) or \(2, \*\)"),
        (lambda: GridFunction(LINE2, np.ones(3)), StructuralError,
         r"grid function values of shape \(3,\): need \(2,\) or \(2, \*\)"),
        # no component would read as an empty gradient, xi = 0, in every density
        (lambda: GridFunction(LINE2, np.ones((2, 0))), StructuralError,
         r"grid function values of shape \(2, 0\): need at least one component"),
        # the component count is the array's, not an argument
        (lambda: GridFunction(LINE2, np.ones(2), components=5), TypeError, "components"),
        (lambda: ExponentField(LINE2, np.full(3, 2.0)), StructuralError,
         r"exponents of shape \(3,\): need \(2,\)"),
        (lambda: ExponentField(LINE8, np.full((2, 4), 2.0)), StructuralError,
         r"exponents of shape \(2, 4\): need \(8,\)"),
        (lambda: ExponentField(LINE2, np.array([2.0, np.nan])), StructuralError,
         "exponents must be finite"),
        (lambda: ExponentSequence(LINE2, np.ones(3)), StructuralError,
         r"exponent profile of shape \(3,\): need \(2,\)"),
        (lambda: ExponentSequence(LINE8, np.ones((4, 2))), StructuralError,
         r"exponent profile of shape \(4, 2\): need \(8,\)"),
        # an infinite entry would give beta = nan
        (lambda: ExponentSequence(LINE2, np.array([1.0, np.inf])), StructuralError,
         r"exponent profile must be finite, got inf at \(1,\)"),
        (lambda: ExponentSequence(LINE2, np.array([1.0, 0.0])), StructuralError,
         "exponent profile must be positive"),
        (lambda: luxemburg_norm(GridFunction(LINE2, np.ones((2, 2))),
                                ExponentField.constant(LINE2, 2.0)), StructuralError,
         "requires a scalar-valued grid function"),
        (lambda: embedding_bound_check(GridFunction.constant(LINE2, 1.0),
                                       ExponentField(LINE2, np.array([2.0, 4.0])), 2.0, beta=1.5),
         PreconditionError, "declared beta = 1.5 does not dominate"),
        # inf would pass vacuously with slack inf, nan fail every row with slack nan
        (lambda: embedding_bound_check(GridFunction(LINE4, np.array([1.0, 2.0, 0.5, 0.1])),
                                       ExponentField.constant(LINE4, 4.0), 2.0, beta=np.inf),
         PreconditionError, "declared beta must be finite, got inf"),
        (lambda: embedding_bound_check(GridFunction(LINE4, np.array([1.0, 2.0, 0.5, 0.1])),
                                       ExponentField.constant(LINE4, 4.0), 2.0, beta=np.nan),
         PreconditionError, "declared beta must be finite, got nan"),
    ], ids=["grid_dimension", "grid_flat_centers", "grid_weights_2d", "grid_no_cells",
            "uniform_1d", "function_rank", "function_length",
            "function_no_component", "function_components_argument", "exponent_length", "exponent_2d", "exponent_nan",
            "sequence_length", "sequence_2d", "sequence_inf", "sequence_nonpositive",
            "scalar_only", "embedding_beta", "embedding_beta_inf", "embedding_beta_nan"])
    def test_refusal(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_total_measure_is_weight_sum(self):
        grid = Grid.uniform_1d(0.0, 2.0, 7)
        assert grid.total_measure == pytest.approx(2.0, rel=1e-12)

    def test_points_are_what_callables_take(self):
        line = Grid.uniform_1d(0.0, 1.0, 4)
        np.testing.assert_array_equal(line.points, [0.125, 0.375, 0.625, 0.875])
        plane = MeshSpec(2, (1.0, 2.0), (2, 3), BoundarySpec.affine(0.0, 0.0, 0.0)).grid()
        assert plane.points.shape == (12, 2)
        np.testing.assert_array_equal(plane.points, plane.cells)
        field = GridFunction(plane, plane.points[:, 0] + 10.0 * plane.points[:, 1])
        np.testing.assert_array_equal(field.values, plane.cells @ [1.0, 10.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(StructuralError):
            Grid(1, np.array([[0.5]]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weights_and_centers_must_be_finite(self, bad):
        with pytest.raises(StructuralError, match=f"cell weights must be finite, got {bad}"):
            Grid(1, np.array([[0.5]]), np.array([bad]))
        with pytest.raises(StructuralError, match=f"cell centers must be finite, got {bad}"):
            Grid(1, np.array([[bad]]), np.array([1.0]))
        with pytest.raises(StructuralError, match="cell weights must be finite, got inf"):
            Grid.uniform_1d(0.0, np.inf, 8)

    def test_exponent_field_rejects_sub_unit_values(self):
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        with pytest.raises(StructuralError):
            ExponentField(grid, np.array([0.5, 2.0, 2.0, 2.0]))

    def test_exponent_extremes_are_exact(self):
        grid = Grid.uniform_1d(0.0, 1.0, 3)
        p = ExponentField(grid, np.array([2.0, 7.0, 3.0]))
        assert p.p_minus == 2.0 and p.p_plus == 7.0

    def test_grid_function_requires_finite_values(self):
        grid = Grid.uniform_1d(0.0, 1.0, 2)
        with pytest.raises(StructuralError):
            GridFunction(grid, np.array([1.0, np.inf]))

    def test_sequence_beta_is_profile_ratio(self):
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        assert ExponentSequence(grid, np.ones(4)).beta == 1.0
        assert ExponentSequence(grid, np.array([0.5, 2.0, 1.0, 1.5])).beta == 4.0

    def test_sequence_prefix_checks(self):
        # growth (pn1) and the ratio bound (pn2) hold by construction; only
        # an exponent not above 1 is refused
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        seq = ExponentSequence(grid, np.linspace(0.3, 0.9, 8))
        fields = [seq.field(n) for n in (4, 8, 16)]
        assert all(f.p_plus <= seq.beta * f.p_minus * (1 + 1e-15) for f in fields)
        assert [f.p_minus for f in fields] == sorted(f.p_minus for f in fields)
        with pytest.raises(PreconditionError, match="n = 3"):
            seq.field(3)


class TestModular:
    def test_unit_function_gives_total_measure(self):
        grid = Grid.uniform_1d(0.0, 1.5, 10)
        p = ExponentField.constant(grid, 3.7)
        u = GridFunction.constant(grid, 1.0)
        assert modular(u, p) == pytest.approx(1.5, rel=1e-12)

    def test_constant_two_cubed(self):
        grid = Grid.uniform_1d(0.0, 1.0, 5)
        assert modular(GridFunction.constant(grid, 2.0), ExponentField.constant(grid, 3.0)) == pytest.approx(8.0, rel=1e-12)

    def test_piecewise_example(self):
        grid, p = piecewise_grid()
        u = GridFunction.constant(grid, 2.0)
        assert modular(u, p) == pytest.approx(10.0, rel=1e-12)

    def test_zero_cells_contribute_nothing(self):
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        p = ExponentField.constant(grid, 2.0)
        u = GridFunction(grid, np.array([0.0, 0.0, 2.0, 0.0]))
        assert modular(u, p) == pytest.approx(1.0, rel=1e-12)

    def test_overflow_sentinel(self):
        grid = Grid.uniform_1d(0.0, 1.0, 3)
        p = ExponentField.constant(grid, 1200.0)
        u = GridFunction.constant(grid, 2.0)
        assert modular(u, p) == np.inf
        assert np.isfinite(log_modular(u, p))

    def test_grid_mismatch_raises(self):
        g1 = Grid.uniform_1d(0.0, 1.0, 4)
        g2 = Grid.uniform_1d(0.0, 1.0, 5)
        with pytest.raises(GridMismatchError):
            modular(GridFunction.constant(g1, 1.0), ExponentField.constant(g2, 2.0))

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, u, p = random_instance(rng)
            v = GridFunction(u.grid, np.abs(u.values) * (1.0 + rng.uniform(0.0, 1.0, u.grid.n_cells)))
            assert log_modular(u, p) <= log_modular(v, p) + 1e-12


HARD_CASES = ["ratio_5_up_to_40", "magnitudes_1e-2_to_1e2", "one_dominant_cell"]


def hard_instance(case):
    """Grid, values and exponents of a variable-exponent root that is hard for Newton."""
    rng = np.random.default_rng(29)
    grid = Grid.uniform_1d(0.0, 1.0, 256)
    if case == "ratio_5_up_to_40":
        vals = rng.uniform(0.5, 2.0, 256)
        pv = rng.uniform(8.0, 40.0, 256)
        pv[:2] = 8.0, 40.0
    elif case == "magnitudes_1e-2_to_1e2":
        vals = 10.0 ** rng.uniform(-2.0, 2.0, 256) * rng.choice([-1.0, 1.0], 256)
        pv = rng.uniform(2.0, 10.0, 256)
    else:
        vals = np.full(256, 1e-2)
        vals[97] = 1e2
        pv = rng.uniform(4.0, 20.0, 256)
    return grid, vals, pv


class TestLuxemburgNorm:
    def test_zero_function(self):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        assert luxemburg_norm(GridFunction.constant(grid, 0.0), ExponentField.constant(grid, 2.0)) == 0.0

    def test_constant_on_unit_mass(self):
        grid = Grid.uniform_1d(0.0, 1.0, 16)
        p = ExponentField.constant(grid, 5.0)
        assert luxemburg_norm(GridFunction.constant(grid, 3.25), p) == pytest.approx(3.25, rel=1e-11)

    def test_piecewise_norm_is_two(self):
        # with t = (2/lam)^2 the unit-modular equation reads t/2 + t^2/2 = 1,
        # whose positive root t = 1 gives lam = 2
        grid, p = piecewise_grid()
        u = GridFunction.constant(grid, 2.0)
        lam = luxemburg_norm(u, p)
        assert lam == pytest.approx(2.0, rel=1e-11)
        assert lam == pytest.approx(brentq_luxemburg(u.values, p.values, grid.weights), rel=1e-11)

    def test_matches_independent_root_finder(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            grid, u, p = random_instance(rng)
            if not np.any(u.values):
                continue
            lam = luxemburg_norm(u, p)
            ref = brentq_luxemburg(u.values, p.values, grid.weights)
            assert lam == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("case", HARD_CASES)
    def test_newton_root_on_hard_instances(self, case):
        grid, vals, pv = hard_instance(case)
        u, p = GridFunction(grid, vals), ExponentField(grid, pv)
        assert p.p_plus > p.p_minus
        ref = brentq_luxemburg(vals, pv, grid.weights)
        assert luxemburg_norm(u, p) == pytest.approx(ref, rel=1e-12)

    def test_root_raises_when_newton_stalls(self, monkeypatch):
        monkeypatch.setattr(exponent_space, "_ROOT_MAX_STEPS", 1)
        base = np.log([0.5, 0.5]) + np.array([2.0, 40.0]) * np.log([3.0, 0.1])
        with pytest.raises(ArithmeticError):
            luxemburg_root(base, np.array([2.0, 40.0]))

    def test_row_stack_matches_single_rows(self):
        rows = [hard_instance(case) for case in HARD_CASES]
        short = Grid.uniform_1d(0.0, 1.0, 5)
        rows.append((short, np.array([0.5, -2.0, 0.0, 1.5, 3.0]), np.linspace(2.0, 6.0, 5)))
        flat = Grid.uniform_1d(0.0, 1.0, 256)
        rows.append((flat, np.random.default_rng(3).normal(size=256), np.full(256, 6.0)))
        width = max(grid.n_cells for grid, _, _ in rows)
        base = np.full((len(rows), width), -np.inf)
        exps = np.ones((len(rows), width))
        singles = []
        for i, (grid, vals, pv) in enumerate(rows):
            nz = vals != 0
            row_base = grid.log_weights[nz] + pv[nz] * np.log(np.abs(vals[nz]))
            base[i, :row_base.size] = row_base
            exps[i, :row_base.size] = pv[nz]
            singles.append(luxemburg_root(row_base, pv[nz]))
        roots = luxemburg_root(base, exps)
        assert roots.shape == (len(rows),)
        for i, (grid, vals, pv) in enumerate(rows):
            if np.count_nonzero(vals) == width:
                assert np.array_equal(roots[i], singles[i])
            else:
                assert abs(roots[i] - singles[i]) <= 1e-15 * singles[i]
            assert roots[i] == pytest.approx(brentq_luxemburg(vals, pv, grid.weights), rel=1e-12)
        assert isinstance(singles[0], float)

    @pytest.mark.parametrize("exps", [[2.0, 40.0], [3.0, 3.0]], ids=["newton", "closed_form"])
    def test_one_row_is_one_call(self, monkeypatch, exps):
        # a one-row root runs the stack code directly, so a wrapper on the
        # module's luxemburg_root (such as the benchmark's call counter)
        # sees each call once
        calls = []
        true_root = exponent_space.luxemburg_root

        def counting(base, exponents):
            calls.append(np.shape(base))
            return true_root(base, exponents)

        monkeypatch.setattr(exponent_space, "luxemburg_root", counting)
        exps = np.array(exps)
        root = exponent_space.luxemburg_root(np.log([0.5, 0.5]) + exps * np.log([3.0, 0.1]), exps)
        assert calls == [(2,)]
        assert isinstance(root, float)

    def test_row_without_live_cells_has_root_zero(self):
        base = np.array([[-np.inf, -np.inf], [np.log(0.5), np.log(0.5)]])
        roots = luxemburg_root(base, np.array([[2.0, 3.0], [2.0, 3.0]]))
        assert roots[0] == 0.0 and roots[1] == pytest.approx(1.0, rel=1e-12)

    def test_batched_root_raises_when_newton_stalls(self, monkeypatch):
        monkeypatch.setattr(exponent_space, "_ROOT_MAX_STEPS", 1)
        base = np.log([0.5, 0.5]) + np.array([2.0, 40.0]) * np.log([3.0, 0.1])
        with pytest.raises(ArithmeticError):
            luxemburg_root(np.stack([base, base - 1.0]), np.array([[2.0, 40.0], [2.0, 40.0]]))

    def test_constant_exponent_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            grid, u, _ = random_instance(rng)
            q = float(rng.uniform(1.2, 9.0))
            p = ExponentField.constant(grid, q)
            # the closed form, well inside the root tolerance
            assert luxemburg_norm(u, p) == pytest.approx(
                constant_p_norm(u.values, grid.weights, q), rel=1e-14, abs=1e-300
            )

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            grid, u, p = random_instance(rng)
            c = float(rng.uniform(-50.0, 50.0))
            lhs = luxemburg_norm(u.scaled(c), p)
            rhs = abs(c) * luxemburg_norm(u, p)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            grid, u, p = random_instance(rng)
            v = GridFunction(grid, rng.normal(size=grid.n_cells))
            s = GridFunction(grid, u.values + v.values)
            assert luxemburg_norm(s, p) <= luxemburg_norm(u, p) + luxemburg_norm(v, p) + 1e-9

    def test_scaled_modular_strictly_decreasing(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            grid, u, p = random_instance(rng, allow_zeros=False)
            lams = np.geomspace(0.2, 5.0, 12) * float(np.max(np.abs(u.values)))
            vals = [log_modular(GridFunction(grid, u.values / lam), p) for lam in lams]
            assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


class TestNormModularRelations:
    def test_unit_function_equality_case(self):
        grid = Grid.uniform_1d(0.0, 1.0, 9)
        p = ExponentField(grid, np.linspace(1.5, 6.0, 9))
        u = GridFunction.constant(grid, 1.0)
        rep = verify_norm_modular_relations(u, p)
        assert rep.passed
        assert modular(u, p) == pytest.approx(1.0, rel=1e-12)
        assert luxemburg_norm(u, p) == pytest.approx(1.0, rel=1e-10)

    def test_piecewise_sandwich(self):
        grid, p = piecewise_grid()
        u = GridFunction.constant(grid, 2.0)
        rep = verify_norm_modular_relations(u, p)
        assert rep.passed
        assert 10.0 ** 0.25 <= 2.0 <= 10.0 ** 0.5

    def test_zero_function_report(self):
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        rep = verify_norm_modular_relations(GridFunction.constant(grid, 0.0), ExponentField.constant(grid, 2.0))
        assert rep.passed

    def test_overestimated_norm_breaks_the_unit_ball_equivalences(self, monkeypatch):
        # true norm 0.995 and modular 0.995^3 < 1; a root 1% too large puts
        # the norm outside the unit ball while the modular stays inside
        true_root = exponent_space.luxemburg_root
        monkeypatch.setattr(exponent_space, "luxemburg_root",
                            lambda base, exps: true_root(base, exps) * 1.01)
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        rep = verify_norm_modular_relations(GridFunction.constant(grid, 0.995),
                                            ExponentField.constant(grid, 3.0))
        failed = {c.name for c in rep.failures()}
        assert {"unit_ball_closed_iff", "unit_ball_open_iff", "exterior_iff"} <= failed
        assert "unit_sphere_iff" not in failed

    def test_randomized_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            _, u, p = random_instance(rng)
            rep = verify_norm_modular_relations(u, p)
            assert rep.passed, rep.failures()


class TestHolder:
    def test_unit_equality_edge(self):
        grid = Grid.uniform_1d(0.0, 1.0, 6)
        two = ExponentField.constant(grid, 2.0)
        one = ExponentField.constant(grid, 1.0)
        f = GridFunction.constant(grid, 1.0)
        rep = holder_check(f, f, two, two, one)
        assert rep.passed

    def test_constants_saturate(self):
        grid = Grid.uniform_1d(0.0, 1.0, 6)
        two = ExponentField.constant(grid, 2.0)
        one = ExponentField.constant(grid, 1.0)
        f = GridFunction.constant(grid, 2.0)
        g = GridFunction.constant(grid, 3.0)
        rep = holder_check(f, g, two, two, one)
        assert rep.passed
        # the pairing bound is tight for constants on unit mass
        pairing = [c for c in rep if c.name == "dual_pairing_bound"][0]
        assert pairing.slack == pytest.approx(0.0, abs=1e-9)

    def test_incompatible_exponents_raise(self):
        grid = Grid.uniform_1d(0.0, 1.0, 6)
        two = ExponentField.constant(grid, 2.0)
        three = ExponentField.constant(grid, 3.0)
        one = ExponentField.constant(grid, 1.0)
        with pytest.raises(StructuralError):
            holder_check(GridFunction.constant(grid, 1.0), GridFunction.constant(grid, 1.0), two, three, one)

    def test_randomized_conjugate_pair(self):
        rng = np.random.default_rng(29)
        grid = Grid.uniform_1d(0.0, 1.0, 64)
        p = ExponentField.constant(grid, 3.0)
        q = ExponentField.constant(grid, 1.5)
        s = ExponentField.constant(grid, 1.0)
        for _ in range(50):
            f = GridFunction(grid, rng.normal(size=64) * 10.0 ** rng.uniform(-1, 1))
            g = GridFunction(grid, rng.normal(size=64))
            rep = holder_check(f, g, p, q, s)
            assert rep.passed, rep.failures()

    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    def test_underestimated_norms_fail_at_any_magnitude(self, monkeypatch, scale):
        # the equality case of the s = 1 bounds: g = sign(f) |f|^(p-1) gives
        # ||fg||_1 = ||f||_p ||g||_q; with every root 1% too small both
        # checks fail by about a percent, which an absolute tolerance would
        # pass once the norms are small
        true_root = exponent_space.luxemburg_root
        monkeypatch.setattr(exponent_space, "luxemburg_root",
                            lambda base, exps: true_root(base, exps) / 1.01)
        grid = Grid.uniform_1d(0.0, 1.0, 32)
        fv = scale * np.random.default_rng(43).normal(size=32)
        p = ExponentField.constant(grid, 3.0)
        q = ExponentField.constant(grid, 1.5)
        s = ExponentField.constant(grid, 1.0)
        rep = holder_check(GridFunction(grid, fv), GridFunction(grid, np.sign(fv) * fv ** 2),
                           p, q, s)
        assert {c.name for c in rep.failures()} == {"product_norm_bound", "dual_pairing_bound"}

    def test_randomized_variable_exponents(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            cells = int(rng.integers(8, 64))
            grid = Grid.uniform_1d(0.0, float(rng.uniform(0.5, 2.0)), cells)
            sv = rng.uniform(1.0, 3.0, size=cells)
            theta = rng.uniform(0.2, 0.8, size=cells)
            pv = sv / theta
            qv = sv / (1.0 - theta)
            p, q, s = (ExponentField(grid, v) for v in (pv, qv, sv))
            f = GridFunction(grid, rng.normal(size=cells))
            g = GridFunction(grid, rng.normal(size=cells))
            rep = holder_check(f, g, p, q, s)
            assert rep.passed, rep.failures()


class TestPowerIdentity:
    def test_piecewise_square(self):
        grid, p = piecewise_grid()
        u = GridFunction.constant(grid, 2.0)
        rep = power_identity_check(u, p, 2.0 - 1e-9)
        assert rep.passed

    def test_constant_exponent_trivial(self):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        p = ExponentField.constant(grid, 5.0)
        u = GridFunction.constant(grid, 4.2)
        for s in (1.5, 2.0, 3.0, 4.9):
            assert power_identity_check(u, p, s).passed

    def test_power_outside_range_raises(self):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        p = ExponentField.constant(grid, 3.0)
        u = GridFunction.constant(grid, 1.0)
        for s in (0.5, 1.0, 3.0, 5.0):
            with pytest.raises(PreconditionError):
                power_identity_check(u, p, s)

    def test_randomized(self):
        rng = np.random.default_rng(37)
        grid = Grid.uniform_1d(0.0, 1.0, 64)
        p = ExponentField.constant(grid, 5.0)
        for _ in range(30):
            u = GridFunction(grid, rng.normal(size=64) * 3.0)
            assert power_identity_check(u, p, 2.0).passed


class TestEmbeddingBound:
    def test_unit_function(self):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        p = ExponentField(grid, np.linspace(2.0, 4.0, 8))
        rep = embedding_bound_check(GridFunction.constant(grid, 1.0), p, q=2.0, beta=2.0)
        assert rep.passed

    def test_piecewise_numbers(self):
        grid, p = piecewise_grid()
        u = GridFunction.constant(grid, 2.0)
        rep = embedding_bound_check(u, p, q=2.0, beta=2.0)
        assert rep.passed
        check = rep.checks[0]
        # lhs is the plain 2-norm of the constant 2; the bound evaluates to
        # (1 + (2/4)(2-1))^(1/2) * 2 = sqrt(1.5) * 2
        lhs = np.sum(grid.weights * np.abs(u.values) ** 2.0) ** 0.5
        assert lhs == pytest.approx(2.0, rel=1e-12)
        assert check.slack == pytest.approx(np.sqrt(1.5) * 2.0 - 2.0, rel=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_underestimated_norm_fails_at_any_magnitude(self, monkeypatch, scale):
        # q = p on unit measure: the constant is 1 and the bound an equality,
        # so a root 1% too small breaks it however small the norms are
        true_root = exponent_space.luxemburg_root
        monkeypatch.setattr(exponent_space, "luxemburg_root",
                            lambda base, exps: true_root(base, exps) / 1.01)
        grid = Grid.uniform_1d(0.0, 1.0, 16)
        u = GridFunction(grid, scale * np.random.default_rng(47).normal(size=16))
        assert not embedding_bound_check(u, ExponentField.constant(grid, 3.0), q=3.0).passed

    def test_constant_at_q_one_is_the_l1_embedding(self):
        # at q = 1 the constant is max(m^(1-1/p-), m^(beta(1-1/p+))) (1 + (beta-1)/p+)
        for m, pm, pp, beta in [(1.0, 4.0, 12.0, 3.0), (0.7, 2.5, 5.0, 2.0), (1.8, 8.0, 8.0, 1.5)]:
            expected = max(m ** (1.0 - 1.0 / pm), m ** (beta * (1.0 - 1.0 / pp)))
            expected *= 1.0 + (beta - 1.0) / pp
            assert embedding_constant(m, 1.0, pm, pp, beta) == expected

    def test_q_above_p_minus_raises(self):
        grid, p = piecewise_grid()
        with pytest.raises(PreconditionError):
            embedding_bound_check(GridFunction.constant(grid, 1.0), p, q=3.0)

    def test_randomized_including_edge(self):
        rng = np.random.default_rng(41)
        for k in range(60):
            grid, u, p = random_instance(rng)
            q = p.p_minus if k % 2 == 0 else float(rng.uniform(1.0, p.p_minus))
            rep = embedding_bound_check(u, p, q=q)
            assert rep.passed, rep.failures()


class TestNormLimit:
    def test_constant_function_exact(self):
        grid = Grid.uniform_1d(0.0, 1.0, 16)
        seq = ExponentSequence(grid, np.ones(16))
        u = GridFunction.constant(grid, 2.5)
        table = norm_limit_study(u, seq, [2, 4, 8, 16])
        for _, _, _, norm, _, err in table.rows:
            assert norm == pytest.approx(2.5, rel=1e-10)
            assert err < 1e-9
        assert table.passed

    def test_identity_profile_against_oracles(self):
        grid = Grid.uniform_1d(0.0, 1.0, 32)
        seq = ExponentSequence(grid, np.ones(32))
        u = GridFunction(grid, grid.points)
        ns = [4, 8, 16, 32, 64, 128, 200]
        table = norm_limit_study(u, seq, ns)
        for (n, _, _, norm, _, _), nval in zip(table.rows, ns):
            direct = constant_p_norm(u.values, grid.weights, float(nval))
            assert norm == pytest.approx(direct, rel=1e-10)
        assert table.verdicts["error_eventually_decreasing"]

    def test_variable_profile_decreasing(self):
        grid = Grid.uniform_1d(0.0, 1.0, 32)
        x = grid.cells[:, 0]
        seq = ExponentSequence(grid, 2.0 + np.sin(2 * np.pi * x))
        u = GridFunction(grid, grid.points)
        table = norm_limit_study(u, seq, [4, 8, 16, 32, 64, 128, 200])
        assert table.verdicts["error_eventually_decreasing"]
        assert table.meta["final_error"] < 0.02

    def test_fine_grid_matches_continuum(self):
        # for u(x) = x on (0,1), the q-norm is (1/(q+1))^(1/q); at q = 100
        # that is about 0.95499
        grid = Grid.uniform_1d(0.0, 1.0, 4000)
        u = GridFunction(grid, grid.points)
        p = ExponentField.constant(grid, 100.0)
        assert luxemburg_norm(u, p) == pytest.approx((1.0 / 101.0) ** 0.01, rel=1e-5)


class TestLogDomainConvention:
    """A vanishing cell is a -inf term log: it adds nothing and needs no mask."""

    def test_logsumexp_of_empty_and_non_finite_rows(self):
        assert _logsumexp(np.array([])) == -np.inf
        assert _logsumexp(np.full(3, -np.inf)) == -np.inf
        assert _logsumexp(np.array([0.5, np.inf, -np.inf])) == np.inf
        assert _logsumexp(np.array([0.0, np.log(3.0)])) == pytest.approx(np.log(4.0), rel=1e-15)
        assert np.array_equal(_logsumexp(np.zeros((3, 0))), np.full(3, -np.inf))

    def test_logsumexp_of_a_stack_is_its_rows(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(scale=50.0, size=(5, 200))
        rows[1, ::3] = -np.inf
        rows[2] = -np.inf
        rows[3, 7] = np.inf
        stacked = _logsumexp(rows)
        single = np.array([_logsumexp(row) for row in rows])
        assert np.array_equal(stacked, single)
        assert stacked[2] == -np.inf and stacked[3] == np.inf
        finite = rows[[0, 1, 4]]
        assert np.array_equal(_logsumexp(finite), single[[0, 1, 4]])

    @staticmethod
    def field_with_zeros():
        rng = np.random.default_rng(12)
        grid = Grid.uniform_1d(0.0, 1.3, 40)
        vals = rng.uniform(0.5, 3.0, 40) * rng.choice([-1.0, 1.0], 40)
        zero = rng.uniform(size=40) < 0.3
        vals[zero] = 0.0
        pv = rng.uniform(2.0, 6.0, 40)
        sub = Grid(1, grid.cells[~zero], grid.weights[~zero])
        return (grid, vals, pv), (sub, vals[~zero], pv[~zero])

    @staticmethod
    def functionals(grid, vals, pv):
        u = GridFunction(grid, vals)
        du = GridFunction(grid, 0.5 * vals)
        p = ExponentField(grid, pv)
        f = DensitySpec.weighted_norm(grid, 2.0)
        return {
            "log_modular": log_modular(u, p),
            "modular": modular(u, p),
            "luxemburg_norm": luxemburg_norm(u, p),
            "eval_calFn": eval_calFn(f, u, du, p),
            "eval_Fn": eval_Fn(f, u, du, p),
        }

    def test_zero_cells_match_the_field_without_them(self):
        full, restricted = self.field_with_zeros()
        assert 0 < np.count_nonzero(full[1] == 0.0) < full[1].size
        got = self.functionals(*full)
        want = self.functionals(*restricted)
        for name in got:
            assert got[name] == pytest.approx(want[name], rel=1e-14), name

    def test_zero_field(self):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        got = self.functionals(grid, np.zeros(8), np.linspace(2.0, 5.0, 8))
        assert got == {"log_modular": -np.inf, "modular": 0.0, "luxemburg_norm": 0.0,
                       "eval_calFn": 0.0,
                       "eval_Fn": 0.0}
