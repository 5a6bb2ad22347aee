import numpy as np
import pytest

from suplab import gamma_lab, solve
from suplab.discretize import (
    BoundarySpec,
    DiscreteField,
    MeshSpec,
    _cell_gradient,
    _cell_gradient_adjoint,
    gradient,
    interpolate_boundary,
)
from suplab.energy import DensitySpec, _density, eval_Fn
from suplab.exponent_space import (
    ExponentField,
    GridFunction,
    PreconditionError,
    StructuralError,
    _logsumexp,
)
from suplab.gamma_lab import StudyConfig, run_norm_gamma_study
from suplab.oracles import oracle_minimizer_1d, supremal_oracle_1d
from suplab.solve import _Descent, minimize_power

from _oracles import (
    el_slopes_constant_q,
    power_minimum_constant_q,
    power_minimum_variable_p,
    quadratic_energy_solve_2d,
)


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
        a = GridFunction(grid, 1.0 / (1.0 + grid.points))
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

    def test_plane_weight_refused(self):
        grid = MeshSpec(2, (1.0, 1.0), (4, 4), BoundarySpec.affine(0.0, 1.0, 0.0)).grid()
        with pytest.raises(PreconditionError, match="one-dimensional"):
            supremal_oracle_1d(GridFunction.constant(grid, 1.0), 0.0, 1.0)

    def test_minimizer_hits_boundary_data(self):
        grid = mesh_1d(50).grid()
        a = GridFunction(grid, 1.0 / (1.0 + grid.points))
        nodes = oracle_minimizer_1d(a, 0.25, 2.0)
        assert nodes[0] == pytest.approx(0.25)
        assert nodes[-1] == pytest.approx(2.0, rel=1e-12)
        # the equalizing profile has a |u'| constant at the oracle level
        du = np.diff(nodes) / grid.weights
        vals = a.values * du
        assert np.allclose(vals, supremal_oracle_1d(a, 0.25, 2.0), rtol=1e-10)


class TestPowerOracle:
    def test_equalizing_profile_attains_it(self):
        grid = mesh_1d(200).grid()
        a = GridFunction(grid, 1.0 / (1.0 + grid.points))
        for p in (1.5, 4.0, 16.0):
            slopes = a.values ** -(p / (p - 1.0))
            slopes *= 1.0 / np.sum(grid.weights * slopes)
            field = DiscreteField(mesh_1d(200), np.concatenate([[0.0], np.cumsum(grid.weights * slopes)]))
            value = eval_Fn(inverse_weight(grid), None, gradient(field), ExponentField.constant(grid, p))
            m_p = power_minimum_constant_q(a.values, grid.weights, p, 1.0)
            assert value == pytest.approx(m_p, rel=1e-12)

    def test_tends_to_supremal_oracle(self):
        grid = mesh_1d(200).grid()
        a = GridFunction(grid, 1.0 / (1.0 + grid.points))
        lstar = supremal_oracle_1d(a, 0.0, 1.0)
        gaps = [lstar - power_minimum_constant_q(a.values, grid.weights, p, 1.0)
                for p in (2.0, 8.0, 64.0, 1024.0)]
        assert all(g > 0 for g in gaps)
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * lstar

    @pytest.mark.parametrize("q", [1.5, 4.0, 64.0, 1024.0])
    def test_nested_root_reference_agrees_at_constant_q(self, q):
        # the variable-exponent reference solves the same KKT system by two
        # Brent roots; at a constant exponent Hoelder gives it in closed form
        grid = mesh_1d(200).grid()
        a = 1.0 / (1.0 + grid.points)
        m_q = power_minimum_constant_q(a, grid.weights, q, 1.0)
        assert power_minimum_variable_p(a, grid.weights, np.full(200, q), 1.0) == pytest.approx(
            m_q, rel=1e-13)

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_cold_solve_lands_on_it(self, p):
        mesh = mesh_1d(32)
        grid = mesh.grid()
        a = GridFunction(grid, 1.0 / (1.0 + grid.points))
        m_p = power_minimum_constant_q(a.values, grid.weights, p, 1.0)
        res = minimize_power("norm", inverse_weight(grid), ExponentField.constant(grid, p), mesh)
        assert -1e-12 <= (res.objective - m_p) / m_p <= 1e-6


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
        # the capped_norm row has no smoothed gradient
        mesh = mesh_1d(8)
        f = DensitySpec(mesh.grid(), "capped_norm")
        p = ExponentField.constant(mesh.grid(), 4.0)
        with pytest.raises(PreconditionError):
            minimize_power("norm", f, p, mesh)

    @pytest.mark.parametrize("case, other, message", [
        ("exponent", mesh_1d(6), "different grids: ExponentField against Grid"),
        ("density", mesh_1d(6), "different grids: DensitySpec against Grid"),
        # same cell count on (0, 4): a density read there would be solved on
        # (0, 1) to a wrong minimum, and an exponent field refused only by the
        # final evaluation, after the whole descent
        ("exponent", MeshSpec(1, (4.0,), (8,), BoundarySpec.endpoints(0.0, 1.0)),
         "different grids: ExponentField against Grid"),
        ("density", MeshSpec(1, (4.0,), (8,), BoundarySpec.endpoints(0.0, 1.0)),
         "different grids: DensitySpec against Grid"),
        ("warm_start", mesh_1d(6), "warm start lives on a different mesh"),
        # same cell count: the warm start's boundary values would be solved for
        ("warm_start", mesh_1d(8, g1=2.0), "warm start lives on a different mesh"),
        ("warm_start", MeshSpec(1, (2.0,), (8,), BoundarySpec.endpoints(0.0, 1.0)),
         "warm start lives on a different mesh"),
    ], ids=["exponent", "density", "exponent_same_size", "density_same_size", "warm_start",
            "warm_start_trace", "warm_start_extent"])
    def test_mesh_mismatch_rejected(self, case, other, message, monkeypatch):
        mesh = mesh_1d(8)
        on = {part: other if part == case else mesh
              for part in ("exponent", "density", "warm_start")}
        f = DensitySpec.weighted_norm(on["density"].grid(), lambda x: 1.0 / (1.0 + x))
        p = ExponentField.constant(on["exponent"].grid(), 4.0)
        init = interpolate_boundary(on["warm_start"])

        def no_descent(*args):
            raise AssertionError("a descent started before the refusal")

        monkeypatch.setattr(solve, "_Descent", no_descent)
        with pytest.raises(StructuralError, match=message):
            minimize_power("norm", f, p, mesh, init=init)

    def test_warm_start_off_the_trace_rejected(self):
        # the descent never moves a boundary node: from u(1) = 2 on the
        # trace u(1) = 1 it would return the minimum for the wrong trace,
        # 2.0 instead of 1.0, with end values [0, 2]
        mesh = mesh_1d(16)
        f = DensitySpec.weighted_norm(mesh.grid(), 1.0)
        p = ExponentField.constant(mesh.grid(), 4.0)
        nodes = np.array(interpolate_boundary(mesh).node_values)
        nodes[-1] = 2.0
        with pytest.raises(StructuralError, match="off its trace"):
            minimize_power("norm", f, p, mesh, init=DiscreteField(mesh, nodes))

    def test_vanishing_density_ends_each_stage_at_once(self):
        # a = 0 leaves every cell free: every stage's norm is 0 before any step
        mesh = mesh_1d(8)
        f = DensitySpec.weighted_norm(mesh.grid(), 0.0, alpha=1e-6)
        res = minimize_power("norm", f, ExponentField.constant(mesh.grid(), 4.0), mesh)
        assert (res.objective, res.iterations, res.residual) == (0.0, 0, 0.0)
        assert res.traces == ((0.0,),) * len(solve._EPSILONS)
        assert np.array_equal(res.field.node_values, interpolate_boundary(mesh).node_values)

    def test_unknown_functional_rejected(self):
        mesh = mesh_1d(8)
        f = DensitySpec.weighted_norm(mesh.grid(), 1.0)
        p = ExponentField.constant(mesh.grid(), 4.0)
        with pytest.raises(PreconditionError):
            minimize_power("maximal", f, p, mesh)


class TestIntegralMinimization:
    def test_quadratic_matches_linear_solve(self, monkeypatch):
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
        # no trace kind takes x^2 - y^2/2 yet, so the start stands in for the
        # mesh's trace: it is what the solver compares a warm start with
        monkeypatch.setattr(solve, "interpolate_boundary", lambda m: start)

        f = DensitySpec.weighted_norm(grid, 1.0)
        p = ExponentField.constant(grid, 2.0)
        monkeypatch.setattr(solve, "_EPSILONS", (1e-3,))
        monkeypatch.setattr(solve, "_TOL", 1e-16)
        monkeypatch.setattr(solve, "_MAX_ITER", 60000)
        res = minimize_power("integral", f, p, mesh, init=start)
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

    def test_overflowing_integral_ends_by_its_stop_rule(self):
        # calF = sum (w/p) f^p overflows the float range here, so its linear
        # value is the +inf sentinel throughout; the stage stop test reads
        # its log and ends the solve far inside the 120,000-step budget
        mesh = mesh_1d(24, g1=10.0)
        grid = mesh.grid()
        p = ExponentField.constant(grid, 400.0)
        res = minimize_power("integral", inverse_weight(grid), p, mesh)
        assert res.objective == np.inf
        assert not res.stagnated
        assert res.iterations < 60_000

    def test_epsilon_floor_robustness(self, monkeypatch):
        mesh = mesh_1d(64)
        grid = mesh.grid()
        f = inverse_weight(grid)
        p = ExponentField.constant(grid, 16.0)
        r1 = minimize_power("norm", f, p, mesh)
        monkeypatch.setattr(solve, "_EPSILONS", solve._EPSILONS + (5e-7,))
        r2 = minimize_power("norm", f, p, mesh)
        assert abs(r1.objective - r2.objective) / r1.objective < 1e-3


def sequential_descent(backtracks):
    """``_Descent.run`` before batching.

    Backtracking tries one step at a time, and every density is computed
    afresh: at the start of each run and at each trial.  ``backtracks``
    collects the shrinks of every accepted step.
    """

    def evaluate(self, unodes, term_logs_fn):
        xi = _cell_gradient(self.mesh, unodes)
        f, dlog = _density(self.spec, xi, None, self.eps)
        if self.positive:
            logf = np.log(f)
        else:
            mask = f > 0
            logf = np.full(f.shape, -np.inf)
            logf[mask] = np.log(f[mask])
        terms, pfac = term_logs_fn(logf)
        return _logsumexp(terms), (terms, pfac, logf, dlog)

    def run(self, term_logs_fn, max_steps):
        u = self.u
        phi, parts = evaluate(self, u, term_logs_fn)
        iters, stagnated, gnorm = 0, False, np.inf
        while iters < max_steps:
            terms, pfac, _, dlog = parts
            sigma = np.exp(terms - phi) if np.isfinite(phi) else np.zeros_like(terms)
            g = _cell_gradient_adjoint(self.mesh, (sigma * pfac)[:, None] * dlog)
            gnorm = float(np.max(np.abs(g)))
            gg = float(np.sum(g * g))
            if gg == 0.0:
                break
            t = self.t0
            for shrinks in range(solve._MAX_BACKTRACKS):
                trial = u - t * g
                phi_new, parts_new = evaluate(self, trial, term_logs_fn)
                if phi_new <= phi - solve._SUFFICIENT_DECREASE * t * gg:
                    break
                t *= solve._STEP_SHRINK
            else:
                stagnated = True
                break
            backtracks.append(shrinks)
            drop = phi - phi_new
            u, phi, parts = trial, phi_new, parts_new
            iters += 1
            self.t0 = t * 4.0
            if drop < solve._TOL:
                break
        # the stage value is refreshed from this state
        self.u, self.logf, self.dlog = u, parts[2], parts[3]
        return iters, stagnated, gnorm

    return run


def perturbed(mesh, scale, seed):
    nodes = np.array(interpolate_boundary(mesh).node_values)
    rng = np.random.default_rng(seed)
    if mesh.dimension == 1:
        nodes[1:-1] += scale * rng.normal(size=nodes.size - 2)
    else:
        nodes[1:-1, 1:-1] += scale * rng.normal(size=(nodes.shape[0] - 2, nodes.shape[1] - 2))
    return DiscreteField(mesh, nodes)


def case_variable_exponent():
    mesh = mesh_1d(24)
    grid = mesh.grid()
    p = ExponentField(grid, 8.0 * (2.0 + np.sin(2 * np.pi * grid.cells[:, 0])))
    return "norm", inverse_weight(grid), p, mesh, None


def case_anisotropic_2d():
    # the perturbed start reaches the exact affine minimizer, where every P1
    # cell sits on the tie of max(|xi_1|, 2 |xi_2|) = 1 and no trial step
    # decreases phi by the Armijo margin: the descent stagnates at the minimum
    mesh = MeshSpec(2, (1.0, 1.0), (6, 6), BoundarySpec.affine(0.0, 1.0, 0.5))
    grid = mesh.grid()
    f = DensitySpec.anisotropic(grid, [1.0, 2.0])
    return "norm", f, ExponentField.constant(grid, 6.0), mesh, perturbed(mesh, 0.2, 5)


def case_shifted():
    mesh = mesh_1d(24)
    grid = mesh.grid()
    f = DensitySpec.shifted_norm(grid, 0.3)
    return "norm", f, ExponentField.constant(grid, 6.0), mesh, perturbed(mesh, 0.1, 6)


def case_zero_weight_cell():
    mesh = mesh_1d(24)
    grid = mesh.grid()
    a = 1.0 / (1.0 + grid.cells[:, 0])
    a[5] = 0.0
    f = DensitySpec.weighted_norm(grid, a, alpha=1e-9)
    return "norm", f, ExponentField.constant(grid, 6.0), mesh, None


def case_integral():
    mesh = mesh_1d(24)
    grid = mesh.grid()
    return "integral", inverse_weight(grid), ExponentField.constant(grid, 4.0), mesh, None


def case_stagnation():
    # the affine start already minimizes |u' - 0.3|: the line search runs out
    mesh = mesh_1d(24)
    grid = mesh.grid()
    f = DensitySpec.shifted_norm(grid, 0.3)
    return "norm", f, ExponentField.constant(grid, 6.0), mesh, None


class TestBatchedLineSearch:
    """The batched trials and the cached density state change no iterate."""

    @pytest.mark.parametrize("case", [
        case_variable_exponent, case_anisotropic_2d, case_shifted,
        case_zero_weight_cell, case_integral, case_stagnation,
    ])
    def test_matches_sequential_backtracking(self, monkeypatch, case):
        monkeypatch.setattr(solve, "_EPSILONS", (1e-1, 1e-2, 1e-3))
        monkeypatch.setattr(solve, "_MAX_ITER", 500)
        functional, f, p, mesh, init = case()
        batched = minimize_power(functional, f, p, mesh, init=init)
        backtracks = []
        monkeypatch.setattr(_Descent, "run", sequential_descent(backtracks))
        reference = minimize_power(functional, f, p, mesh, init=init)
        assert np.array_equal(batched.field.node_values, reference.field.node_values)
        assert batched.traces == reference.traces
        assert batched.iterations == reference.iterations
        assert batched.stagnated == reference.stagnated
        assert batched.residual == reference.residual
        assert batched.objective == reference.objective
        # every batch of trials failed, up to the cap, only where the
        # iterate is a minimizer the line search cannot improve
        assert batched.stagnated == (case in (case_stagnation, case_anisotropic_2d))
        if case is not case_stagnation:
            # some accepted step lies past the first batch of trials
            assert max(backtracks) >= solve._TRIALS


class TestWorkCount:
    def test_one_density_pass_per_iteration(self, monkeypatch):
        # one pass per stage plus one per batch of trials; recomputing the
        # density for each trial, norm refresh and run start costs ~3 per
        # iteration
        calls = []
        results = []

        def density(*args):
            calls.append(1)
            return _density(*args)

        def minimize(*args, **kw):
            results.append(minimize_power(*args, **kw))
            return results[-1]

        monkeypatch.setattr(solve, "_density", density)
        monkeypatch.setattr(gamma_lab, "minimize_power", minimize)
        monkeypatch.setattr(solve, "_EPSILONS", (1e-1, 1e-2, 1e-3))
        mesh = mesh_1d(32)
        cfg = StudyConfig(kind="norm_gamma", density=inverse_weight(mesh.grid()), mesh=mesh,
                          profile="sine", n_schedule=(4, 8))
        run_norm_gamma_study(cfg)
        iterations = sum(r.iterations for r in results)
        stages = sum(len(r.traces) for r in results)
        assert iterations > 100
        assert len(calls) <= 1.2 * iterations + stages
