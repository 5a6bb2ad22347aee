import dataclasses
import re

import numpy as np
import pytest

from suplab import cli, gamma_lab
from suplab.discretize import BoundarySpec, MeshSpec, interpolate_boundary
from suplab.energy import DensitySpec
from suplab.exponent_space import (
    ExponentSequence,
    Grid,
    GridFunction,
    PreconditionError,
    StructuralError,
)
from suplab.gamma_lab import (
    DIVERGENCE_THRESHOLD,
    StudyConfig,
    named_profile,
    norm_limit_study,
    run_integral_dichotomy_study,
    run_minimizer_convergence,
    run_norm_gamma_study,
    run_norm_limit,
)
from suplab.oracles import limit_minimizer, study_oracle
from suplab.reports import Table
from suplab.solve import SolveResult


# a 1-D unit-weight config; its [study] section is appended per test
SMALL_CONFIG = """
[density]
family = weighted_norm
a = constant

[mesh]
cells = 8

[exponents]
profile = constant
n_schedule = 4 8
"""


def refuse_without_running(monkeypatch, tmp_path, subcommand, text):
    """The ConfigError ``cli.run(subcommand)`` raises on ``text``; no runner may run."""
    for row in gamma_lab._STUDIES.values():
        monkeypatch.setattr(gamma_lab, row.runner,
                            lambda cfg, name=row.runner: pytest.fail(f"{name} ran"))
    path = tmp_path / "study.ini"
    path.write_text(text)
    with pytest.raises(cli.ConfigError) as err:
        cli.run(subcommand, str(path), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    return str(err.value)


def benchmark_config(kind="norm_gamma", cells=64, profile="constant",
                     schedule=(4, 8, 16, 32), **kw):
    mesh = MeshSpec(1, (1.0,), (cells,), BoundarySpec.endpoints(0.0, 1.0))
    dens = DensitySpec.weighted_norm(mesh.grid(), lambda x: 1.0 / (1.0 + x), alpha=0.5)
    return StudyConfig(kind=kind, density=dens, mesh=mesh, profile=profile,
                       n_schedule=schedule, **kw)


def unit_weight_config(kind="norm_gamma", cells=32, profile="constant",
                       schedule=(4, 8, 16), **kw):
    mesh = MeshSpec(1, (1.0,), (cells,), BoundarySpec.endpoints(0.0, 1.0))
    dens = DensitySpec.weighted_norm(mesh.grid(), 1.0)
    return StudyConfig(kind=kind, density=dens, mesh=mesh, profile=profile,
                       n_schedule=schedule, **kw)


class TestConfigValidation:
    def test_schedule_must_increase(self):
        with pytest.raises(StructuralError):
            unit_weight_config(schedule=(8, 4))

    def test_schedule_must_start_at_one(self):
        # the sweep rule norm_limit_study and young_q_limit share
        with pytest.raises(StructuralError, match="the n schedule must start at 1 or above, got 0"):
            unit_weight_config(schedule=(0, 4))

    @pytest.mark.parametrize("schedule, bad", [
        ((4.9, 8.2), 4.9), ((4.2, 4.9), 4.2), ((4, np.float64(8.0)), np.float64(8.0)),
        (("4", "8"), "4"), ((True, 4), True),
    ], ids=["floats", "floats_in_one_integer", "numpy_float", "str", "bool"])
    def test_non_integer_schedule_refused(self, schedule, bad):
        # int() would run (4, 8) for the first and call the second not
        # increasing; operator.index alone would run (True, 4) as (1, 4)
        with pytest.raises(StructuralError,
                           match=re.escape(f"n_schedule entry must be an integer, got {bad!r}")):
            unit_weight_config(profile="constant:3", schedule=schedule)

    def test_numpy_integer_schedule_is_accepted(self):
        cfg = unit_weight_config(schedule=np.array([4, 8]))
        assert cfg.n_schedule == (4, 8) and type(cfg.n_schedule[0]) is int

    def test_unknown_kind(self):
        with pytest.raises(StructuralError):
            unit_weight_config(kind="telescope")

    @pytest.mark.parametrize("kind, change, message", [
        # a zero probe gives all-zero rows and a passing verdict
        ("integral_dichotomy", {"probe_scale": 0.0}, "probe_scale: must be > 0, got 0.0"),
        ("norm_limit", {"probe_scale": -1.0}, "probe_scale: must be > 0, got -1.0"),
        # a negative threshold fails every verdict
        ("norm_gamma", {"threshold": -0.5}, "threshold: must be >= 0, got -0.5"),
        # an infinite threshold passes any error; a non-finite probe failed
        # late, as non-finite grid values
        ("norm_limit", {"threshold": np.inf}, "threshold: must be finite, got inf"),
        ("norm_gamma", {"threshold": np.nan}, "threshold: must be finite, got nan"),
        ("norm_limit", {"probe_scale": np.inf}, "probe_scale: must be finite, got inf"),
        ("integral_dichotomy", {"probe_scale": np.nan}, "probe_scale: must be finite, got nan"),
    ], ids=["zero_probe", "negative_probe", "negative_threshold", "infinite_threshold",
            "nan_threshold", "infinite_probe", "nan_probe"])
    def test_out_of_range_value_is_refused(self, kind, change, message):
        cfg = unit_weight_config(kind=kind)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            dataclasses.replace(cfg, **change)

    @pytest.mark.parametrize("extent, cells", [(4.0, 16), (1.0, 8)],
                             ids=["same_size", "fewer_cells"])
    def test_density_off_the_mesh_grid_refused(self, extent, cells):
        # on (0, 4) the weights 1/(1+x) would be solved on (0, 1): the study
        # would pass against the oracle 1/3 of another problem
        mesh = MeshSpec(1, (1.0,), (16,), BoundarySpec.endpoints(0.0, 1.0))
        grid = Grid.uniform_1d(0.0, extent, cells)
        dens = DensitySpec.weighted_norm(grid, lambda x: 1.0 / (1.0 + x))
        with pytest.raises(StructuralError, match="different grids: DensitySpec against Grid"):
            StudyConfig(kind="norm_gamma", density=dens, mesh=mesh, profile="constant")

    @pytest.mark.parametrize("kind", list(gamma_lab._STUDIES))
    def test_runner_refuses_another_kind(self, monkeypatch, tmp_path, kind):
        # the runners hold no kind guard: the subcommand's check refuses a
        # config of another kind before any runner is looked up
        other = "norm_limit" if kind == "norm_gamma" else "norm_gamma"
        message = refuse_without_running(monkeypatch, tmp_path, gamma_lab._STUDIES[kind].subcommand,
                                         SMALL_CONFIG + f"\n[study]\nkind = {other}\n")
        assert message.endswith(f"needs kind {kind!r}, got {other!r}")

    def test_exponents_checked_through_sequence(self):
        # 4 * 0.25 = 1 is not above 1; a later n cannot repair the first
        with pytest.raises(PreconditionError, match="n = 4"):
            unit_weight_config(profile="constant:0.25", schedule=(4, 8))
        unit_weight_config(profile="constant:0.25", schedule=(5, 8))

    def test_sine_profile_needs_wide_beta(self):
        # the profile's range [1, 3] is its ratio bound; sampled at the cell
        # centers it stays just inside
        beta = unit_weight_config(profile="sine").sequence().beta
        assert 2.9 < beta < 3.0


class TestNamedProfile:
    def test_flat_spellings_agree(self):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        for name in ("constant", "constant:1"):
            np.testing.assert_array_equal(named_profile(name, grid), np.ones(8))
        np.testing.assert_array_equal(named_profile("constant:2.5", grid), np.full(8, 2.5))

    def test_profiles_of_x(self):
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        x = grid.cells[:, 0]
        np.testing.assert_array_equal(named_profile("sine", grid), 2.0 + np.sin(2.0 * np.pi * x))
        np.testing.assert_array_equal(named_profile("inverse_one_plus_x", grid), 1.0 / (1.0 + x))
        np.testing.assert_array_equal(named_profile("piecewise:1,3", grid), [1.0, 1.0, 3.0, 3.0])

    def test_plane_profiles_follow_x(self):
        grid = MeshSpec(2, (1.0, 1.0), (2, 3), BoundarySpec.affine(0.0, 0.0, 0.0)).grid()
        vals = named_profile("inverse_one_plus_x", grid)
        np.testing.assert_array_equal(vals, 1.0 / (1.0 + grid.cells[:, 0]))

    @pytest.mark.parametrize("name", [
        "bogus", "one", "Constant", "constant:", "constant:abc", "constant:1,2", "constant:inf",
        "piecewise:1", "piecewise:1,x", "piecewise:1,2,3",
    ])
    def test_bad_names_are_structural_errors(self, name):
        with pytest.raises(StructuralError, match="profile"):
            named_profile(name, Grid.uniform_1d(0.0, 1.0, 4))


class TestOracles:
    def test_unit_weight_oracle(self):
        assert study_oracle(unit_weight_config()) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_weight_oracle(self):
        assert study_oracle(benchmark_config()) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_2d_affine_oracle(self):
        mesh = MeshSpec(2, (1.0, 1.0), (4, 4), BoundarySpec.affine(0.0, 3.0, 4.0))
        dens = DensitySpec.weighted_norm(mesh.grid(), 2.0)
        cfg = StudyConfig(kind="norm_gamma", density=dens, mesh=mesh,
                          profile="constant", n_schedule=(4, 8))
        assert study_oracle(cfg) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("slopes, value", [((1e200, 0.0), 1e200), ((1e-200, 0.0), 1e-200),
                                               ((3e200, 4e200), 5e200)],
                             ids=["huge", "tiny", "huge_both"])
    def test_2d_oracle_is_exact_far_from_one(self, slopes, value):
        # the slope magnitude is the densities' norm: no square to overflow or underflow
        mesh = MeshSpec(2, (1.0, 1.0), (4, 4), BoundarySpec.affine(0.0, *slopes))
        cfg = StudyConfig(kind="norm_gamma", density=DensitySpec.weighted_norm(mesh.grid(), 1.0),
                          mesh=mesh, profile="constant", n_schedule=(4,))
        with np.errstate(all="raise"):
            assert study_oracle(cfg) == pytest.approx(value, rel=1e-12)

    def test_2d_oracle_needs_constant_weight(self):
        mesh = MeshSpec(2, (1.0, 1.0), (4, 4), BoundarySpec.affine(0.0, 3.0, 4.0))
        dens = DensitySpec.weighted_norm(mesh.grid(),
                                         named_profile("inverse_one_plus_x", mesh.grid()))
        cfg = StudyConfig(kind="norm_gamma", density=dens, mesh=mesh,
                          profile="constant", n_schedule=(4, 8))
        with pytest.raises(PreconditionError, match="constant weight"):
            run_norm_gamma_study(cfg)

    def test_1d_affine_trace_is_its_end_values(self):
        # stored as endpoints(c0, c0 + L cx): trace, oracle, initial field
        # and limiting minimizer agree bit for bit
        c0, cx, extent = 0.1, 1.3, 0.7
        affine = MeshSpec(1, (extent,), (16,), BoundarySpec.affine(c0, cx))
        ends = MeshSpec(1, (extent,), (16,), BoundarySpec.endpoints(c0, c0 + extent * cx))
        assert affine.boundary == ends.boundary
        assert np.array_equal(interpolate_boundary(affine).node_values,
                              interpolate_boundary(ends).node_values)

        def config(mesh):
            dens = DensitySpec.weighted_norm(mesh.grid(), lambda x: 1.0 / (1.0 + x))
            return StudyConfig(kind="norm_gamma", density=dens, mesh=mesh,
                               profile="constant", n_schedule=(4,))

        assert study_oracle(config(affine)) == study_oracle(config(ends))
        assert np.array_equal(limit_minimizer(config(affine)).node_values,
                              limit_minimizer(config(ends)).node_values)

    def test_2d_limit_minimizer_is_the_affine_trace(self):
        mesh = MeshSpec(2, (1.0, 2.0), (4, 3), BoundarySpec.affine(0.5, 3.0, -4.0))
        cfg = StudyConfig(kind="norm_gamma", density=DensitySpec.weighted_norm(mesh.grid(), 2.0),
                          mesh=mesh, profile="constant", n_schedule=(4,))
        X, Y = np.meshgrid(*mesh.node_axes(), indexing="ij")
        np.testing.assert_allclose(limit_minimizer(cfg).node_values, 0.5 + 3.0 * X - 4.0 * Y,
                                   rtol=1e-14, atol=1e-14)

    def test_piecewise_limit_minimizer(self):
        # weight 1 on (0, 1/2) and 2 on (1/2, 1): value 1/(1/2 + 1/4) = 4/3,
        # slopes 4/3 and 2/3
        mesh = MeshSpec(1, (1.0,), (64,), BoundarySpec.endpoints(0.0, 1.0))
        x = mesh.grid().cells[:, 0]
        dens = DensitySpec.weighted_norm(mesh.grid(), np.where(x < 0.5, 1.0, 2.0))
        cfg = StudyConfig(kind="constant_exponent", density=dens, mesh=mesh,
                          profile="constant", n_schedule=(4,))
        assert study_oracle(cfg) == pytest.approx(4.0 / 3.0, rel=1e-12)
        nodes = limit_minimizer(cfg).node_values
        du = np.diff(nodes) * 64.0
        assert np.allclose(du[:32], 4.0 / 3.0, rtol=1e-10)
        assert np.allclose(du[32:], 2.0 / 3.0, rtol=1e-10)


class TestNormGammaStudy:
    def test_unit_weight_rows_are_exact(self):
        res = run_norm_gamma_study(unit_weight_config())
        for n, pm, pp, value, oracle, err in res.rows:
            assert oracle == pytest.approx(1.0)
            assert value == pytest.approx(1.0, rel=1e-8)
            assert err < 1e-6
        assert res.passed

    def test_benchmark_errors_decrease(self):
        res = run_norm_gamma_study(benchmark_config())
        errs = [r[5] for r in res.rows]
        assert res.verdicts["error_eventually_decreasing"], errs
        assert res.verdicts["final_error_below_threshold"]
        assert res.verdicts["bounds_ok"]
        assert res.meta["oracle"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_variable_profile_reaches_same_limit(self):
        const = run_norm_gamma_study(benchmark_config(schedule=(8, 16, 32)))
        sine = run_norm_gamma_study(
            benchmark_config(profile="sine", schedule=(8, 16, 32))
        )
        m_const = const.rows[-1][3]
        m_sine = sine.rows[-1][3]
        assert abs(m_const - m_sine) / m_const < 0.01
        assert sine.verdicts["error_eventually_decreasing"]

    def test_density_rescaling_scales_everything(self):
        cfg1 = benchmark_config(cells=32, schedule=(4, 8, 16))
        mesh = cfg1.mesh
        c = 3.5
        dens_scaled = DensitySpec.weighted_norm(
            mesh.grid(), lambda x: c / (1.0 + x), alpha=0.5 * c
        )
        cfg2 = StudyConfig(kind="norm_gamma", density=dens_scaled, mesh=mesh,
                           profile="constant", n_schedule=(4, 8, 16))
        r1 = run_norm_gamma_study(cfg1)
        r2 = run_norm_gamma_study(cfg2)
        assert r2.meta["oracle"] == pytest.approx(c * r1.meta["oracle"], rel=1e-12)
        for row1, row2 in zip(r1.rows, r2.rows):
            assert row2[3] == pytest.approx(c * row1[3], rel=1e-8)

    def test_wrong_kind_rejected(self, monkeypatch, tmp_path):
        # a config without [study] kind is a norm_gamma config: every other
        # subcommand refuses it, so a forgotten kind cannot run another study
        for kind, row in gamma_lab._STUDIES.items():
            if kind != "norm_gamma":
                message = refuse_without_running(monkeypatch, tmp_path, row.subcommand,
                                                 SMALL_CONFIG)
                assert message.endswith(f"needs kind {kind!r}, got 'norm_gamma'")

    @pytest.mark.parametrize("minimum, ok", [(0.4, False), (0.5, True), (1.5, False)])
    def test_floor_uses_the_profile_ratio(self, monkeypatch, minimum, ok):
        # a flat profile has beta = 1, so at p = 4 the floor is
        # alpha |g1 - g0| = 0.5; a declared beta = 3 would lower it to
        # 0.5 / (1 + 2/4) = 1/3 and accept 0.4.  The ceiling is the affine
        # start's value, 1.0, so 1.5 fails it
        mesh = MeshSpec(1, (1.0,), (32,), BoundarySpec.endpoints(0.0, 1.0))
        dens = DensitySpec.weighted_norm(mesh.grid(), 1.0, alpha=0.5)
        cfg = StudyConfig(kind="norm_gamma", density=dens, mesh=mesh,
                          profile="constant", n_schedule=(4,))
        fake = SolveResult(interpolate_boundary(mesh), minimum, 0, ((minimum,),), 0.0, False)
        monkeypatch.setattr(gamma_lab, "minimize_power", lambda *args, **kw: fake)
        assert run_norm_gamma_study(cfg).verdicts["bounds_ok"] is ok

    def test_2d_affine_data(self):
        # the affine extension is optimal for a constant weight, so every
        # row equals the oracle up to solver tolerance
        mesh = MeshSpec(2, (1.0, 1.0), (8, 8), BoundarySpec.affine(0.0, 1.0, 0.0))
        dens = DensitySpec.weighted_norm(mesh.grid(), 1.0)
        cfg = StudyConfig(kind="norm_gamma", density=dens, mesh=mesh,
                          profile="constant", n_schedule=(4, 8))
        res = run_norm_gamma_study(cfg)
        for row in res.rows:
            assert row[3] == pytest.approx(1.0, rel=1e-7)
        assert res.passed

    def test_solving_studies_share_the_sweep(self):
        # the same problem under both solving kinds: the same warm-started
        # solves, so the same traces and stagnant rows, each in a Table
        gamma = run_norm_gamma_study(benchmark_config(cells=16, schedule=(4, 8)))
        mini = run_minimizer_convergence(
            benchmark_config(kind="constant_exponent", cells=16, schedule=(4, 8)))
        assert isinstance(gamma, Table) and isinstance(mini, Table)
        assert gamma.meta["traces"] == mini.meta["traces"]
        assert gamma.meta["stagnant_rows"] == mini.meta["stagnant_rows"] == []
        assert set(gamma.meta["traces"]) == {4, 8}


class TestDichotomyStudy:
    def test_vanishing_branch_closed_form(self):
        cfg = unit_weight_config(kind="integral_dichotomy", schedule=(10, 30, 50),
                                 probe_scale=0.5)
        res = run_integral_dichotomy_study(cfg)
        assert res.meta["branch"] == "vanishing"
        assert res.meta["sup"] == pytest.approx(0.5, rel=1e-12)
        # flat profile: the value is exactly (1/n) 2^-n on unit mass
        for (n, _, _, val, oracle, _) in res.rows:
            assert oracle == 0.0
            assert val == pytest.approx((0.5 ** n) / n, rel=1e-10)
        assert res.verdicts["vanishes_by_final_n"]

    def test_diverging_branch_closed_form(self):
        cfg = unit_weight_config(kind="integral_dichotomy", schedule=(10, 20, 34),
                                 probe_scale=2.0)
        res = run_integral_dichotomy_study(cfg)
        assert res.meta["branch"] == "diverging"
        for (n, _, _, val, oracle, _) in res.rows:
            assert np.isinf(oracle)
            assert val == pytest.approx((2.0 ** n) / n, rel=1e-10)
        assert res.verdicts["diverges_by_final_n"]

    def test_boundary_probe_rejected(self):
        cfg = unit_weight_config(kind="integral_dichotomy", probe_scale=1.0)
        with pytest.raises(PreconditionError):
            run_integral_dichotomy_study(cfg)

    def test_sine_profile_diverges_early(self):
        cfg = unit_weight_config(kind="integral_dichotomy", profile="sine",
                                 schedule=(5, 10, 20, 30), probe_scale=2.0)
        res = run_integral_dichotomy_study(cfg)
        assert res.rows[-1][3] >= DIVERGENCE_THRESHOLD
        assert res.verdicts["diverges_by_final_n"]


class TestMinimizerStudy:
    def test_unit_weight_distance_zero(self):
        cfg = unit_weight_config(kind="constant_exponent", schedule=(4, 8))
        res = run_minimizer_convergence(cfg)
        for row in res.rows:
            assert row[3] < 1e-7
        assert res.passed

    def test_benchmark_distances_decrease(self):
        cfg = benchmark_config(kind="constant_exponent", schedule=(4, 8, 16, 32),
                               threshold=0.01)
        res = run_minimizer_convergence(cfg)
        dists = [r[3] for r in res.rows]
        assert res.verdicts["distance_eventually_decreasing"], dists
        assert dists[-1] < 0.01
        assert set(res.meta["fields"]) == {4, 8, 16, 32}

    def test_piecewise_weight_distances_decrease(self):
        mesh = MeshSpec(1, (1.0,), (64,), BoundarySpec.endpoints(0.0, 1.0))
        x = mesh.grid().cells[:, 0]
        dens = DensitySpec.weighted_norm(mesh.grid(), np.where(x < 0.5, 1.0, 2.0))
        cfg = StudyConfig(kind="constant_exponent", density=dens, mesh=mesh,
                          profile="constant", n_schedule=(4, 8, 16), threshold=0.05)
        res = run_minimizer_convergence(cfg)
        assert res.verdicts["distance_eventually_decreasing"]
        assert res.passed

    def test_flat_profile_is_judged_by_values(self):
        rows = {
            name: run_minimizer_convergence(benchmark_config(
                kind="constant_exponent", cells=16, profile=name, schedule=(4, 8),
                threshold=0.5)).rows
            for name in ("constant", "constant:1")
        }
        assert rows["constant"] == rows["constant:1"]

    def test_needs_flat_profile(self):
        with pytest.raises(PreconditionError):
            run_minimizer_convergence(
                benchmark_config(kind="constant_exponent", profile="sine")
            )


class TestNormLimitStudy:
    def test_identity_probe(self):
        cfg = unit_weight_config(kind="norm_limit",
                                 schedule=(4, 8, 16, 32, 64, 128, 200))
        res = run_norm_limit(cfg)
        sup = res.meta["sup"]
        # the probe is the identity profile, so the sup is the last midpoint
        assert sup == pytest.approx(1.0 - 1.0 / 64.0, rel=1e-12)
        assert res.verdicts["error_eventually_decreasing"]
        assert res.verdicts["final_error_below_threshold"]

    @pytest.mark.parametrize("n", [4.7, True], ids=["float", "bool"])
    def test_non_integer_n_refused(self, n):
        # 4.7 would be a norm at p = 4.7 in a row labelled n = 4
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        u = GridFunction(grid, grid.points)
        seq = ExponentSequence(grid, np.ones(8))
        with pytest.raises(StructuralError, match=f"^n must be an integer, got {n!r}$"):
            norm_limit_study(u, seq, [n, 8])

    @pytest.mark.parametrize("n_values, message", [
        ([], "the n schedule must be strictly increasing"),
        ([4, 2], "the n schedule must be strictly increasing"),
        ([4, 4], "the n schedule must be strictly increasing"),
        ([0, 4], "the n schedule must start at 1 or above, got 0"),
        ([4, 10**400], "n has no float value: an integer of 1329 bits"),
    ], ids=["empty", "decreasing", "repeated", "zero", "no_float_value"])
    def test_schedule_refused(self, n_values, message):
        # [] would pass its verdict with final_error 0.0; StudyConfig refuses
        # the same schedules by the same rule
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        u = GridFunction(grid, grid.points)
        seq = ExponentSequence(grid, np.full(8, 2.0))
        with pytest.raises(StructuralError, match=f"^{message}$"):
            norm_limit_study(u, seq, n_values)
