import numpy as np
import pytest

from suplab import energy, measure_tools, verification
from suplab.energy import DensitySpec
from suplab.exponent_space import Grid, GridFunction, StructuralError, luxemburg_root
from suplab.measure_tools import (
    DEFAULT_Q_SCHEDULE,
    DiscreteYoungMeasure,
    barycenter,
    jensen_check,
    young_q_limit,
)

from _oracles import logsumexp


def one_cell_grid():
    return Grid(1, np.array([[0.5]]), np.array([1.0]))


def annulus(grid):
    """f = ||xi| - 1|: its sublevel sets are annuli, so it is not level convex."""
    return DensitySpec(grid, "unit_sphere_distance")


def three_cell_measure():
    """Three cells, two atoms each; cell 1's atom at 100 is padding."""
    grid = Grid.uniform_1d(0.0, 1.0, 3)
    pts = np.array([[[0.5], [-2.0]], [[1.0], [100.0]], [[3.0], [-1.0]]])
    wts = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    return DiscreteYoungMeasure(grid, pts, wts)


class TestMeasureInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError, match="cell 0: .* not probabilities"):
            DiscreteYoungMeasure(one_cell_grid(), np.array([[[1.0], [2.0]]]),
                                 np.array([[0.5, 0.4]]))

    def test_weights_must_be_positive(self):
        with pytest.raises(StructuralError, match="cell 0: .* not probabilities"):
            DiscreteYoungMeasure(one_cell_grid(), np.array([[[1.0], [2.0]]]),
                                 np.array([[1.5, -0.5]]))

    def test_bad_cell_is_named(self):
        mu = three_cell_measure()
        wts = mu.weights.copy()
        wts[2] = [0.5, 0.6]
        with pytest.raises(StructuralError, match="cell 2"):
            DiscreteYoungMeasure(mu.grid, mu.points, wts)

    def test_holds_one_read_only_array_pair(self):
        mu = three_cell_measure()
        assert mu.points.shape == (3, 2, 1) and mu.weights.shape == (3, 2)
        assert not mu.points.flags.writeable and not mu.weights.flags.writeable
        assert not hasattr(mu, "atoms")

    def test_padded_atom_changes_neither_barycenter_nor_q_limit(self):
        grid = one_cell_grid()
        f = DensitySpec.weighted_norm(grid, 1.0)
        u = GridFunction.constant(grid, 0.0)
        bare = DiscreteYoungMeasure(grid, np.array([[[1.0], [3.0]]]), np.array([[0.5, 0.5]]))
        padded = DiscreteYoungMeasure(grid, np.array([[[1.0], [3.0], [100.0]]]),
                                      np.array([[0.5, 0.5, 0.0]]))
        assert padded.points.shape == (1, 3, 1)
        assert barycenter(padded).values.tolist() == barycenter(bare).values.tolist()
        assert young_q_limit(f, u, padded).rows == young_q_limit(f, u, bare).rows

    def test_needs_atoms_on_every_cell(self):
        grid = Grid.uniform_1d(0.0, 1.0, 2)
        with pytest.raises(StructuralError, match=r"atom points of shape \(1, 1, 1\): need \(2, \*, \*\)"):
            DiscreteYoungMeasure(grid, np.array([[[1.0]]]), np.array([[1.0]]))

    @pytest.mark.parametrize("points, weights, message", [
        (np.array([[1.0], [3.0]]), np.array([0.5, 0.5]),          # no cell axis
         r"atom points of shape \(2, 1\): need \(1, \*, \*\)"),
        (np.array([[[1.0], [3.0]]]), np.array([[1.0]]),            # one weight, two points
         r"need points \(T, m, k\)"),
        (np.array([[[1.0, 3.0]]]), np.array([[0.5, 0.5]]),         # points transposed
         r"need points \(T, m, k\)"),
        (np.array([[[1.0], [np.inf]]]), np.array([[0.5, 0.5]]),   # a point at infinity
         r"atom points must be finite, got inf at \(0, 1, 0\)"),
    ], ids=["no_cell_axis", "count_mismatch", "transposed", "infinite_point"])
    def test_malformed_arrays_are_refused(self, points, weights, message):
        with pytest.raises(StructuralError, match=message):
            DiscreteYoungMeasure(one_cell_grid(), points, weights)


class TestBarycenter:
    def test_single_atom_recovers_field(self):
        grid = Grid.uniform_1d(0.0, 1.0, 5)
        du = GridFunction(grid, np.linspace(-1.0, 1.0, 5))
        mu = DiscreteYoungMeasure(grid, du.values[:, None, None], np.ones((5, 1)))
        assert np.allclose(barycenter(mu).values.ravel(), du.values)

    def test_symmetric_pair_cancels(self):
        grid = one_cell_grid()
        mu = DiscreteYoungMeasure(grid, np.array([[[2.0], [-2.0]]]), np.array([[0.5, 0.5]]))
        assert barycenter(mu).values.ravel()[0] == pytest.approx(0.0)

    def test_weighted_pair(self):
        grid = one_cell_grid()
        mu = DiscreteYoungMeasure(grid, np.array([[[1.0], [3.0]]]), np.array([[0.25, 0.75]]))
        assert barycenter(mu).values.ravel()[0] == pytest.approx(2.5)


class TestJensen:
    def test_norm_density_on_symmetric_atoms(self):
        grid = one_cell_grid()
        f = DensitySpec.weighted_norm(grid, 1.0)
        rep = jensen_check(f, 0, 0.0, (np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])))
        assert rep.passed

    def test_scaled_density_numbers(self):
        grid = one_cell_grid()
        f = DensitySpec.weighted_norm(grid, 2.0)
        rep = jensen_check(f, 0, 0.0, (np.array([[1.0], [3.0]]), np.array([0.25, 0.75])))
        assert rep.passed
        w = rep.checks[0].witness
        assert w["lhs"] == pytest.approx(5.0)
        assert w["rhs"] == pytest.approx(6.0)

    def test_annulus_probe_violates(self):
        rep = jensen_check(
            annulus(one_cell_grid()),
            0,
            0.0,
            (np.array([[1.5], [-1.5]]), np.array([0.5, 0.5])),
        )
        assert not rep.passed
        w = rep.checks[0].witness
        assert w["lhs"] == pytest.approx(1.0) and w["rhs"] == pytest.approx(0.5)

    @pytest.mark.parametrize("weights, message", [
        ([0.9, 0.9], "not probabilities"), ([1.5, -0.5], "not probabilities"),
        # trials and measures alike follow the cell-array rule, so the finite rule comes first
        ([0.5, np.nan], r"atom weights must be finite, got nan at \(0, 1\)"),
    ], ids=["sum_above_one", "negative", "nan"])
    def test_weights_that_are_not_probabilities_are_refused(self, weights, message):
        # with weights 0.9, 0.9 the "mean" 1.98 would be a false witness of
        # non-convexity; with 1.5, -0.5 the negative atom would pass as padding
        f = DensitySpec.weighted_norm(one_cell_grid(), 1.0)
        atoms = (np.array([[1.0], [1.2]]), np.array(weights))
        with pytest.raises(StructuralError, match=message):
            jensen_check(f, 0, 0.0, atoms)
        with pytest.raises(StructuralError, match=message):
            DiscreteYoungMeasure(one_cell_grid(), atoms[0][None], atoms[1][None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_point_is_refused(self, bad):
        # a NaN atom would pass with slack nan, an infinite one with lhs = rhs = inf
        f = DensitySpec.weighted_norm(Grid.uniform_1d(0.0, 1.0, 2), 1.0)
        with pytest.raises(StructuralError,
                           match=rf"atom points must be finite, got {bad} at \(0, 0, 0\)"):
            jensen_check(f, 0, 0.0, (np.array([[bad], [1.0]]), np.array([0.5, 0.5])))

    def test_single_trial_is_not_transposed(self):
        # points (k, m) for weights (m,) is refused, not guessed into (m, k)
        f = DensitySpec.weighted_norm(one_cell_grid(), 1.0)
        with pytest.raises(StructuralError, match=r"need points \(T, m, k\)"):
            jensen_check(f, 0, 0.0, (np.array([[1.0, 3.0]]), np.array([0.25, 0.75])))

    def test_one_bad_trial_of_a_batch_is_named(self):
        f = DensitySpec.weighted_norm(one_cell_grid(), 1.0)
        pts = np.ones((3, 2, 1))
        wts = np.array([[0.5, 0.5], [1.0, 0.0], [0.6, 0.6]])
        with pytest.raises(StructuralError, match="trial 2"):
            jensen_check(f, np.zeros(3, dtype=int), 0.0, (pts, wts))

    @pytest.mark.parametrize("cells, bad", [(-1, -1), (4, 4), ([0, -1, 2], -1), ([3, 4], 4)],
                             ids=["negative", "past_end", "negative_in_batch", "past_end_in_batch"])
    def test_cell_off_the_grid_refused(self, cells, bad):
        # cell -1 would be checked against the last cell and reported as
        # witness cell -1; cell 4 would be a bare IndexError
        f = DensitySpec.weighted_norm(Grid.uniform_1d(0.0, 1.0, 4), np.array([1.0, 2.0, 3.0, 4.0]))
        pts, wts = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
        if np.ndim(cells):
            cells = np.array(cells)
            pts, wts = np.stack([pts] * cells.size), np.stack([wts] * cells.size)
        with pytest.raises(StructuralError, match=f"cell {bad} is not one of the 4 cells"):
            jensen_check(f, cells, 0.0, (pts, wts))

    @pytest.mark.parametrize("cells", [1.7, [0.0, 1.0], np.array([True, False])],
                             ids=["float", "float_batch", "bool_batch"])
    def test_non_integer_cell_refused(self, cells):
        # 1.7 would be cast to cell 1 and reported as witness cell 1
        f = DensitySpec.weighted_norm(Grid.uniform_1d(0.0, 1.0, 4), np.array([1.0, 2.0, 3.0, 4.0]))
        pts, wts = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
        if np.ndim(cells):
            pts, wts = np.stack([pts] * len(cells)), np.stack([wts] * len(cells))
        with pytest.raises(StructuralError, match="cell indices must be integers"):
            jensen_check(f, cells, 0.0, (pts, wts))

    def test_randomized_level_convex_families(self):
        rng = np.random.default_rng(9)
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        fams = [
            (DensitySpec.weighted_norm(grid, lambda x: 1.0 + x), 1),
            (DensitySpec.shifted_norm(grid, np.array([0.3])), 1),
            (DensitySpec.anisotropic(grid, np.array([1.0, 3.0])), 2),
        ]
        for f, k in fams:
            for _ in range(500):
                cell = int(rng.integers(8))
                m = int(rng.integers(1, 5))
                pts = rng.normal(size=(m, k)) * 2.0
                wts = rng.dirichlet(np.ones(m))
                wts = wts / wts.sum()
                assert jensen_check(f, cell, float(rng.normal()), (pts, wts)).passed


def padded_batch(rng, trials, k, max_atoms=4):
    """Random trials as per-trial atom lists and as one zero-padded batch."""
    cells = rng.integers(8, size=trials)
    u_vals = rng.normal(size=trials)
    pts = np.zeros((trials, max_atoms, k))
    wts = np.zeros((trials, max_atoms))
    singles = []
    for t in range(trials):
        m = int(rng.integers(1, max_atoms + 1))
        pts[t, :m] = rng.normal(size=(m, k)) * 2.0
        wts[t, :m] = rng.dirichlet(np.ones(m))
        singles.append((pts[t, :m], wts[t, :m]))
    return cells, u_vals, (pts, wts), singles


class TestJensenBatch:
    @pytest.mark.parametrize("name", ["weighted_norm", "shifted_norm", "anisotropic", "probe"])
    def test_batch_counts_match_single_calls(self, name):
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        f, k = {
            "weighted_norm": (DensitySpec.weighted_norm(grid, lambda x: 1.0 + x), 1),
            "shifted_norm": (DensitySpec.shifted_norm(grid, np.array([0.3, -0.2])), 2),
            "anisotropic": (DensitySpec.anisotropic(grid, np.array([1.0, 3.0])), 2),
            "probe": (annulus(grid), 1),
        }[name]
        cells, u_vals, atoms, singles = padded_batch(np.random.default_rng(31), 400, k)
        rep = jensen_check(f, cells, u_vals, atoms)
        single = [jensen_check(f, int(c), float(u), a) for c, u, a in zip(cells, u_vals, singles)]
        expected = sum(not r.passed for r in single)
        assert rep.meta["violations"] == {"mean_below_worst_atom": expected}
        assert rep.meta["failing"].tolist() == [not r.passed for r in single]
        assert rep.passed == (expected == 0)
        assert rep.checks[0].slack == pytest.approx(min(r.checks[0].slack for r in single))
        if name == "probe":
            assert expected > 0
            first = next(r for r in single if not r.passed).checks[0].witness
            witness = rep.checks[0].witness
            assert witness["cell"] == first["cell"]
            for key in ("mean", "lhs", "rhs"):
                assert witness[key] == pytest.approx(first[key], rel=1e-14)

    def test_padded_atoms_never_set_the_max(self):
        grid = one_cell_grid()
        pts = np.array([[[1.0], [-1.0], [100.0]]])
        wts = np.array([[0.5, 0.5, 0.0]])
        rep = jensen_check(DensitySpec.weighted_norm(grid, 1.0), np.array([0]), 0.0, (pts, wts))
        assert rep.passed and rep.checks[0].witness["rhs"] == pytest.approx(1.0)
        # a padded atom at the mean, f(0) = 1, would hide the violation 1 > 0.5
        pts = np.array([[[1.5], [-1.5], [0.0]]])
        rep = jensen_check(annulus(grid), np.array([0]), 0.0, (pts, wts))
        assert not rep.passed and rep.checks[0].witness["rhs"] == pytest.approx(0.5)


class TestJensenOnMeasures:
    @pytest.mark.parametrize("name", ["weighted_norm", "probe"])
    def test_measure_arrays_match_per_cell_trials(self, name):
        rng = np.random.default_rng(17)
        grid = Grid.uniform_1d(0.0, 1.0, 8)
        f = annulus(grid) if name == "probe" else DensitySpec.weighted_norm(grid, lambda x: 1.0 + x)
        _, _, (pts, wts), _ = padded_batch(rng, 8, 1)
        assert (wts == 0).any()
        mu = DiscreteYoungMeasure(grid, pts, wts)
        u = GridFunction(grid, rng.normal(size=8))
        rep = jensen_check(f, np.arange(8), u.values, (mu.points, mu.weights))
        single = [jensen_check(f, i, u.values[i], (mu.points[i], mu.weights[i]))
                  for i in range(8)]
        assert rep.meta["failing"].tolist() == [not r.passed for r in single]
        assert rep.checks[0].slack == min(r.checks[0].slack for r in single)
        if name == "probe":
            assert not rep.passed
        assert rep.checks[0].witness == next(
            (r for r in single if not r.passed),
            min(single, key=lambda r: r.checks[0].slack)).checks[0].witness


class TestJensenSuite:
    def test_remainder_batch_runs(self, monkeypatch):
        sizes = []

        def recording(f, cell, u_val, atoms):
            sizes.append(len(cell))
            return jensen_check(f, cell, u_val, atoms)

        monkeypatch.setattr(verification, "jensen_check", recording)
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        assert verification._jensen_trials(np.random.default_rng(3), annulus(grid), 300) > 0
        assert sizes == [verification.JENSEN_BATCH, 300 - verification.JENSEN_BATCH]

    def test_anisotropic_row_catches_a_broken_formula(self, monkeypatch):
        def min_over_components(c, xi, eps):
            # sublevel sets are crosses, so this is not level convex
            return (c["a"] * np.abs(xi)).min(-1), None

        row = energy._FAMILIES["anisotropic"]._replace(formula=min_over_components)
        monkeypatch.setitem(energy._FAMILIES, "anisotropic", row)
        table = verification.jensen_suite(np.random.default_rng(5), trials=500)
        rows = {r[0]: r for r in table.rows}
        assert rows["jensen_anisotropic"][2] > 0
        assert not table.verdicts["jensen_zero_failures"]


class TestYoungQLimit:
    def test_one_cell_two_atoms(self):
        grid = one_cell_grid()
        f = DensitySpec.weighted_norm(grid, 1.0)
        u = GridFunction.constant(grid, 0.0)
        mu = DiscreteYoungMeasure(grid, np.array([[[1.0], [3.0]]]), np.array([[0.5, 0.5]]))
        table = young_q_limit(f, u, mu, q_values=(2, 50, 200))
        assert table.meta["limit"] == pytest.approx(3.0)
        q200 = dict((int(r[0]), r[1]) for r in table.rows)[200]
        assert q200 == pytest.approx((0.5 + 0.5 * 3.0 ** 200.0) ** (1.0 / 200.0), rel=1e-10)
        assert abs(q200 - 3.0) < 0.02 * 3.0

    def test_uniform_single_atoms_are_exact(self):
        grid = Grid.uniform_1d(0.0, 1.0, 4)
        f = DensitySpec.weighted_norm(grid, 1.0)
        u = GridFunction.constant(grid, 0.0)
        mu = DiscreteYoungMeasure(grid, np.full((4, 1, 1), 2.0), np.ones((4, 1)))
        table = young_q_limit(f, u, mu, q_values=(2, 8, 64))
        for _, val, err in table.rows:
            assert val == pytest.approx(2.0, rel=1e-12)
            assert err < 1e-10

    def test_two_cells_weighted(self):
        grid = Grid(1, np.array([[0.2], [0.7]]), np.array([0.3, 0.7]))
        f = DensitySpec.weighted_norm(grid, 1.0)
        u = GridFunction.constant(grid, 0.0)
        mu = DiscreteYoungMeasure(grid, np.array([[[2.0]], [[5.0]]]), np.ones((2, 1)))
        table = young_q_limit(f, u, mu, q_values=DEFAULT_Q_SCHEDULE)
        assert table.meta["limit"] == pytest.approx(5.0)
        final = table.rows[-1][1]
        expect = np.exp(logsumexp(np.log([0.3, 0.7]) + 1024.0 * np.log([2.0, 5.0])) / 1024.0)
        assert final == pytest.approx(expect, rel=1e-10)
        assert table.verdicts["error_eventually_decreasing"]

    def test_power_mean_monotonicity_after_normalizing(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cells = int(rng.integers(2, 6))
            length = float(rng.uniform(0.5, 3.0))
            grid = Grid.uniform_1d(0.0, length, cells)
            # normalize to a probability measure: divide weights by the mass
            norm_grid = Grid(1, grid.cells, grid.weights / grid.total_measure)
            f = DensitySpec.weighted_norm(norm_grid, 1.0)
            u = GridFunction.constant(norm_grid, 0.0)
            pts = np.zeros((cells, 3, 1))
            wts = np.zeros((cells, 3))
            for i in range(cells):
                m = int(rng.integers(1, 4))
                pts[i, :m] = rng.normal(size=(m, 1)) * 3.0
                wts[i, :m] = rng.dirichlet(np.ones(m))
                wts[i] /= wts[i].sum()
            mu = DiscreteYoungMeasure(norm_grid, pts, wts)
            table = young_q_limit(f, u, mu, q_values=(2, 4, 8, 16, 32))
            vals = [r[1] for r in table.rows]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    # the q-limit rows, pinned bit for bit (as hex floats) on two measures
    @pytest.mark.parametrize("measure, values", [
        ("criterion_06", ["0x1.1e3779b97f4a8p+1", "0x1.43e5715273d1ap+1", "0x1.6022e1fea83afp+1",
                          "0x1.6fb83ba8abdb5p+1", "0x1.77c58c492b3f0p+1", "0x1.7bdd12136eca3p+1",
                          "0x1.7ded1a0ab9575p+1", "0x1.7ef63105f9ae3p+1", "0x1.7f7b017b2ad4ap+1",
                          "0x1.7fbd7afaa173ep+1"]),
        ("three_cells_padded", ["0x1.64232637005f3p+1", "0x1.c9b5a783387bbp+1",
                                "0x1.196e22478ddc6p+2", "0x1.3ab555f1a20b0p+2",
                                "0x1.4cd51024d7fdcp+2", "0x1.564830986f7f5p+2",
                                "0x1.5b1b638e2eb34p+2", "0x1.5d8b80af7f3f3p+2",
                                "0x1.5ec533941288dp+2", "0x1.5f62768958c6dp+2"]),
    ])
    def test_rows_are_pinned(self, measure, values):
        if measure == "criterion_06":
            grid = one_cell_grid()
            f = DensitySpec.weighted_norm(grid, 1.0)
            mu = DiscreteYoungMeasure(grid, np.array([[[1.0], [3.0]]]), np.array([[0.5, 0.5]]))
        else:
            mu = three_cell_measure()
            f = DensitySpec.weighted_norm(mu.grid, lambda x: 1.0 + x)
        table = young_q_limit(f, GridFunction.constant(mu.grid, 0.0), mu)
        limit = table.meta["limit"]
        expected = [(q, float.fromhex(v), abs(float.fromhex(v) - limit))
                    for q, v in zip(DEFAULT_Q_SCHEDULE, values)]
        assert table.rows == expected
        assert limit == (3.0 if measure == "criterion_06" else 5.5)

    def test_field_on_another_grid_is_refused(self):
        mu = three_cell_measure()
        f = DensitySpec.weighted_norm(mu.grid, 1.0)
        with pytest.raises(StructuralError,
                           match="different grids: DiscreteYoungMeasure against GridFunction"):
            young_q_limit(f, GridFunction.constant(Grid.uniform_1d(0.0, 1.0, 4), 0.0), mu)

    def test_density_on_another_grid_is_refused(self):
        # one cell count: the density's weights would be read on the wrong cells
        mu = three_cell_measure()
        f = DensitySpec.weighted_norm(Grid.uniform_1d(0.0, 4.0, 3), lambda x: 1.0 + x)
        with pytest.raises(StructuralError,
                           match="different grids: DensitySpec against GridFunction"):
            young_q_limit(f, GridFunction.constant(mu.grid, 0.0), mu)

    def test_one_stacked_root_per_call(self, monkeypatch):
        calls = []

        def recording(base_logs, exponents):
            calls.append(np.shape(base_logs))
            return luxemburg_root(base_logs, exponents)

        monkeypatch.setattr(measure_tools, "luxemburg_root", recording)
        mu = three_cell_measure()
        f = DensitySpec.weighted_norm(mu.grid, 1.0)
        young_q_limit(f, GridFunction.constant(mu.grid, 0.0), mu)
        # five live atoms: the padded one is never evaluated
        assert calls == [(len(DEFAULT_Q_SCHEDULE), 5)]
