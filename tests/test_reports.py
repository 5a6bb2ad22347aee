"""Every checker records its checks through RelationReport.add_rows.

So each report's ``meta["violations"]`` maps exactly its check names to
failure counts, and ``meta["failing"]`` marks each of its instances.  The
tail verdict ``eventually_decreasing`` is checked on both outcomes.
"""

import numpy as np
import pytest

from suplab.energy import DensitySpec, growth_check, level_convexity_probe
from suplab.exponent_space import (
    ExponentField,
    Grid,
    GridFunction,
    embedding_bound_check,
    holder_check,
    power_identity_check,
    verify_norm_modular_relations,
)
from suplab.measure_tools import jensen_check
from suplab.reports import TAIL_RTOL, RelationReport, eventually_decreasing

GRID = Grid.uniform_1d(0.0, 1.0, 8)
U = GridFunction(GRID, np.linspace(-1.0, 2.0, 8))
P = ExponentField(GRID, np.linspace(2.5, 4.0, 8))
ONE = ExponentField.constant(GRID, 1.0)
ANNULUS = DensitySpec(GRID, "unit_sphere_distance")
STEEP = DensitySpec.weighted_norm(GRID, lambda x: 1.0 / (1.0 + x), alpha=0.9)
ATOMS = (np.array([[[1.5], [-1.5]], [[1.0], [3.0]], [[0.5], [0.0]]]),
         np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]))

# (checker call, instances checked)
CHECKERS = {
    "norm_modular": (lambda: verify_norm_modular_relations(U, P), 1),
    "holder": (lambda: holder_check(U, U, ExponentField.constant(GRID, 2.0),
                                    ExponentField.constant(GRID, 2.0), ONE), 1),
    "power_identity": (lambda: power_identity_check(U, P, 2.0), 1),
    "embedding": (lambda: embedding_bound_check(U, P, 2.0), 1),
    "level_convexity": (lambda: level_convexity_probe(ANNULUS, trials=300, seed=1), 300),
    "growth": (lambda: growth_check(STEEP, trials=300, seed=1), 300),
    "jensen": (lambda: jensen_check(ANNULUS, np.arange(3), 0.0, ATOMS), 3),
}


@pytest.mark.parametrize("name", list(CHECKERS))
def test_meta_counts_each_check_and_marks_each_instance(name):
    checker, instances = CHECKERS[name]
    rep = checker()
    assert list(rep.meta["violations"]) == [c.name for c in rep]
    assert rep.meta["failing"].shape == (instances,)
    for check in rep:
        assert check.passed == (rep.meta["violations"][check.name] == 0)
    assert rep.meta["failing"].sum() >= max(rep.meta["violations"].values())


def test_witness_is_first_failing_instance_else_smallest_slack():
    rep = RelationReport("subject")
    slack = np.array([3.0, -1.0, 2.0, -5.0])
    rep.add_rows("fails", slack >= 0, slack, note=lambda w: f"at {w}", witness=lambda w: {"at": w})
    rep.add_rows("holds", np.ones(4, dtype=bool), np.abs(slack), witness=lambda w: {"at": w})
    fails, holds = rep.checks
    assert (fails.passed, fails.slack, fails.note, fails.witness) == (False, -5.0, "at 1", {"at": 1})
    assert (holds.passed, holds.slack, holds.note, holds.witness) == (True, 1.0, "", {"at": 1})
    assert rep.meta["violations"] == {"fails": 2, "holds": 0}
    assert rep.meta["failing"].tolist() == [False, True, False, True]


@pytest.mark.parametrize("probe", [level_convexity_probe, growth_check])
def test_empty_probe_passes_without_witness(probe):
    rep = probe(ANNULUS, trials=0)
    check, = rep.checks
    assert check.passed and check.slack == np.inf and check.witness is None
    assert rep.meta["violations"] == {check.name: 0}
    assert rep.meta["failing"].shape == (0,)


@pytest.mark.parametrize("values, expected", [
    ([1.0, 2.0], False),
    ([3.0, 2.0, 1.0, 2.0], False),
    ([3.0, 2.0, 1.0], True),
    ([2.0, 1.0, 1.0 + TAIL_RTOL], True),
    ([5.0], True),
], ids=["rising", "rising_at_the_end", "decreasing", "rise_within_tolerance", "too_short"])
def test_eventually_decreasing(values, expected):
    assert eventually_decreasing(values) is expected
