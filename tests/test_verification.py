"""The chunked property suites against a one-instance-at-a-time reference.

Each reference loop draws the same instances, with the same generator calls
in the same order, through the public random_* helpers, and runs the public
single-instance checker on each.  A root scaled away from the true one makes
the relation checks fail, so the counts compared are not all zero.
"""

import numpy as np
import pytest

from suplab import exponent_space, verification
from suplab.exponent_space import (
    ExponentField,
    embedding_bound_check,
    holder_check,
    power_identity_check,
    verify_norm_modular_relations,
)
from suplab.verification import random_exponent_field, random_grid, random_grid_function


def reference_norm_modular(rng, instances):
    counts = {}
    for _ in range(instances):
        grid = random_grid(rng)
        u = random_grid_function(rng, grid)
        p = random_exponent_field(rng, grid)
        for check in verify_norm_modular_relations(u, p):
            counts[check.name] = counts.get(check.name, 0) + (not check.passed)
    return counts


def reference_holder(rng, instances):
    failing = 0
    for _ in range(instances):
        grid = random_grid(rng, max_cells=128)
        sv = rng.uniform(1.0, 3.0, size=grid.n_cells)
        theta = rng.uniform(0.2, 0.8, size=grid.n_cells)
        p = ExponentField(grid, sv / theta)
        q = ExponentField(grid, sv / (1.0 - theta))
        s = ExponentField(grid, sv)
        f = random_grid_function(rng, grid)
        g = random_grid_function(rng, grid)
        failing += not holder_check(f, g, p, q, s).passed
    return {"holder_inequality": failing}


def reference_power_identity(rng, instances):
    failing = 0
    for _ in range(instances):
        grid = random_grid(rng, max_cells=128)
        p = random_exponent_field(rng, grid, p_floor=2.2)
        u = random_grid_function(rng, grid)
        s = float(rng.uniform(1.0 + 1e-6, p.p_minus - 1e-9))
        failing += not power_identity_check(u, p, s).passed
    return {"power_rescaling_identity": failing}


def reference_embedding(rng, instances):
    failing = 0
    for k in range(instances):
        grid = random_grid(rng, max_cells=128)
        p = random_exponent_field(rng, grid)
        u = random_grid_function(rng, grid)
        q = p.p_minus if k % 2 == 0 else float(rng.uniform(1.0, p.p_minus))
        beta = max(1.0, p.p_plus / p.p_minus) * float(rng.uniform(1.0, 1.5))
        failing += not embedding_bound_check(u, p, q, beta=beta).passed
    return {"embedding_bound": failing}


# instance counts that are not multiples of the chunk size, so the last
# chunk is a short one
SUITES = {
    "norm_modular": (verification.norm_modular_suite, reference_norm_modular, 150),
    "holder": (verification.holder_suite, reference_holder, 100),
    "power_identity": (verification.power_identity_suite, reference_power_identity, 100),
    "embedding": (verification.embedding_suite, reference_embedding, 100),
}


def scale_root(monkeypatch, factor):
    true_root = exponent_space.luxemburg_root
    monkeypatch.setattr(exponent_space, "luxemburg_root",
                        lambda base, exps: true_root(base, exps) * factor)


def failure_counts(table):
    return {row[0]: row[2] for row in table.rows}


@pytest.mark.parametrize("factor", [1.0, 1.01, 1.0 / 1.01])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(SUITES))
def test_chunked_counts_match_single_instance_reference(monkeypatch, name, seed, factor):
    suite, reference, instances = SUITES[name]
    assert instances % verification.CHUNK != 0
    scale_root(monkeypatch, factor)
    table = suite(np.random.default_rng(seed), instances)
    assert failure_counts(table) == reference(np.random.default_rng(seed), instances)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wrong_root_is_caught_by_chunked_suites(monkeypatch, seed):
    # an overestimated norm breaks the norm/modular relations; the embedding
    # bound is an upper bound on the classical norm by the variable-exponent
    # norm, so only an underestimated norm can break it
    scale_root(monkeypatch, 1.01)
    table = verification.norm_modular_suite(np.random.default_rng(seed), 200)
    assert sum(failure_counts(table).values()) > 0
    assert not table.verdicts["norm_modular_zero_failures"]
    monkeypatch.undo()
    scale_root(monkeypatch, 1.0 / 1.01)
    table = verification.embedding_suite(np.random.default_rng(seed), 200)
    assert failure_counts(table)["embedding_bound"] > 0
    assert not table.verdicts["embedding_zero_failures"]
