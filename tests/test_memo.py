"""Tests for the shared memo policy (``repro.util.parallel.memoised``).

Evolve (seeding-only or not) and vector GP memoise through one helper
into one ``memo_cache``: the same seeds are cacheable everywhere (``None`` and
integers, numpy integers included), unhashable keys run uncached, and
hits come back as flagged copies.
"""

import dataclasses

import numpy as np
import pytest

from repro.evolve import SEEDING_CONFIG, EvolveConfig, evolve_partition
from repro.graph.generators import random_process_network
from repro.partition.metrics import ConstraintSpec
from repro.partition.multires import MR_GP_CONFIG, mr_gp_partition
from repro.partition.vector_state import VectorConstraints
from repro.util.parallel import memo_cache, memoised


@pytest.fixture(autouse=True)
def _clean_memo():
    memo_cache.clear()
    yield
    memo_cache.clear()


def _seeding(seed):
    g = random_process_network(24, 50, seed=2)
    return evolve_partition(g, 3, ConstraintSpec(), SEEDING_CONFIG, seed=seed)


def _evolve(seed):
    g = random_process_network(24, 50, seed=2)
    return evolve_partition(
        g, 3, ConstraintSpec(), EvolveConfig(pop_size=4, generations=1),
        seed=seed,
    )


def _mr_gp(seed):
    g = random_process_network(24, 50, seed=2)
    w = np.random.default_rng(2).integers(1, 30, (g.n, 2)).astype(float)
    cons = VectorConstraints(
        bmax=float("inf"), rmax=tuple(float(x) for x in w.sum(0))
    )
    config = dataclasses.replace(MR_GP_CONFIG, max_cycles=2)
    return mr_gp_partition(g, w, 3, cons, config, seed=seed)


@pytest.mark.parametrize("run", [_seeding, _evolve, _mr_gp],
                         ids=["seeding", "evolve", "mr_gp"])
def test_numpy_integer_seed_hits(run):
    cold = run(np.int64(0))
    assert "cache_hit" not in cold.info
    for seed in (np.int64(0), 0):
        warm = run(seed)
        assert warm.info.get("cache_hit") is True
        np.testing.assert_array_equal(warm.assign, cold.assign)
    assert len(memo_cache) == 1


@dataclasses.dataclass
class _Result:
    assign: np.ndarray
    info: dict


def test_memoised_policy():
    calls = []

    def compute():
        calls.append(1)
        return _Result(np.array([0, 1]), {"n": len(calls)})

    memoised(("t",), 3, compute)
    hit = memoised(("t",), np.int32(3), compute)
    assert len(calls) == 1 and hit.info == {"n": 1, "cache_hit": True}
    # generator seeds, unhashable keys and enabled=False never touch it
    for key, seed, enabled in (
        (("t",), np.random.default_rng(0), True),
        (("t", []), 3, True),
        (("t",), 3, False),
    ):
        out = memoised(key, seed, compute, enabled)
        assert "cache_hit" not in out.info
    assert len(calls) == 4 and len(memo_cache) == 1
