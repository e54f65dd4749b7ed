"""Tests for the parallel execution layer (util.parallel + GP and the
portfolio race of evolve's seeding).

The load-bearing property is the determinism contract of
``docs/parallel.md``: for every ``n_jobs``, ``parallel_map`` returns the
same list a serial loop would, and therefore ``gp_partition`` and a
seeding-only ``evolve_partition`` (the GP portfolio) return bit-identical
partitions (assignments, metrics, goodness keys, ``info`` minus measured
runtime) whether raced across processes or run in-process.  The
differential and pinned corpora below hold exactly that, alongside
cache-hit behaviour and the serial fallback taken on platforms without a
usable process pool.

Worker counts honour ``REPRO_TEST_JOBS`` (default 2) so CI can raise the
parallelism without editing the suite.
"""

import dataclasses
import hashlib
import os
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.evolve import SEEDING_CONFIG, EvolveConfig, evolve_partition
from repro.graph.generators import paper_graph, random_process_network
from repro.kpn.traffic import ppn_to_mapped_graph
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.multires import MR_GP_CONFIG, mr_gp_partition
from repro.partition.vector_state import VectorConstraints
from repro.polyhedral.gallery import fir_filter, lu
from repro.polyhedral.ppn import derive_ppn
from repro.util.errors import InfeasibleError, ReproError
from repro.util.parallel import (
    KeyedCache,
    memo_cache,
    parallel_map,
    resolve_jobs,
    start_method,
    start_warm_pool,
    stop_warm_pool,
    warm_pool_size,
)

N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


def _square(x):
    return x * x


def _mul_context(ctx, x):
    return ctx * x


def _mark_or_fail(arg):
    """Raise on the 'fail' tag; otherwise sleep, then leave a marker file."""
    import time
    from pathlib import Path

    tmpdir, tag, delay = arg
    if tag == "fail":
        raise ValueError("fail-fast")
    time.sleep(delay)
    Path(tmpdir, f"{tag}.done").touch()
    return tag


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _die_if_worker(x):
    import multiprocessing
    import os
    import signal

    # SIGKILL only inside a pool worker; the serial fallback re-runs this
    # in the parent, where it just returns
    if x == 2 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestParallelMap:
    @pytest.mark.parametrize("n_jobs", [1, N_JOBS])
    def test_order_preserved(self, n_jobs):
        assert parallel_map(_square, range(9), n_jobs=n_jobs) == [
            x * x for x in range(9)
        ]

    @pytest.mark.parametrize("n_jobs", [1, N_JOBS])
    def test_stop_truncates_in_task_order(self, n_jobs):
        out = parallel_map(
            _square, range(9), n_jobs=n_jobs, stop=lambda r: r >= 16
        )
        # everything up to and including the first stop hit, nothing after
        assert out == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("n_jobs", [1, N_JOBS])
    def test_worker_exception_propagates(self, n_jobs):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_raise_on_three, range(6), n_jobs=n_jobs)

    def test_empty_tasks(self):
        assert parallel_map(_square, [], n_jobs=N_JOBS) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1
        with pytest.raises(ReproError):
            resolve_jobs(0)
        with pytest.raises(ReproError):
            resolve_jobs(-2)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        """Platforms where process pools cannot start must still compute."""
        import concurrent.futures as cf

        def broken(*a, **kw):
            raise OSError("no semaphores here")

        monkeypatch.setattr(cf, "ProcessPoolExecutor", broken)
        assert parallel_map(_square, range(5), n_jobs=4) == [
            0, 1, 4, 9, 16,
        ]

    def test_pool_death_mid_flight_falls_back_to_serial(self):
        """A worker killed externally (OOM killer, ulimit) breaks the pool
        with BrokenProcessPool; the call must recompute serially instead
        of propagating it."""
        assert parallel_map(_die_if_worker, range(5), n_jobs=2) == list(
            range(5)
        )

    def test_resolve_all_cpus_respects_affinity(self, monkeypatch):
        """``-1`` must count the CPUs available to *this process* —
        cgroup quota / affinity mask — not the whole machine."""
        monkeypatch.setattr(
            os, "process_cpu_count", lambda: 3, raising=False
        )
        assert resolve_jobs(-1) == 3
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(-1) == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs(-1) == 64

    def test_task_exception_fails_fast(self, tmp_path):
        """One failing task must not block on the rest of the batch: in
        the no-stop path, pending futures are cancelled before the
        re-raise, so at most the already-running tasks complete."""
        tasks = [(str(tmp_path), "fail", 0.0)] + [
            (str(tmp_path), f"s{i}", 0.5) for i in range(4)
        ]
        with pytest.raises(ValueError, match="fail-fast"):
            parallel_map(_mark_or_fail, tasks, n_jobs=2)
        # pre-fix, the pool exit waited for ALL four sleepers (4 markers);
        # with cancel_futures only tasks already in flight may finish
        done = list(tmp_path.glob("*.done"))
        assert len(done) <= 2, [p.name for p in done]

    def test_start_method_forks_only_single_threaded(self, monkeypatch):
        """One thread forks, more spawn (fork is available on Linux)."""
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert start_method() == "fork"
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert start_method() == "spawn"

    def test_warm_pool_reused_across_calls(self):
        """A shared warm pool serves repeated calls (the daemon seam) and
        survives task failures; results match the per-call pools."""
        n = start_warm_pool(2)
        try:
            if n == 0:
                pytest.skip("no process pool on this platform")
            assert warm_pool_size() == 2
            assert parallel_map(_square, range(9), n_jobs=2) == [
                x * x for x in range(9)
            ]
            # context payloads ship per task on a warm pool
            assert parallel_map(
                _mul_context, range(5), n_jobs=2, context=3
            ) == [0, 3, 6, 9, 12]
            # early stop still truncates in task order
            assert parallel_map(
                _square, range(9), n_jobs=2, stop=lambda r: r >= 16
            ) == [0, 1, 4, 9, 16]
            with pytest.raises(ValueError, match="boom"):
                parallel_map(_raise_on_three, range(6), n_jobs=2)
            # a task failure must not tear the shared pool down
            assert warm_pool_size() == 2
            assert parallel_map(_square, range(4), n_jobs=2) == [0, 1, 4, 9]
        finally:
            stop_warm_pool()
        assert warm_pool_size() == 0


def _counted_square(x):
    obs.add("shape.tasks")
    obs.add("shape.sum", float(x))
    return x * x


def _counted_mul(ctx, x):
    obs.add("shape.tasks")
    obs.add("shape.sum", float(x))
    return ctx * x


class TestSubmitShapes:
    """Every way ``parallel_map`` can submit work — owned or warm pool,
    with or without a shared context, metrics off or on, with or without
    an early stop — returns what the serial run returns, and with metrics
    on merges the same task counters and ``pool.tasks`` total."""

    @pytest.mark.parametrize("pool", ["owned", "warm"])
    @pytest.mark.parametrize("with_context", [False, True])
    @pytest.mark.parametrize("metrics", [False, True])
    @pytest.mark.parametrize("with_stop", [False, True])
    def test_matches_serial(self, pool, with_context, metrics, with_stop):
        fn, kw = _counted_square, {}
        if with_context:
            fn, kw["context"] = _counted_mul, 3
        if with_stop:
            kw["stop"] = lambda r: r >= 12

        def run(n_jobs):
            obs.REGISTRY.reset()
            if not metrics:
                return parallel_map(fn, range(8), n_jobs=n_jobs, **kw), None
            with obs.capture(tracing=False) as cap:
                out = parallel_map(fn, range(8), n_jobs=n_jobs, **kw)
            return out, cap.metrics["counters"]

        serial, serial_counters = run(1)
        if pool == "warm" and start_warm_pool(N_JOBS) == 0:
            pytest.skip("no process pool on this platform")
        try:
            out, counters = run(N_JOBS)
        finally:
            stop_warm_pool()
        assert out == serial
        assert len(out) == (5 if with_stop else 8)
        if metrics:
            for name in ("shape.tasks", "shape.sum"):
                assert counters[name] == serial_counters[name]
            assert sum(counters["pool.tasks"].values()) == sum(
                serial_counters["pool.tasks"].values()
            ) == len(out)


class TestKeyedCache:
    def test_lru_eviction(self):
        c = KeyedCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refreshes "a"
        c.put("c", 3)  # evicts "b"
        assert "b" not in c and c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3

    def test_stats_and_clear(self):
        c = KeyedCache()
        assert c.get("x") is None
        c.put("x", 7)
        assert c.get("x") == 7
        assert c.stats() == {"size": 1, "hits": 1, "misses": 1}
        c.clear()
        assert len(c) == 0 and c.stats()["hits"] == 0

    def test_bad_maxsize(self):
        with pytest.raises(ReproError):
            KeyedCache(maxsize=0)

    def test_cached_none_is_a_hit(self):
        """A legitimately cached ``None``/falsy value must be a *hit* —
        pre-fix it was indistinguishable from a miss and recomputed
        forever while inflating ``misses``."""
        c = KeyedCache()
        c.put("none", None)
        c.put("zero", 0)
        assert c.lookup("none") == (True, None)
        assert c.lookup("zero") == (True, 0)
        sentinel = object()
        assert c.get("none", sentinel) is None
        assert c.get("absent", sentinel) is sentinel
        assert c.hits == 3
        assert c.misses == 1  # only the genuinely absent key

    def test_lookup_miss(self):
        c = KeyedCache()
        assert c.lookup("absent") == (False, None)
        assert c.stats() == {"size": 0, "hits": 0, "misses": 1}


@dataclasses.dataclass
class _Memo:
    """The two fields ``lookup_result``/``put_result`` copy."""

    assign: np.ndarray
    info: dict


class TestKeyedCacheResults:
    def test_put_result_stores_a_copy(self):
        c = KeyedCache()
        result = _Memo(np.array([0, 1, 1]), {"cycles": [1, 2]})
        c.put_result("k", result)
        # the caller keeps mutating its own result after the put
        result.assign[0] = 5
        result.info["cycles"].append(3)
        result.info["extra"] = True
        found, hit = c.lookup_result("k")
        assert found
        np.testing.assert_array_equal(hit.assign, [0, 1, 1])
        assert hit.info == {"cycles": [1, 2], "cache_hit": True}

    def test_lookup_result_hit_is_a_fresh_flagged_copy(self):
        c = KeyedCache()
        c.put_result("k", _Memo(np.array([2, 0]), {"cycles": [1]}))
        _, first = c.lookup_result("k")
        first.assign[0] = 9
        first.info["cycles"].append(7)
        _, second = c.lookup_result("k")
        np.testing.assert_array_equal(second.assign, [2, 0])
        assert second.info == {"cycles": [1], "cache_hit": True}
        # the flag rides on the delivered copy, never on the stored entry
        assert "cache_hit" not in c.get("k").info
        assert c.stats() == {"size": 1, "hits": 3, "misses": 0}

    def test_lookup_result_miss(self):
        c = KeyedCache()
        assert c.lookup_result("absent") == (False, None)
        assert c.stats() == {"size": 0, "hits": 0, "misses": 1}


def differential_corpus():
    g1, spec1 = paper_graph(1)
    yield g1, spec1.k, ConstraintSpec(bmax=spec1.bmax, rmax=spec1.rmax)
    g2, spec2 = paper_graph(2)
    yield g2, spec2.k, ConstraintSpec(bmax=spec2.bmax, rmax=spec2.rmax)
    g3 = random_process_network(40, 100, seed=11)
    yield g3, 4, ConstraintSpec(bmax=60.0, rmax=0.5 * g3.total_node_weight)
    g4 = random_process_network(25, 55, seed=3, node_weight_range=(10, 20))
    yield g4, 3, ConstraintSpec(bmax=1.0, rmax=40.0)  # likely infeasible


def assert_same_result(a, b, constraints):
    assert np.array_equal(a.assign, b.assign)
    assert a.metrics == b.metrics
    assert goodness_key(a.metrics, constraints) == goodness_key(
        b.metrics, constraints
    )
    assert a.algorithm == b.algorithm
    assert a.info == b.info  # runtime lives outside info


class TestParallelEqualsSerial:
    def test_gp_differential(self):
        cfg = GPConfig(max_cycles=4, restarts=3)
        for i, (g, k, cons) in enumerate(differential_corpus()):
            serial = gp_partition(g, k, cons, cfg, seed=i)
            parallel = gp_partition(g, k, cons, cfg, seed=i, n_jobs=N_JOBS)
            assert_same_result(serial, parallel, cons)

    def test_gp_n_jobs_minus_one(self):
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        cfg = GPConfig(max_cycles=2, restarts=2)
        a = gp_partition(g, spec.k, cons, cfg, seed=0)
        b = gp_partition(g, spec.k, cons, cfg, seed=0, n_jobs=-1)
        assert_same_result(a, b, cons)


#: (digest of the assignment, goodness key) of the old
#: ``portfolio_partition(g, k, cons, seed=seed)`` with the four
#: ``default_portfolio()`` members, on the X11 graph
#: (``benchmarks/bench_parallel_portfolio.py``) and the X12 graph instances
#: (``benchmarks/bench_evolve.py``); a seeding-only evolve run reproduces
#: each one bit for bit
SEEDING_EXPECTED = {
    ("x11", 0): ("c6fd930ac32281d2", (0.0, 0.0, 0.0, 193.0)),
    ("x11", 1): ("f52f791207fe613a", (0.0, 0.0, 0.0, 178.0)),
    ("x11", 2): ("8c6fd65fb1683033", (0.0, 0.0, 0.0, 178.0)),
    ("x11", 3): ("38884880317d6795", (0.0, 0.0, 0.0, 191.0)),
    ("x11", 4): ("af298506ff61d0b6", (0.0, 0.0, 0.0, 192.0)),
    ("lu(10)", 0): ("01c84f606ffe38ee", (0.0, 0.0, 0.0, 358.0)),
    ("lu(10)", 1): ("01c84f606ffe38ee", (0.0, 0.0, 0.0, 358.0)),
    ("lu(10)", 2): ("01c84f606ffe38ee", (0.0, 0.0, 0.0, 358.0)),
    ("lu(10)", 3): ("01c84f606ffe38ee", (0.0, 0.0, 0.0, 358.0)),
    ("lu(10)", 4): ("01c84f606ffe38ee", (0.0, 0.0, 0.0, 358.0)),
    ("fir(8,64)", 0): ("6fdcd540420e2a7a", (0.0, 0.0, 0.0, 633.0)),
    ("fir(8,64)", 1): ("6fdcd540420e2a7a", (0.0, 0.0, 0.0, 633.0)),
    ("fir(8,64)", 2): ("e5965012cd758726", (0.0, 0.0, 0.0, 633.0)),
    ("fir(8,64)", 3): ("6fdcd540420e2a7a", (0.0, 0.0, 0.0, 633.0)),
    ("fir(8,64)", 4): ("e5965012cd758726", (0.0, 0.0, 0.0, 633.0)),
    ("rand96", 0): ("f3e55ee720534ddd", (0.0, 0.0, 0.0, 132.0)),
    ("rand96", 1): ("f3e55ee720534ddd", (0.0, 0.0, 0.0, 132.0)),
    ("rand96", 2): ("17567267cfb37899", (0.0, 0.0, 0.0, 132.0)),
    ("rand96", 3): ("17567267cfb37899", (0.0, 0.0, 0.0, 132.0)),
    ("rand96", 4): ("f3e55ee720534ddd", (0.0, 0.0, 0.0, 132.0)),
    ("rand120", 0): ("dcf086e6c296954f", (0.0, 0.0, 0.0, 155.0)),
    ("rand120", 1): ("204a469b6af74a1c", (0.0, 0.0, 0.0, 143.0)),
    ("rand120", 2): ("d9d10097b23022be", (0.0, 0.0, 0.0, 152.0)),
    ("rand120", 3): ("61b126dc5a38fc6d", (0.0, 0.0, 0.0, 151.0)),
    ("rand120", 4): ("79e3b3ed8f2d0e68", (0.0, 0.0, 0.0, 150.0)),
    ("rand150", 0): ("61b41e3c768ee2a6", (0.0, 0.0, 0.0, 202.0)),
    ("rand150", 1): ("1bb68ad450287b1e", (0.0, 0.0, 0.0, 215.0)),
    ("rand150", 2): ("e04761b6147a6fa5", (0.0, 0.0, 0.0, 216.0)),
    ("rand150", 3): ("4807adc184a7e3aa", (0.0, 0.0, 0.0, 207.0)),
    ("rand150", 4): ("ae42214f75cbab22", (0.0, 0.0, 0.0, 204.0)),
}


def _x12_constraints(g, k, bmax=float("inf")):
    return ConstraintSpec(
        rmax=float(round(1.15 * g.total_node_weight / k)), bmax=bmax
    )


def seeding_instance(name):
    """``(graph, k, constraints)`` of one pinned seeding instance."""
    if name == "x11":
        g = random_process_network(180, 420, seed=7)
        return g, 4, ConstraintSpec(
            bmax=0.35 * g.total_edge_weight, rmax=0.4 * g.total_node_weight
        )
    if name in ("lu(10)", "fir(8,64)"):
        prog, k = (lu(10), 2) if name == "lu(10)" else (fir_filter(8, 64), 3)
        g, _ = ppn_to_mapped_graph(derive_ppn(prog), mode="tokens")
        return g, k, _x12_constraints(g, k)
    n, m, k, bmax, graph_seed = {
        "rand96": (96, 220, 4, float("inf"), 11),
        "rand120": (120, 280, 4, 260.0, 12),
        "rand150": (150, 360, 5, float("inf"), 13),
    }[name]
    g = random_process_network(n, m, seed=graph_seed)
    return g, k, _x12_constraints(g, k, bmax)


@pytest.mark.parametrize("n_jobs", [1, N_JOBS])
@pytest.mark.parametrize(
    "name", sorted({name for name, _ in SEEDING_EXPECTED})
)
def test_seeding_corpus_pinned(name, n_jobs):
    g, k, cons = seeding_instance(name)
    for seed in range(5):
        res = evolve_partition(
            g, k, cons, SEEDING_CONFIG, seed=seed, n_jobs=n_jobs, cache=False
        )
        digest = hashlib.sha256(
            np.asarray(res.assign, dtype=np.int64).tobytes()
        ).hexdigest()[:16]
        assert (digest, goodness_key(res.metrics, cons)) == (
            SEEDING_EXPECTED[name, seed]
        )


class TestMemoCache:
    """The shared memo (:func:`~repro.util.parallel.memoised`) seen through
    a seeding-only evolve run."""

    def setup_method(self):
        memo_cache.clear()

    def teardown_method(self):
        memo_cache.clear()

    def _instance(self):
        g, spec = paper_graph(1)
        return g, spec.k, ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)

    def test_hit_returns_identical_flagged_copy(self):
        g, k, cons = self._instance()
        first = evolve_partition(g, k, cons, SEEDING_CONFIG, seed=0)
        assert "cache_hit" not in first.info
        second = evolve_partition(g, k, cons, SEEDING_CONFIG, seed=0)
        assert second.info["cache_hit"] is True
        assert np.array_equal(first.assign, second.assign)
        assert first.metrics == second.metrics
        assert second.assign is not first.assign  # no aliasing
        assert memo_cache.stats()["hits"] == 1

    def test_equal_graph_rebuild_hits(self):
        """The key is the graph *content*, not the object identity."""
        g, k, cons = self._instance()
        evolve_partition(g, k, cons, SEEDING_CONFIG, seed=0)
        g2, _ = paper_graph(1)
        res = evolve_partition(g2, k, cons, SEEDING_CONFIG, seed=0)
        assert res.info.get("cache_hit") is True

    def test_different_parameters_miss(self):
        g, k, cons = self._instance()
        evolve_partition(g, k, cons, SEEDING_CONFIG, seed=0)
        for config, seed in (
            (SEEDING_CONFIG, 1),
            (dataclasses.replace(SEEDING_CONFIG, seed_max_cycles=2), 0),
        ):
            res = evolve_partition(g, k, cons, config, seed=seed)
            assert "cache_hit" not in res.info
        assert memo_cache.stats()["hits"] == 0

    def test_list_matchings_config_is_cacheable(self):
        """GPConfig normalises matchings to a tuple, so a list-spelled
        config must neither crash the cache key nor miss against the
        tuple spelling (vector GP keys its runs by the GPConfig)."""
        g, _, _ = self._instance()
        w = np.ones((g.n, 2))
        cons = VectorConstraints(bmax=float("inf"), rmax=(6.0, 6.0))

        def run(matchings):
            config = dataclasses.replace(
                MR_GP_CONFIG, max_cycles=1, restarts=2, matchings=matchings
            )
            return mr_gp_partition(g, w, 2, cons, config, seed=0)

        res = run(["hem"])
        assert "cache_hit" not in res.info
        res2 = run(("hem",))
        assert res2.info.get("cache_hit") is True
        assert np.array_equal(res.assign, res2.assign)

    def test_cached_infeasible_still_raises(self):
        g = random_process_network(8, 14, seed=0, node_weight_range=(10, 20))
        cons = ConstraintSpec(bmax=0.0, rmax=1.0)
        config = EvolveConfig(
            pop_size=2, generations=0, seed_max_cycles=1, on_infeasible="raise"
        )
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                evolve_partition(g, 2, cons, config, seed=0)
        # and the second raise came from the cached run
        assert memo_cache.stats()["hits"] == 1
