"""Tests for the persistent disk cache and its layering under KeyedCache.

The contract (``docs/serve.md``): a disk-backed cache returns
byte-identical results to the in-memory path, survives "process restart"
(any later DiskCache instance on the same directory sees the entries),
keys are versioned (a different version tag simply misses), writes are
atomic/corruption-safe, and the store stays within its size budget by
evicting oldest-recency entries.
"""

import errno
import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.core.api import (
    configure_cache_backend,
    disable_disk_cache,
    enable_disk_cache,
    partition_graph,
)
from repro.evolve import SEEDING_CONFIG, EvolveConfig, evolve_partition
from repro.graph.generators import random_process_network
from repro.partition.metrics import ConstraintSpec
from repro.util.diskcache import DiskCache
from repro.util.errors import ReproError
from repro.util.parallel import KeyedCache, memo_cache


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        d = DiskCache(tmp_path)
        key = ("evolve", "a" * 64, 4, ConstraintSpec(bmax=16.0, rmax=165.0))
        value = {"assign": [0, 1, 1, 0], "cut": 12.5}
        assert d.lookup(key) == (False, None)
        d.put(key, value)
        assert d.lookup(key) == (True, value)
        assert key in d and len(d) == 1
        assert d.stats()["hits"] == 1 and d.stats()["misses"] == 1

    def test_cached_none_roundtrips(self, tmp_path):
        d = DiskCache(tmp_path)
        d.put("k", None)
        assert d.lookup("k") == (True, None)

    def test_persists_across_instances(self, tmp_path):
        """The restart story: a fresh instance on the same directory —
        i.e. a new process — sees everything the old one stored."""
        DiskCache(tmp_path).put(("x", 1), np.arange(5))
        found, value = DiskCache(tmp_path).lookup(("x", 1))
        assert found
        np.testing.assert_array_equal(value, np.arange(5))

    def test_versioned_keys_isolate(self, tmp_path):
        """A different version tag (here via salt — library/schema bumps
        work identically) must not see the old entries."""
        DiskCache(tmp_path, salt="v-old").put("k", "old-value")
        fresh = DiskCache(tmp_path, salt="v-new")
        assert fresh.lookup("k") == (False, None)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        d = DiskCache(tmp_path)
        d.put("k", 42)
        path, _ = d._locate("k")
        path.write_bytes(b"torn write garbage")
        assert d.lookup("k") == (False, None)
        assert not path.exists()

    def test_collision_guard(self, tmp_path):
        """An entry whose stored key repr disagrees (hash collision /
        tampering) must miss, never return the wrong value."""
        d = DiskCache(tmp_path)
        d.put("k", 42)
        path, _ = d._locate("k")
        path.write_bytes(
            pickle.dumps({"key": repr("other"), "value": 99})
        )
        assert d.lookup("k") == (False, None)

    def test_eviction_stays_within_budget(self, tmp_path):
        entry = np.zeros(128)  # ~1 KiB pickled
        probe = DiskCache(tmp_path)
        probe.put("probe", entry)
        per_entry = probe.stats()["bytes"]
        probe.clear()

        d = DiskCache(tmp_path, max_bytes=4 * per_entry)
        for i in range(8):
            d.put(("k", i), entry)
        s = d.stats()
        assert s["bytes"] <= d.max_bytes
        assert s["evictions"] >= 4
        # newest entry always survives (it has the freshest mtime)
        assert ("k", 7) in d

    def test_clear(self, tmp_path):
        d = DiskCache(tmp_path)
        d.put("a", 1)
        d.put("b", 2)
        d.clear()
        assert len(d) == 0 and d.lookup("a") == (False, None)

    def test_bad_max_bytes(self, tmp_path):
        with pytest.raises(ReproError):
            DiskCache(tmp_path, max_bytes=0)

    def test_contains_verifies_stored_key(self, tmp_path):
        """``in`` answers from the stored key repr, not mere file
        existence — a colliding/tampered entry is not a member."""
        d = DiskCache(tmp_path)
        d.put("k", 42)
        assert "k" in d
        path, _ = d._locate("k")
        path.write_bytes(pickle.dumps({"key": repr("other"), "value": 99}))
        assert "k" not in d  # file exists, key repr disagrees
        path.write_bytes(b"\x00torn")
        assert "k" not in d  # corrupt file, still just False

    def test_contains_is_a_pure_query(self, tmp_path):
        """Membership probes leave hit/miss counters and corrupt files
        untouched (diagnosis is ``lookup``'s job)."""
        d = DiskCache(tmp_path)
        d.put("k", 1)
        path, _ = d._locate("k")
        path.write_bytes(b"\x00torn")
        before = (d.hits, d.misses)
        assert "k" not in d
        assert "absent" not in d
        assert (d.hits, d.misses) == before
        assert path.is_file()  # __contains__ never unlinks

    def test_running_total_tracks_stats(self, tmp_path):
        """The incremental byte counter matches a full directory scan
        through puts, overwrites and corrupt-entry cleanup."""
        d = DiskCache(tmp_path)
        for i in range(6):
            d.put(("k", i), np.zeros(16 + i))
        d.put(("k", 0), np.zeros(64))  # overwrite with a bigger blob
        assert d._total_bytes == d.stats()["bytes"]
        path, _ = d._locate(("k", 3))
        orig_size = path.stat().st_size
        torn = b"\x00torn"
        path.write_bytes(torn)  # external tamper = counter drift, by design
        before = d._total_bytes
        d.lookup(("k", 3))  # corrupt entry unlinked, observed size subtracted
        assert d._total_bytes == before - len(torn)
        # what remains unaccounted is exactly the externally-injected drift
        assert d._total_bytes - d.stats()["bytes"] == orig_size - len(torn)

    def test_put_under_budget_skips_the_scan(self, tmp_path, monkeypatch):
        """Under budget, a put must not rescan the store (the O(store)
        rescan per put is the bug this guards against); over budget the
        scan runs and corrects any counter drift."""
        d = DiskCache(tmp_path, max_bytes=1 << 20)
        d.put("seed", 0)  # seeds the running total
        calls = {"n": 0}
        real = d._entries

        def counting():
            calls["n"] += 1
            return real()

        monkeypatch.setattr(d, "_entries", counting)
        for i in range(10):
            d.put(("k", i), np.zeros(8))
        assert calls["n"] == 0
        # drift injected behind the counter's back is corrected by the
        # eviction scan once the (tiny) budget is crossed
        d2 = DiskCache(tmp_path, max_bytes=1)
        d2.put("x", np.zeros(8))
        assert d2._total_bytes == d2.stats()["bytes"]
        assert d2.stats()["bytes"] <= 1 or d2.stats()["entries"] <= 1


class _DictBackend:
    """Minimal in-memory stand-in honouring the backend protocol."""

    def __init__(self):
        self.data = {}

    def lookup(self, key):
        if key in self.data:
            return True, self.data[key]
        return False, None

    def put(self, key, value):
        self.data[key] = value

    def stats(self):
        return {"entries": len(self.data)}

    def __contains__(self, key):
        return key in self.data


class TestKeyedCacheBackend:
    def test_write_through_and_promotion(self):
        backend = _DictBackend()
        c = KeyedCache(maxsize=4, backend=backend)
        c.put("k", 7)
        assert backend.data == {"k": 7}
        # a fresh front (new process) promotes from the backend
        fresh = KeyedCache(maxsize=4, backend=backend)
        assert fresh.lookup("k") == (True, 7)
        assert fresh.backend_hits == 1
        # now resident in memory: no second backend consult needed
        assert fresh.lookup("k") == (True, 7)
        assert fresh.backend_hits == 1

    def test_memory_eviction_falls_back_to_backend(self):
        backend = _DictBackend()
        c = KeyedCache(maxsize=1, backend=backend)
        c.put("a", 1)
        c.put("b", 2)  # evicts "a" from memory, not from the backend
        assert c.lookup("a") == (True, 1)
        assert c.backend_hits == 1

    def test_stats_include_backend(self):
        c = KeyedCache(backend=_DictBackend())
        c.put("a", 1)
        s = c.stats()
        assert s["backend"] == {"entries": 1}
        assert s["backend_hits"] == 0

    def test_clear_keeps_backend(self):
        backend = _DictBackend()
        c = KeyedCache(backend=backend)
        c.put("a", 1)
        c.clear()
        assert backend.data == {"a": 1}
        assert c.lookup("a") == (True, 1)  # re-promoted


@pytest.fixture
def clean_caches():
    memo_cache.clear()
    disable_disk_cache()
    yield
    memo_cache.clear()
    disable_disk_cache()


class TestDiskBackedMemoisation:
    """Differential: disk-backed module memos == in-memory == direct."""

    def test_seeding_disk_hit_is_byte_identical(self, tmp_path, clean_caches):
        g = random_process_network(40, 90, seed=11)
        # a feasible instance: an infeasible one makes every member burn
        # all its cycles, for the same disk round trip
        cons = ConstraintSpec(bmax=64.0, rmax=600.0)

        def run(**kw):
            return evolve_partition(g, 3, cons, SEEDING_CONFIG, seed=4, **kw)

        reference = run(cache=False)
        assert reference.feasible

        enable_disk_cache(tmp_path)
        computed = run()
        assert not computed.info.get("cache_hit")

        # "restart": drop the in-memory level entirely, attach a fresh
        # DiskCache instance — everything must come back from disk
        memo_cache.clear()
        configure_cache_backend(DiskCache(tmp_path))
        restored = run()
        assert restored.info.get("cache_hit")
        assert memo_cache.backend_hits == 1

        for res in (computed, restored):
            np.testing.assert_array_equal(res.assign, reference.assign)
            assert res.metrics == reference.metrics
            assert res.algorithm == reference.algorithm

    def test_enable_disable_disk_cache(self, tmp_path, clean_caches):
        backend = enable_disk_cache(tmp_path)
        assert memo_cache.backend is backend
        disable_disk_cache()
        assert memo_cache.backend is None

    def test_partition_graph_evolve_survives_restart(
        self, tmp_path, clean_caches
    ):
        """The full api path: an evolve run memoised through the disk
        backend is served (bit-identically) after a simulated restart."""
        memo_cache.clear()
        g = random_process_network(24, 50, seed=2)
        cfg = EvolveConfig(pop_size=4, generations=2)
        enable_disk_cache(tmp_path)
        try:
            first = partition_graph(g, 3, method="evolve", config=cfg, seed=9)
            memo_cache.clear()
            configure_cache_backend(DiskCache(tmp_path))
            second = partition_graph(g, 3, method="evolve", config=cfg, seed=9)
            assert second.info.get("cache_hit")
            assert memo_cache.backend_hits == 1
            np.testing.assert_array_equal(second.assign, first.assign)
            assert second.metrics == first.metrics
        finally:
            memo_cache.clear()


def _refuse(err):
    def refuse(*args, **kwargs):
        raise OSError(err, os.strerror(err))

    return refuse


class TestWriteFailures:
    """A store the disk refuses to write drops entries, never results."""

    @pytest.mark.parametrize("err", [errno.ENOSPC, errno.EROFS])
    def test_put_counts_error_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, err
    ):
        d = DiskCache(tmp_path)
        monkeypatch.setattr(os, "replace", _refuse(err))
        d.put(("k", 1), "value")
        assert d.stats()["errors"] == 1 and d.stats()["puts"] == 0
        assert d.lookup(("k", 1)) == (False, None)
        assert list(tmp_path.rglob(".tmp-*")) == []

    def test_unwritable_dir_counts_error(self, tmp_path, monkeypatch):
        d = DiskCache(tmp_path)
        monkeypatch.setattr(tempfile, "mkstemp", _refuse(errno.EACCES))
        d.put("k", 1)
        assert d.stats()["errors"] == 1

    def test_full_disk_library_call_returns_its_result(
        self, tmp_path, monkeypatch, clean_caches
    ):
        g = random_process_network(40, 90, seed=11)
        cons = ConstraintSpec(bmax=64.0, rmax=400.0)
        config = EvolveConfig(pop_size=2, generations=0, seed_max_cycles=2)
        reference = evolve_partition(g, 3, cons, config, seed=4, cache=False)
        backend = enable_disk_cache(tmp_path)
        monkeypatch.setattr(os, "replace", _refuse(errno.ENOSPC))
        result = evolve_partition(g, 3, cons, config, seed=4)
        np.testing.assert_array_equal(result.assign, reference.assign)
        assert result.metrics == reference.metrics
        assert backend.stats()["errors"] == 1
        # the in-memory level still took the entry
        hit = evolve_partition(g, 3, cons, config, seed=4)
        assert hit.info["cache_hit"]
