"""Tests for the unified observability layer (``repro.obs``).

Pins the subsystem's four contracts:

* **structure** — the span tree produced by a profiled run nests exactly
  like the call structure (gp > parallel_map > gp.cycle > coarsen /
  gp.initial / uncoarsen), and the Chrome trace-event export validates
  against the schema gate CI stage 8 uses;
* **neutrality** — profiling never changes a partition: assignments are
  bit-identical with the capture on and off;
* **zero overhead when off** — disabled ``trace_span`` returns one
  shared singleton, disabled metric helpers never touch the registry,
  and the per-site cost is a branch (micro-budgeted below; the 10k-node
  wall-clock budget lives in the slow marker);
* **determinism across processes** — worker-shipped metric deltas merge
  to identical totals for every ``n_jobs``.
"""

import json
import os
import time

import numpy as np
import pytest

import repro.obs as obs
import repro.obs.memory as _memory
from repro.core.api import partition_graph
from repro.graph.generators import random_process_network
from repro.obs.registry import MetricsRegistry
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.kway_refine import constrained_kway_fm
from repro.partition.metrics import ConstraintSpec
from repro.partition.refine_state import RefinementState
from repro.util.parallel import parallel_map

N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with instrumentation disabled."""
    obs.disable()
    _memory.disable_memory()
    yield
    obs.disable()
    _memory.disable_memory()


def _metered_task(x):
    """Module-level worker: emits one counter, one gauge, one sample."""
    obs.add("test.tasks")
    obs.gauge_set("test.last", float(x))
    obs.observe("test.vals", float(x), buckets=(1.0, 10.0))
    return x * 2


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_gauge_histogram(self):
        r = MetricsRegistry()
        r.inc("c", 2.0, part="a")
        r.inc("c", 3.0, part="a")
        r.gauge_set("g", 7.0)
        r.gauge_add("g", -2.0)
        r.observe("h", 0.5, buckets=(1.0, 10.0))
        r.observe_bulk("h", [5.0, 50.0], buckets=(1.0, 10.0))
        snap = r.snapshot()
        assert snap["counters"]["c"][(("part", "a"),)] == 5.0
        assert snap["gauges"]["g"][()] == 5.0
        bounds, series = snap["histograms"]["h"]
        assert bounds == (1.0, 10.0)
        counts, total, count = series[()]
        assert counts == [1, 1, 1] and count == 3 and total == 55.5

    def test_delta_reports_only_changes(self):
        r = MetricsRegistry()
        r.inc("c", 1.0)
        before = r.snapshot()
        d = r.delta(before)
        assert d == {"counters": {}, "gauges": {}, "histograms": {}}
        r.inc("c", 4.0)
        r.inc("other")
        d = r.delta(before)
        assert d["counters"]["c"][()] == 4.0
        assert d["counters"]["other"][()] == 1.0

    def test_merge_is_additive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1.0)
        b.inc("c", 2.0)
        b.observe("h", 3.0, buckets=(1.0,))
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"][()] == 3.0
        assert snap["histograms"]["h"][1][()][2] == 1

    def test_bucket_boundaries_are_upper_inclusive(self):
        r = MetricsRegistry()
        for v in (1.0, 1.0001, 10.0, 11.0):
            r.observe("h", v, buckets=(1.0, 10.0))
        counts = r.snapshot()["histograms"]["h"][1][()][0]
        # 1.0 -> (≤1.0], 1.0001 and 10.0 -> (1.0, 10.0], 11.0 -> +inf
        assert counts == [1, 2, 1]

    def test_delta_rejects_changed_bucket_bounds(self):
        r = MetricsRegistry()
        r.observe("lat", 1.0, buckets=(1.0, 10.0))
        before = r.snapshot()
        r.reset()
        r.observe("lat", 1.0, buckets=(2.0, 20.0))
        with pytest.raises(ValueError, match="'lat'"):
            r.delta(before)

    def test_merge_rejects_mismatched_bucket_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat", 1.0, buckets=(1.0, 10.0))
        b.observe("lat", 1.0, buckets=(2.0, 20.0))
        with pytest.raises(ValueError, match="'lat'"):
            a.merge(b.snapshot())
        # the registry survives the refusal untouched
        assert a.snapshot()["histograms"]["lat"][1][()][2] == 1

    def test_merge_accepts_matching_and_fresh_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat", 1.0, buckets=(1.0, 10.0))
        b.observe("lat", 5.0, buckets=(1.0, 10.0))
        b.observe("new", 1.0, buckets=(7.0,))
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["histograms"]["lat"][1][()][2] == 2
        assert snap["histograms"]["new"][0] == (7.0,)


# --------------------------------------------------------------------- #
# span tree structure
# --------------------------------------------------------------------- #
def _names(span_dicts):
    return [s["name"] for s in span_dicts]


def _find(span, name):
    assert span["name"] != name  # use on parents only
    hits = [c for c in span["children"] if c["name"] == name]
    assert hits, f"no child {name!r} under {span['name']!r}"
    return hits[0]


class TestSpanTree:
    def test_nesting_matches_call_structure(self):
        g = random_process_network(60, 140, seed=3)
        cons = ConstraintSpec(bmax=float("inf"), rmax=float("inf"))
        with obs.capture() as cap:
            gp_partition(
                g, 3, cons,
                config=GPConfig(max_cycles=2, coarsen_to=20), seed=1,
            )
        roots = [s.to_dict() for s in cap.spans]
        assert _names(roots) == ["gp"]
        pm = _find(roots[0], "parallel_map")
        cycle = _find(pm, "gp.cycle")
        coarsen = _find(cycle, "coarsen")
        _find(cycle, "gp.initial")
        unc = _find(cycle, "uncoarsen")
        # every coarsen.level child reports its shrink; every refine
        # level carries before/after cuts
        assert coarsen["children"] and unc["children"]
        for lv in coarsen["children"]:
            assert lv["name"] == "coarsen.level"
            assert lv["attrs"]["nodes_out"] <= lv["attrs"]["nodes_in"]
        for rl in unc["children"]:
            assert rl["name"] == "gp.refine_level"
            assert "cut_before" in rl["attrs"]
            assert "cut_after" in rl["attrs"]

    def test_children_time_within_parent(self):
        g = random_process_network(40, 90, seed=5)
        with obs.capture() as cap:
            gp_partition(g, 2, ConstraintSpec(), seed=0)

        def walk(d):
            end = d["t0"] + d["elapsed"]
            for c in d["children"]:
                assert c["t0"] >= d["t0"] - 1e-6
                assert c["t0"] + c["elapsed"] <= end + 1e-6
                walk(c)

        for root in cap.spans:
            walk(root.to_dict())

    def test_capture_is_exclusive(self):
        with obs.capture():
            with pytest.raises(RuntimeError):
                with obs.capture():
                    pass


# --------------------------------------------------------------------- #
# export
# --------------------------------------------------------------------- #
class TestExport:
    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        g = random_process_network(50, 120, seed=2)
        report = partition_graph(g, 3, seed=4, profile=True)
        path = tmp_path / "trace.json"
        doc = report.write_trace(str(path))
        assert obs.validate_chrome_trace(doc) > 0
        loaded = json.loads(path.read_text())
        assert obs.validate_chrome_trace(loaded) == len(doc["traceEvents"])
        # the structured capture rides along for `repro profile`
        assert loaded["otherData"]["repro"]["spans"]
        assert loaded["displayTimeUnit"] == "ms"
        # complete events carry µs timestamps normalised to t=0
        ts = [e["ts"] for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert min(ts) == 0.0

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(
                {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "name": "x", "pid": 1, "tid": 1,
                     "ts": -1.0, "dur": 0.0}
                ]}
            )

    def test_validate_rejects_clock_skew_artifacts(self):
        """The monotonic-clock skew guard: negative durations, NaN
        timestamps and end-before-start span trees are all rejected."""
        def event(**kv):
            ev = {"ph": "X", "name": "x", "pid": 1, "tid": 1,
                  "ts": 0.0, "dur": 1.0}
            ev.update(kv)
            return {"traceEvents": [ev]}

        with pytest.raises(ValueError, match="dur"):
            obs.validate_chrome_trace(event(dur=-0.5))
        with pytest.raises(ValueError, match="dur"):
            obs.validate_chrome_trace(event(dur=float("nan")))
        with pytest.raises(ValueError, match="ts"):
            obs.validate_chrome_trace(event(ts=float("nan")))
        with pytest.raises(ValueError, match="ts"):
            obs.validate_chrome_trace(event(ts=float("inf")))
        with pytest.raises(ValueError, match="ts"):
            obs.validate_chrome_trace(event(ts=True))  # bool is not a time

    def test_validate_rejects_bad_span_forest(self):
        def doc(span):
            return {"traceEvents": [],
                    "otherData": {"repro": {"spans": [span]}}}

        with pytest.raises(ValueError, match="elapsed"):
            obs.validate_chrome_trace(
                doc({"name": "s", "t0": 1.0, "elapsed": -0.1})
            )
        with pytest.raises(ValueError, match="offset"):
            obs.validate_chrome_trace(doc({
                "name": "s", "t0": 1.0, "elapsed": 0.5,
                "events": [("e", 0.9, {})],
            }))
        with pytest.raises(ValueError, match="before its parent"):
            obs.validate_chrome_trace(doc({
                "name": "s", "t0": 5.0, "elapsed": 1.0,
                "children": [{"name": "c", "t0": 1.0, "elapsed": 0.1}],
            }))
        # a well-formed forest passes
        assert obs.validate_chrome_trace(doc({
            "name": "s", "t0": 5.0, "elapsed": 1.0,
            "events": [("e", 0.5, {})],
            "children": [{"name": "c", "t0": 5.2, "elapsed": 0.3}],
        })) == 0

    def test_format_profile_renders_spans_and_metrics(self):
        g = random_process_network(40, 90, seed=6)
        report = partition_graph(g, 2, seed=1, profile=True)
        text = report.summary()
        assert "wall time" in text
        assert "gp" in text
        assert "fm.moves_tried" in text or "fm.passes" in text


# --------------------------------------------------------------------- #
# neutrality + disabled mode
# --------------------------------------------------------------------- #
class TestNeutrality:
    def test_profiled_run_is_bit_identical(self):
        g = random_process_network(80, 200, seed=9)
        cons = dict(bmax=0.3 * g.total_edge_weight,
                    rmax=1.2 * g.total_node_weight / 3)
        plain = partition_graph(g, 3, seed=7, **cons)
        report = partition_graph(g, 3, seed=7, profile=True, **cons)
        assert isinstance(report, obs.ProfileReport)
        np.testing.assert_array_equal(plain.assign, report.result.assign)
        assert plain.metrics.cut == report.result.metrics.cut
        assert report.spans and report.wall_s > 0

    def test_disabled_trace_span_is_shared_singleton(self):
        a = obs.trace_span("x", foo=1)
        b = obs.trace_span("y")
        assert a is b  # no allocation on the disabled path
        with a as sp:
            sp.set(ignored=True)
            sp.event("nothing")

    def test_disabled_helpers_never_touch_registry(self):
        before = obs.REGISTRY.snapshot()
        obs.add("t.c", 5.0)
        obs.gauge_set("t.g", 1.0)
        obs.observe("t.h", 1.0)
        obs.cache_event("t", "hit")
        parallel_map(_metered_task, [1, 2, 3])
        assert obs.REGISTRY.delta(before) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_disabled_run_records_no_spans(self):
        g = random_process_network(30, 60, seed=1)
        before = obs.REGISTRY.snapshot()
        gp_partition(g, 2, ConstraintSpec(), seed=0)
        assert obs.REGISTRY.delta(before) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_timed_span_still_times_when_disabled(self):
        with obs.timed_span("x") as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.009

    def test_disabled_site_cost_is_nanoseconds(self):
        """The per-site contract: one branch, no allocation.

        Budget: 1M disabled trace_span+add pairs in < 2s (≥ 1µs/site
        would mean an object is being built on the disabled path).
        """
        t0 = time.perf_counter()
        for _ in range(1_000_000):
            obs.trace_span("hot")
            obs.add("hot")
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"disabled site pair costs {elapsed:.2f}µs"


# --------------------------------------------------------------------- #
# parallel_map metric shipping
# --------------------------------------------------------------------- #
class TestParallelMerge:
    def _run(self, n_jobs, tasks=(0, 1, 2, 3, 4, 5)):
        # a clean registry per run: capture deltas drop a gauge whose
        # final value equals its pre-capture value, so back-to-back runs
        # would otherwise report different (all correct) delta shapes
        obs.REGISTRY.reset()
        with obs.capture(tracing=False) as cap:
            out = parallel_map(_metered_task, list(tasks), n_jobs=n_jobs)
        return out, cap.metrics

    def test_child_metrics_merge_deterministically(self):
        base_out, base_metrics = self._run(1)
        for n_jobs in (2, 3, N_JOBS):
            out, metrics = self._run(n_jobs)
            assert out == base_out
            assert metrics["counters"]["test.tasks"] == \
                base_metrics["counters"]["test.tasks"]
            assert metrics["histograms"]["test.vals"] == \
                base_metrics["histograms"]["test.vals"]
            # gauges are last-writer-wins in task order == serial outcome
            assert metrics["gauges"]["test.last"] == \
                base_metrics["gauges"]["test.last"]

    def test_consumed_task_count_matches_any_njobs(self):
        _, serial = self._run(1)
        _, pooled = self._run(N_JOBS)
        n_serial = sum(serial["counters"]["pool.tasks"].values())
        n_pooled = sum(pooled["counters"]["pool.tasks"].values())
        assert n_serial == n_pooled == 6

    def test_gp_fm_series_identical_across_njobs(self):
        g = random_process_network(70, 160, seed=11)
        cons = ConstraintSpec(bmax=0.35 * g.total_edge_weight,
                              rmax=1.25 * g.total_node_weight / 3)
        cfg = GPConfig(max_cycles=3)

        def fm_counters(n_jobs):
            with obs.capture(tracing=False) as cap:
                res = gp_partition(g, 3, cons, config=cfg, seed=2,
                                   n_jobs=n_jobs)
            fm = {
                name: series
                for name, series in cap.metrics["counters"].items()
                if name.startswith("fm.")
            }
            return res.assign, fm

        a1, fm1 = fm_counters(1)
        a2, fm2 = fm_counters(N_JOBS)
        np.testing.assert_array_equal(a1, a2)
        assert fm1 == fm2

    def test_worker_spans_graft_into_parent_tree(self):
        g = random_process_network(60, 140, seed=13)
        cons = ConstraintSpec()
        with obs.capture() as cap:
            gp_partition(g, 2, cons, config=GPConfig(max_cycles=2),
                         seed=3, n_jobs=N_JOBS)
        root = cap.spans[0].to_dict()
        pm = _find(root, "parallel_map")
        assert pm["attrs"]["mode"] in ("pool", "warm", "serial")

        def collect(d, name, acc):
            if d["name"] == name:
                acc.append(d)
            for c in d["children"]:
                collect(c, name, acc)

        cycles: list = []
        collect(root, "gp.cycle", cycles)
        assert cycles, "worker gp.cycle spans must appear in the tree"
        # rebased into the parent timeline: no negative timestamps ahead
        # of the capture start
        assert all(c["t0"] >= 0.0 for c in cycles)


# --------------------------------------------------------------------- #
# serve integration
# --------------------------------------------------------------------- #
class TestFMRevalidationCounters:
    def test_counts_every_stale_pop_and_repush(self):
        """``fm.revalidations`` equals the FM's single-node ``best_move``
        calls (it makes one per stale pop and no other); ``fm.repushed``
        counts the subset whose fresh move went back into the queue."""

        class CountingState(RefinementState):
            __slots__ = ("calls",)

            def best_move(self, u, constraints):
                self.calls += 1
                return super().best_move(u, constraints)

        g = random_process_network(60, 140, seed=3)
        cons = ConstraintSpec(bmax=0.1 * g.total_edge_weight,
                              rmax=1.2 * g.total_node_weight / 4)
        a = np.arange(g.n) % 4
        st = CountingState(g, a, 4)
        st.calls = 0
        with obs.capture(tracing=False) as cap:
            constrained_kway_fm(g, a, 4, cons, seed=1, state=st)
        label = (("engine", "CountingState"),)
        counters = cap.metrics["counters"]
        revalidations = counters["fm.revalidations"][label]
        repushed = counters["fm.repushed"][label]
        assert revalidations == st.calls > 0
        assert 0 < repushed <= revalidations


class TestServeMetrics:
    def test_server_metrics_keep_shape_and_add_library_series(self):
        from repro.serve.server import ReproServer

        server = ReproServer(port=0)
        try:
            assert obs.metrics_on()  # daemon keeps library metrics on
            with server.metrics.track("/test"):
                pass
            server.metrics.note_compute()
            snap = server.metrics.snapshot()
            assert snap["requests"]["/test"] == {"count": 1, "errors": 0}
            assert snap["computes"] == 1
            assert snap["latency"]["count"] == sum(snap["latency"]["counts"])
            assert snap["uptime_s"] >= 0.0
            payload = server.metrics_payload()
            assert "library" in payload
        finally:
            server.close()
        assert not obs.metrics_on()  # close() restores the prior switch

    def test_two_servers_isolate_their_counters(self):
        from repro.serve.server import ReproServer

        s1 = ReproServer(port=0)
        try:
            with s1.metrics.track("/a"):
                pass
            s2 = ReproServer(port=0)
            try:
                assert "/a" not in s2.metrics.snapshot()["requests"]
                assert s2.metrics.snapshot()["computes"] == 0
            finally:
                s2.close()
        finally:
            s1.close()


# --------------------------------------------------------------------- #
# memory instrumentation
# --------------------------------------------------------------------- #
class TestMemory:
    def test_disabled_probe_is_shared_singleton(self):
        assert not _memory.memory_on()
        a = _memory.memory_probe()
        b = _memory.memory_probe()
        assert a is b  # no allocation on the disabled path
        with a as p:
            pass
        assert p.peak_bytes == 0 and p.alloc_delta == 0

    def test_disabled_site_cost_is_nanoseconds(self):
        """1M disabled memory sites (probe + gauge) inside 2 seconds —
        the same per-site budget the tracer's disabled path carries."""
        probe = _memory.memory_probe
        note = _memory.note_bytes
        start = time.perf_counter()
        for i in range(1_000_000):
            with probe():
                pass
            note("test.site", i)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"1M disabled memory sites took {elapsed:.2f}s"

    def test_disabled_note_bytes_never_touches_registry(self):
        before = obs.REGISTRY.snapshot()
        _memory.note_bytes("test.site", 4096, k=4)
        assert obs.REGISTRY.delta(before) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_gauges_only_mode_skips_tracemalloc(self):
        """``capture(memory="gauges")`` publishes allocation/RSS gauges
        without starting tracemalloc (the scale-benchmark mode)."""
        import tracemalloc

        assert not _memory.memory_on()
        with obs.capture(memory="gauges") as cap:
            assert _memory.memory_on()
            assert not tracemalloc.is_tracing()
            _memory.note_bytes("test.gauges_only", 4096, k=4)
            # spans carry no byte attrs: frames never open without tracing
            assert _memory.frame_enter() is None
        assert not _memory.memory_on()
        gauges = cap.metrics["gauges"]
        key = (("k", 4), ("site", "test.gauges_only"))
        assert gauges["mem.alloc_bytes"][key] == 4096.0
        assert gauges["mem.rss_peak_bytes"]  # stamped on exit as usual

    def test_probe_measures_a_numpy_allocation(self):
        _memory.enable_memory()
        try:
            with _memory.memory_probe() as p:
                buf = np.zeros(250_000)  # ~2 MB through the traced allocator
                del buf
            assert p.peak_bytes >= 1_500_000
            # the buffer was freed inside the probe: retained << peak
            assert p.alloc_delta < p.peak_bytes
        finally:
            _memory.disable_memory()

    def test_child_peak_propagates_to_parent(self):
        _memory.enable_memory()
        try:
            with _memory.memory_probe() as outer:
                with _memory.memory_probe() as inner:
                    buf = np.zeros(250_000)
                    del buf
            assert inner.peak_bytes >= 1_500_000
            # reset_peak per frame must not let the parent under-report
            assert outer.peak_bytes >= inner.peak_bytes
        finally:
            _memory.disable_memory()

    def test_sibling_does_not_inherit_peak(self):
        _memory.enable_memory()
        try:
            with _memory.memory_probe() as big:
                buf = np.zeros(250_000)
                del buf
            with _memory.memory_probe() as small:
                pass
            assert big.peak_bytes >= 1_500_000
            assert small.peak_bytes < 100_000
        finally:
            _memory.disable_memory()

    def test_capture_restores_memory_switch_and_stamps_rss(self):
        assert not _memory.memory_on()
        with obs.capture(memory=True) as cap:
            assert _memory.memory_on()
        assert not _memory.memory_on()
        gauges = cap.metrics.get("gauges", {})
        assert "mem.rss_peak_bytes" in gauges
        (value,) = gauges["mem.rss_peak_bytes"].values()
        assert value > 0

    def test_profile_mem_is_bit_identical_and_reports_bytes(self):
        """The acceptance path: ``profile="mem"`` changes nothing about
        the partition but attaches per-span bytes and the connectivity-
        matrix allocation gauge."""
        g = random_process_network(80, 200, seed=9)
        cons = dict(bmax=0.3 * g.total_edge_weight,
                    rmax=1.2 * g.total_node_weight / 3)
        plain = partition_graph(g, 3, seed=7, **cons)
        report = partition_graph(g, 3, seed=7, profile="mem", **cons)
        assert not _memory.memory_on()  # switch restored after the capture
        np.testing.assert_array_equal(plain.assign, report.result.assign)
        assert plain.metrics.cut == report.result.metrics.cut

        # every span in the tree carries the byte attributes
        def walk(d):
            yield d
            for c in d.get("children", []):
                yield from walk(c)

        roots = [
            r.to_dict() if hasattr(r, "to_dict") else r for r in report.spans
        ]
        spans = [s for root in roots for s in walk(root)]
        assert spans
        assert all("peak_bytes" in s["attrs"] for s in spans)
        assert any(s["attrs"]["peak_bytes"] > 0 for s in spans)
        # parents never report a smaller peak than their children
        for d in roots:
            for parent in walk(d):
                for child in parent.get("children", []):
                    assert parent["attrs"]["peak_bytes"] >= \
                        child["attrs"]["peak_bytes"]

        # the RefinementState connectivity matrix gauge is present
        gauges = report.metrics.get("gauges", {})
        assert "mem.alloc_bytes" in gauges
        sites = {dict(key).get("site") for key in gauges["mem.alloc_bytes"]}
        assert "refine_state.conn" in sites

        # and the text profile grows the memory columns
        text = report.summary()
        assert "peak_mem" in text and "alloc" in text

    def test_plain_profile_has_no_memory_columns(self):
        g = random_process_network(40, 90, seed=2)
        report = partition_graph(g, 2, seed=0, profile=True)
        assert "peak_mem" not in report.summary()


# --------------------------------------------------------------------- #
# prometheus exposition
# --------------------------------------------------------------------- #
class TestPrometheus:
    def _snapshot(self):
        r = MetricsRegistry()
        r.inc("fm.moves", 5.0, engine="graph")
        r.inc("fm.moves", 2.0, engine="hyper")
        r.gauge_set("mem.alloc_bytes", 1024.0, site='a"b\\c', k=4)
        r.observe("serve.latency_ms", 3.0, buckets=(5.0, 25.0))
        r.observe("serve.latency_ms", 40.0, buckets=(5.0, 25.0))
        return r.snapshot()

    def test_render_validates_and_has_histogram_shape(self):
        text = obs.render_prometheus(self._snapshot())
        n = obs.validate_prometheus_text(text)
        assert n == 3 + 3 + 2  # counters + buckets(2+inf) + sum/count
        assert "# TYPE fm_moves counter" in text
        assert 'fm_moves{engine="graph"} 5.0' in text
        assert "# TYPE serve_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        # escaping survives the round trip
        assert '\\"' in text and "\\\\" in text

    def test_empty_snapshot_renders_empty(self):
        assert obs.render_prometheus(MetricsRegistry().snapshot()) == ""
        assert obs.validate_prometheus_text("") == 0

    def test_validator_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="malformed sample"):
            obs.validate_prometheus_text("9bad_name 1.0\n")
        with pytest.raises(ValueError, match="duplicate label"):
            obs.validate_prometheus_text('m{a="1",a="2"} 1.0\n')
        with pytest.raises(ValueError, match="after its samples"):
            obs.validate_prometheus_text(
                "m 1.0\n# TYPE m counter\n"
            )
        bad_hist = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="1.0"} 5',
            'h_bucket{le="+Inf"} 3',  # not cumulative
            "h_sum 1.0",
            "h_count 3",
            "",
        ])
        with pytest.raises(ValueError, match="not cumulative"):
            obs.validate_prometheus_text(bad_hist)
        no_inf = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="1.0"} 5',
            "h_sum 1.0",
            "h_count 5",
            "",
        ])
        with pytest.raises(ValueError, match=r'le="\+Inf"'):
            obs.validate_prometheus_text(no_inf)

    def test_registry_snapshot_always_renders_clean(self):
        """The live registry (dotted names, numeric labels) sanitizes to
        valid exposition text."""
        with obs.capture() as cap:
            g = random_process_network(40, 90, seed=2)
            gp_partition(g, 2, ConstraintSpec(), seed=0)
        del cap
        text = obs.render_prometheus(obs.REGISTRY.snapshot())
        assert obs.validate_prometheus_text(text) > 0


# --------------------------------------------------------------------- #
# wall-clock budget (slow tier, with the other perf smokes)
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_disabled_overhead_under_budget_10k():
    """Instrumented-but-disabled pipeline on the 10k-node smoke instance.

    The disabled path adds one branch per site; relative to the pre-PR
    code that is noise, so this asserts the same order-of-magnitude
    wall-clock budget the other perf smokes use (the <2% contract is
    pinned per-site by ``test_disabled_site_cost_is_nanoseconds``).
    """
    from repro.partition.kway_refine import constrained_kway_fm
    from repro.partition.metrics import evaluate_partition

    n, k = 10_000, 8
    g = random_process_network(n, int(2.5 * n), seed=0)
    a = np.random.default_rng(0).integers(0, k, size=n)
    cons = ConstraintSpec(
        bmax=0.02 * g.total_edge_weight, rmax=1.1 * g.total_node_weight / k
    )
    assert not obs.active()
    start = time.perf_counter()
    out = constrained_kway_fm(g, a, k, cons, seed=0)
    elapsed = time.perf_counter() - start
    after = evaluate_partition(g, out, k, cons)
    before = evaluate_partition(g, a, k, cons)
    assert after.total_violation <= before.total_violation + 1e-9
    assert elapsed < 30.0, f"10k-node disabled-obs FM took {elapsed:.1f}s"
