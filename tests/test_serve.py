"""Tests for the ``repro serve`` subsystem.

Covers the request schema, the single-flight primitive, and the daemon
end-to-end (in-process ``ReproServer`` on an ephemeral port, spoken to
through :class:`~repro.serve.client.ServeClient`): compute → cache hit →
digest-only fetch → 404/400 paths → metrics, concurrent identical
requests deduplicating to a single compute, and warm-restart persistence
through the disk store.  Fault tests kill the compute worker mid-compute
and drop a client mid-compute.  The subprocess variant of the same story
runs in CI (``scripts/serve_smoke.py``).
"""

import errno
import http.client
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.api import partition_graph
from repro.graph.generators import random_process_network
from repro.serve.client import ServeClient
from repro.serve.schema import (
    BadRequest,
    ServeError,
    parse_request,
    request_cache_key,
)
from repro.serve.server import ReproServer
from repro.serve.singleflight import SingleFlight


class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        sf = SingleFlight()
        assert sf.do("k", lambda: 1) == (1, True)
        assert sf.do("k", lambda: 2) == (2, True)
        assert sf.stats() == {"leaders": 2, "shared": 0, "in_flight": 0}

    def test_concurrent_same_key_computes_once(self):
        sf = SingleFlight()
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow():
            calls.append(1)
            started.set()
            release.wait(5)
            return "value"

        results = []

        def worker():
            results.append(sf.do("k", slow))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads[0].start()
        assert started.wait(5)
        for t in threads[1:]:
            t.start()
        # let the waiters actually enter the flight before releasing
        deadline = time.monotonic() + 5
        while sf.stats()["shared"] < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(5)

        assert len(calls) == 1
        assert sorted(r[1] for r in results) == [False, False, False, True]
        assert all(r[0] == "value" for r in results)
        assert sf.stats() == {"leaders": 1, "shared": 3, "in_flight": 0}

    def test_distinct_keys_do_not_share(self):
        sf = SingleFlight()
        assert sf.do("a", lambda: 1) == (1, True)
        assert sf.do("b", lambda: 2) == (2, True)
        assert sf.stats()["shared"] == 0

    def test_leader_exception_propagates_and_clears(self):
        sf = SingleFlight()
        with pytest.raises(ValueError):
            sf.do("k", lambda: (_ for _ in ()).throw(ValueError("boom")))
        assert sf.in_flight() == 0
        # the key is usable again afterwards
        assert sf.do("k", lambda: 7) == (7, True)


class TestParseRequest:
    def _graph_doc(self, n=8, m=14, seed=0):
        from repro.graph.io import graph_to_json

        g = random_process_network(n, m, seed=seed)
        return g, json.loads(graph_to_json(g))

    def test_minimal_graph_request(self):
        g, doc = self._graph_doc()
        req = parse_request({"graph": doc, "k": 3})
        assert req.k == 3 and req.method == "gp"
        assert req.bmax == float("inf") and req.rmax == float("inf")
        assert req.seed is None
        assert req.digest == g.content_digest()

    def test_digest_only_request(self):
        req = parse_request({"digest": "a" * 64, "k": 2, "seed": 5})
        assert req.graph is None and req.digest == "a" * 64 and req.seed == 5

    def test_digest_graph_mismatch(self):
        _, doc = self._graph_doc()
        with pytest.raises(BadRequest, match="does not match"):
            parse_request({"graph": doc, "digest": "b" * 64, "k": 2})

    def test_matching_digest_accepted(self):
        g, doc = self._graph_doc()
        req = parse_request({"graph": doc, "digest": g.content_digest(), "k": 2})
        assert req.graph is not None

    @pytest.mark.parametrize(
        "doc,match",
        [
            ([1, 2], "JSON object"),
            ({"k": 2}, "needs a 'graph' payload or a 'digest'"),
            ({"digest": "a" * 64}, "'k' must be a positive integer"),
            ({"digest": "a" * 64, "k": 0}, "'k' must be a positive integer"),
            ({"digest": "a" * 64, "k": True}, "'k' must be a positive integer"),
            ({"digest": "a" * 64, "k": 2, "method": "magic"}, "unknown method"),
            ({"digest": "a" * 64, "k": 2, "bmax": -1}, "non-negative"),
            ({"digest": "a" * 64, "k": 2, "rmax": "wat"}, "must be a number"),
            ({"digest": "a" * 64, "k": 2, "seed": 1.5}, "'seed' must be"),
            ({"digest": "short", "k": 2}, "64-hex"),
            ({"digest": "a" * 64, "k": 2, "n_jobs": 4}, "unknown request fields"),
            ({"graph": "nope", "k": 2}, "'graph' must be"),
        ],
    )
    def test_rejections(self, doc, match):
        with pytest.raises(BadRequest, match=match):
            parse_request(doc)

    def test_cache_key_excludes_nothing_it_should_not(self):
        g, doc = self._graph_doc()
        a = request_cache_key(parse_request({"graph": doc, "k": 3, "seed": 1}))
        b = request_cache_key(
            parse_request({"digest": g.content_digest(), "k": 3, "seed": 1})
        )
        assert a == b  # graph-carrying and digest-only requests share keys
        c = request_cache_key(parse_request({"graph": doc, "k": 3, "seed": 2}))
        assert a != c


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(port=0, cache_dir=tmp_path / "cache", n_jobs=1)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(5)
        srv.close()


class TestServerEndToEnd:
    def _client(self, srv):
        return ServeClient(f"http://{srv.host}:{srv.port}", timeout=60)

    def test_health(self, server):
        out = self._client(server).health()
        assert out["status"] == "ok" and out["persistent_cache"] is True

    def test_partition_matches_direct_call(self, server):
        g = random_process_network(30, 60, seed=7)
        client = self._client(server)
        out = client.partition(g, k=3, bmax=64.0, rmax=500.0, seed=5)
        direct = partition_graph(g, 3, bmax=64.0, rmax=500.0, seed=5)
        assert out["cached"] is False and out["deduped"] is False
        np.testing.assert_array_equal(out["assign"], direct.assign)
        assert out["cut"] == direct.metrics.cut
        assert out["feasible"] == direct.feasible
        assert out["metrics"]["max_resource"] == direct.metrics.max_resource

    def test_repeat_is_cached_and_digest_only_works(self, server):
        g = random_process_network(30, 60, seed=7)
        client = self._client(server)
        first = client.partition(g, k=3, seed=1)
        again = client.partition(g, k=3, seed=1)
        assert again["cached"] is True
        by_digest = client.partition(digest=g.content_digest(), k=3, seed=1)
        assert by_digest["cached"] is True
        for out in (again, by_digest):
            assert out["assign"] == first["assign"]
            assert out["cut"] == first["cut"]
        # exactly one compute happened
        assert client.metrics()["computes"] == 1

    def test_keepalive_cache_hits_do_not_stall(self, server):
        """Cache hits over one keep-alive connection answer well under the
        >= 40 ms a Nagle/delayed-ACK stall adds to every response."""
        g = random_process_network(30, 60, seed=7)
        self._client(server).partition(g, k=3, seed=4)  # compute + cache
        body = json.dumps(
            {"digest": g.content_digest(), "k": 3, "method": "gp", "seed": 4}
        ).encode()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        conn.connect()
        # the client's own writes go out at once, so only the daemon's count
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rtts = []
        try:
            for _ in range(10):
                t0 = time.perf_counter()
                conn.request("POST", "/partition", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                out = json.loads(resp.read())
                rtts.append(time.perf_counter() - t0)
                assert resp.status == 200 and out["cached"] is True
        finally:
            conn.close()
        assert float(np.median(rtts)) < 0.025, rtts

    def test_unknown_digest_is_404(self, server):
        client = self._client(server)
        with pytest.raises(ServeError) as exc:
            client.partition(digest="c" * 64, k=2)
        assert exc.value.status == 404

    def test_bad_request_is_400(self, server):
        client = self._client(server)
        with pytest.raises(ServeError) as exc:
            client.partition(digest="not-a-digest", k=2)
        assert exc.value.status == 400

    def test_library_rejection_is_400(self, server):
        # k > n is a library-level PartitionError, not a schema error
        g = random_process_network(4, 5, seed=0)
        with pytest.raises(ServeError) as exc:
            self._client(server).partition(g, k=10)
        assert exc.value.status == 400

    def test_metrics_shape(self, server):
        client = self._client(server)
        client.health()
        out = client.metrics()
        assert out["single_flight"] == {
            "leaders": 0,
            "shared": 0,
            "in_flight": 0,
        }
        assert "results" in out["caches"] and "memo" in out["caches"]
        lat = out["latency"]
        assert lat["count"] == sum(lat["counts"]) >= 1
        assert "/healthz" in out["requests"]

    def test_full_disk_still_serves(self, server, monkeypatch):
        """ENOSPC on the disk store loses the cache entry, not the answer."""
        def full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full)
        g = random_process_network(30, 60, seed=7)
        client = self._client(server)
        out = client.partition(g, k=3, seed=2)
        direct = partition_graph(g, 3, seed=2)
        assert out["assign"] == direct.assign.tolist()
        disk = client.metrics()["caches"]["results"]["backend"]
        assert disk["errors"] == 1 and disk["entries"] == 0

    def test_metrics_prometheus_exposition(self, server):
        import urllib.request

        import repro.obs as obs

        self._client(server).health()
        base = f"http://{server.host}:{server.port}"

        # explicit format= query parameter
        with urllib.request.urlopen(
            base + "/metrics?format=prometheus", timeout=30
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        # the line-format gate the ISSUE pins: stock scrapers can read it
        assert obs.validate_prometheus_text(text) > 0
        assert "# TYPE serve_requests counter" in text
        assert 'serve_requests{endpoint="/healthz"}' in text
        assert "# TYPE serve_latency_ms histogram" in text
        assert 'le="+Inf"' in text

        # Accept-header negotiation reaches the same rendering ...
        req = urllib.request.Request(
            base + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert obs.validate_prometheus_text(
                resp.read().decode("utf-8")
            ) > 0

        # ... while the default stays JSON
        with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("application/json")
            payload = json.loads(resp.read().decode("utf-8"))
        assert "library" in payload

    def test_concurrent_identical_requests_compute_once(
        self, server, monkeypatch
    ):
        """Two clients racing the same cold request: one compute, both
        answered identically, one flagged deduped."""
        real = server._in_worker
        entered = threading.Event()

        def held_handoff(req):
            # hold the flight open at the hand-off to the compute worker
            # until the second request has joined it
            entered.set()
            deadline = time.monotonic() + 10
            while (server.flight.stats()["shared"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return real(req)

        monkeypatch.setattr(server, "_in_worker", held_handoff)

        g = random_process_network(30, 60, seed=3)
        client = self._client(server)
        outs = []

        def call():
            outs.append(client.partition(g, k=3, seed=2))

        t1 = threading.Thread(target=call)
        t1.start()
        assert entered.wait(10)  # second request only after the first computes
        t2 = threading.Thread(target=call)
        t2.start()
        t1.join(30)
        t2.join(30)

        assert len(outs) == 2
        m = client.metrics()
        assert m["computes"] == 1
        assert m["single_flight"]["leaders"] == 1
        assert m["single_flight"]["shared"] == 1
        assert sorted(o["deduped"] for o in outs) == [False, True]
        assert outs[0]["assign"] == outs[1]["assign"]
        assert outs[0]["cut"] == outs[1]["cut"]

    def test_restart_serves_from_disk(self, tmp_path):
        """A new daemon on the same cache dir answers digest-only from
        the persistent store — and bit-identically to the direct call."""
        cache_dir = tmp_path / "store"
        g = random_process_network(30, 60, seed=9)
        direct = partition_graph(g, 3, seed=4)

        def run(fn):
            srv = ReproServer(port=0, cache_dir=cache_dir, n_jobs=1)
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            try:
                return fn(ServeClient(f"http://{srv.host}:{srv.port}"))
            finally:
                srv.shutdown()
                thread.join(5)
                srv.close()

        first = run(lambda c: c.partition(g, k=3, seed=4))
        assert first["cached"] is False

        second = run(
            lambda c: c.partition(digest=g.content_digest(), k=3, seed=4)
        )
        assert second["cached"] is True
        np.testing.assert_array_equal(second["assign"], direct.assign)
        assert second["cut"] == direct.metrics.cut
        assert second["assign"] == first["assign"]

    def test_memory_only_server(self, tmp_path):
        srv = ReproServer(port=0, cache_dir=None, n_jobs=1)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(f"http://{srv.host}:{srv.port}")
            assert client.health()["persistent_cache"] is False
            g = random_process_network(12, 20, seed=1)
            out = client.partition(g, k=2, seed=0)
            assert client.partition(g, k=2, seed=0)["cached"] is True
            assert out["cached"] is False
        finally:
            srv.shutdown()
            thread.join(5)
            srv.close()


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def _running(pid):
    """True while *pid* runs; a zombie waiting for its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


def _cmdline(pid):
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return fh.read()


#: a constrained gp compute of about a second: long enough to interrupt
SLOW_GRAPH = dict(n=1000, m=3000, seed=17)
SLOW_REQUEST = dict(k=4, bmax=6000.0, rmax=12000.0, seed=3)


class TestServeFaults:
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
        reason="lists child processes through /proc",
    )
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_worker_killed_mid_compute(self, tmp_path, n_jobs):
        """SIGKILL of the compute worker answers the request in flight with
        503, leaves nothing in flight, and the daemon's next request for
        the key computes on a new worker and equals the direct call.  The
        new worker is spawned but forks its warm pool."""
        import signal

        g = random_process_network(**SLOW_GRAPH)
        srv = ReproServer(port=0, cache_dir=tmp_path / "cache", n_jobs=n_jobs)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        killed = srv.worker_pid
        descendants = [killed, *_children(killed)]
        assert len(descendants) == (1 + n_jobs if n_jobs > 1 else 1)
        try:
            client = ServeClient(f"http://{srv.host}:{srv.port}", timeout=60)
            errs = []

            def call():
                try:
                    client.partition(g, **SLOW_REQUEST)
                except ServeError as exc:
                    errs.append(exc)

            t = threading.Thread(target=call)
            t.start()
            _wait_for(lambda: srv.metrics.snapshot()["computes"] == 1)
            os.kill(killed, signal.SIGKILL)
            t.join(60)
            assert not t.is_alive()
            assert len(errs) == 1 and errs[0].status == 503
            assert f"compute worker (pid {killed}) died" in str(errs[0])
            assert srv.metrics.snapshot()["in_flight"] == 0
            assert srv.flight.in_flight() == 0
            assert srv.worker_pid != killed

            out = client.partition(g, **SLOW_REQUEST)
            assert out["cached"] is False
            assert srv.metrics.snapshot()["computes"] == 2
            direct = partition_graph(g, **SLOW_REQUEST)
            np.testing.assert_array_equal(out["assign"], direct.assign)
            assert out["cut"] == direct.metrics.cut
            pool = _children(srv.worker_pid)
            assert len(pool) == (n_jobs if n_jobs > 1 else 0)
            # a forked process keeps its parent's command line; a spawned
            # one runs a spawn_main line of its own
            assert [_cmdline(p) for p in pool] == [
                _cmdline(srv.worker_pid)
            ] * len(pool)
            descendants += [srv.worker_pid, *pool]
        finally:
            srv.shutdown()
            thread.join(5)
            srv.close()
        _wait_for(lambda: not any(map(_running, descendants)), timeout=10)

    def test_client_drop_mid_compute(self, server, capsys):
        """A client that hangs up while its request computes leaves nothing
        in flight and no traceback; the result is still cached and a
        digest-only repeat hits."""
        from repro.graph.io import graph_to_json

        g = random_process_network(**SLOW_GRAPH)
        body = json.dumps(
            {"graph": json.loads(graph_to_json(g)), **SLOW_REQUEST}
        ).encode()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        conn.request("POST", "/partition", body=body,
                     headers={"Content-Type": "application/json"})
        _wait_for(lambda: server.metrics.snapshot()["computes"] == 1)
        conn.close()  # hang up before the answer

        _wait_for(lambda: server.flight.in_flight() == 0
                  and server.metrics.snapshot()["in_flight"] == 0)
        client = self._client(server)
        out = client.partition(digest=g.content_digest(), **SLOW_REQUEST)
        assert out["cached"] is True
        assert server.metrics.snapshot()["computes"] == 1
        direct = partition_graph(g, **SLOW_REQUEST)
        np.testing.assert_array_equal(out["assign"], direct.assign)
        assert "Traceback" not in capsys.readouterr().err

    def _client(self, srv):
        return ServeClient(f"http://{srv.host}:{srv.port}", timeout=60)
