"""The ``repro serve`` daemon: a long-running partitioning service.

Stdlib-only (``http.server`` / ``socketserver``): one
``ThreadingHTTPServer`` accepts JSON requests; each request thread

1. parses/validates the body (:mod:`repro.serve.schema`),
2. looks the digest-keyed request key up in the two-level result cache
   (in-memory :class:`~repro.util.parallel.KeyedCache` over the
   persistent :class:`~repro.util.diskcache.DiskCache`),
3. on a miss, enters the :class:`~repro.serve.singleflight.SingleFlight`
   — concurrent identical requests compute once — and the flight leader
   hands :func:`repro.core.api.partition_graph` to the compute worker,
   then writes the cache.

Computes run in one worker process, so a compute never holds the
interpreter lock that the request threads answering cache hits need.
The worker backs the library's own memo cache with the same disk store
(:func:`repro.core.api.configure_cache_backend`) and, with
``n_jobs > 1``, keeps a warm ``parallel_map`` pool across requests
(:func:`repro.util.parallel.start_warm_pool`).  Endpoints, schema and
operational notes: ``docs/serve.md``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import urllib.parse
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro.obs as _obs
from repro import __version__
from repro.core.api import configure_cache_backend, partition_graph
from repro.obs import LATENCY_BUCKETS_MS
from repro.serve.schema import (
    ServeError,
    ServeRequest,
    parse_request,
    request_cache_key,
    result_payload,
)
from repro.serve.singleflight import SingleFlight
from repro.util.diskcache import DiskCache
from repro.util.errors import ReproError
from repro.util.parallel import (
    KeyedCache,
    _run_task,
    _unwrap,
    exit_with_parent,
    memo_cache,
    resolve_jobs,
    start_method,
    start_warm_pool,
    stop_warm_pool,
    warm_pool_size,
)

__all__ = ["ReproServer", "ServerMetrics"]

#: Maximum accepted request body (a graph payload of ~1M edges).
_MAX_BODY_BYTES = 128 * 1024 * 1024


class ServerMetrics:
    """Request counters and latency histogram on the shared obs registry.

    Serve-level series — ``serve.requests{endpoint}`` /
    ``serve.errors{endpoint}`` counters, the ``serve.latency_ms``
    histogram, the ``serve.in_flight`` gauge and the ``serve.computes``
    counter — are written straight into :data:`repro.obs.REGISTRY` (the
    registry's own lock makes them thread-safe).  :meth:`snapshot`
    reads them back as a delta against a baseline taken at construction,
    so each server instance reports its own lifetime even though the
    registry is process-global, while ``/metrics`` keeps its historical
    payload shape.

    Uptime is measured from a monotonic start reference: wall-clock
    adjustments (NTP steps, DST) cannot bend or negate it.  The
    wall-clock ``started`` stamp is kept separately for humans.
    """

    def __init__(self) -> None:
        self.started = time.time()
        self._started_monotonic = time.monotonic()
        self._baseline = _obs.REGISTRY.snapshot()

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def note_compute(self) -> None:
        _obs.REGISTRY.inc("serve.computes")

    @contextmanager
    def track(self, endpoint: str):
        t0 = time.perf_counter()
        reg = _obs.REGISTRY
        reg.gauge_add("serve.in_flight", 1.0)
        reg.inc("serve.requests", 1.0, endpoint=endpoint)
        try:
            yield
        except BaseException:
            reg.inc("serve.errors", 1.0, endpoint=endpoint)
            raise
        finally:
            reg.gauge_add("serve.in_flight", -1.0)
            reg.observe(
                "serve.latency_ms",
                (time.perf_counter() - t0) * 1000.0,
                buckets=LATENCY_BUCKETS_MS,
            )

    def snapshot(self) -> dict:
        d = _obs.REGISTRY.delta(self._baseline)
        counters = d.get("counters", {})
        requests: dict[str, dict[str, int]] = {}
        for key, v in counters.get("serve.requests", {}).items():
            endpoint = dict(key).get("endpoint", "")
            requests[endpoint] = {"count": int(v), "errors": 0}
        for key, v in counters.get("serve.errors", {}).items():
            endpoint = dict(key).get("endpoint", "")
            row = requests.setdefault(endpoint, {"count": 0, "errors": 0})
            row["errors"] = int(v)
        in_flight = 0
        for v in d.get("gauges", {}).get("serve.in_flight", {}).values():
            in_flight = int(v)
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        sum_ms, count = 0.0, 0
        _, series = d.get("histograms", {}).get(
            "serve.latency_ms", ((), {})
        )
        for row_counts, row_sum, row_count in series.values():
            counts = [a + b for a, b in zip(counts, row_counts)]
            sum_ms += row_sum
            count += row_count
        return {
            "uptime_s": self.uptime_s,
            "in_flight": in_flight,
            "computes": int(
                sum(counters.get("serve.computes", {}).values())
            ),
            "requests": requests,
            "latency": {
                "bucket_upper_ms": list(LATENCY_BUCKETS_MS) + ["inf"],
                "counts": counts,
                "count": count,
                "sum_ms": sum_ms,
            },
        }


def _init_worker(n_jobs: int, cache_dir, cache_bytes: int) -> None:
    """Compute-worker initializer: the memo store, the warm pool, and an
    exit when the daemon dies."""
    configure_cache_backend(
        DiskCache(cache_dir, max_bytes=cache_bytes, name="serve-disk")
        if cache_dir is not None
        else None
    )
    if n_jobs > 1:
        start_warm_pool(n_jobs)
    exit_with_parent()


def _memo_counts() -> dict:
    """The memo cache's counters, without :meth:`DiskCache.stats`'s scan."""
    out = {"size": len(memo_cache), "hits": memo_cache.hits,
           "misses": memo_cache.misses}
    if memo_cache.backend is not None:
        out["backend_hits"] = memo_cache.backend_hits
    return out


def _worker_facts() -> tuple[int, int, dict]:
    return os.getpid(), warm_pool_size(), _memo_counts()


def _partition(n_jobs: int, req: ServeRequest) -> tuple[dict, dict]:
    """One compute, run in the worker."""
    result = partition_graph(
        req.graph,
        req.k,
        bmax=req.bmax,
        rmax=req.rmax,
        method=req.method,
        seed=req.seed,
        n_jobs=n_jobs,
    )
    return result_payload(req, result), _memo_counts()


def _stop_worker(worker: ProcessPoolExecutor) -> None:
    """Stop a compute worker once the computes it accepted finish."""
    try:
        # a worker exits by joining its child processes, so its warm pool
        # must stop before it does
        worker.submit(stop_warm_pool)
    except BrokenProcessPool:
        pass  # it died; its pool's workers exit with it
    worker.shutdown(wait=True)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro: "ReproServer"


class ReproServer:
    """The serving daemon; construct, then :meth:`serve_forever`.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` — the CLI prints it).
    cache_dir:
        Directory of the persistent :class:`DiskCache`; ``None`` serves
        from memory only (no warm restarts).
    cache_bytes:
        Size budget of the disk store.
    memory_entries:
        In-memory LRU entries layered above the disk store.
    n_jobs:
        Worker processes every request may race its work across (a
        method with nothing to race runs serially).  By the determinism
        contract the value cannot change any result.  With
        ``n_jobs > 1`` the compute worker starts a warm pool once and
        reuses it across requests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        cache_bytes: int = 256 * 1024 * 1024,
        memory_entries: int = 256,
        n_jobs: int | None = 1,
    ) -> None:
        self.disk = (
            DiskCache(cache_dir, max_bytes=cache_bytes, name="serve-disk")
            if cache_dir is not None
            else None
        )
        self.results = KeyedCache(
            maxsize=memory_entries, backend=self.disk, name="results"
        )
        self.flight = SingleFlight()
        # library-level metrics (FM stats, cache rates, pool utilization)
        # stay on for the daemon's lifetime so /metrics can report them
        self._prev_obs = (_obs.metrics_on(), _obs.tracing_on())
        _obs.enable(metrics=True, tracing=self._prev_obs[1])
        self.metrics = ServerMetrics()
        self.n_jobs = resolve_jobs(n_jobs)
        self._worker_args = (self.n_jobs, cache_dir, cache_bytes)
        self._worker_lock = threading.Lock()
        self._closed = False
        # before the socket and the request threads exist: the worker's
        # fork copies neither
        self._start_worker()
        try:
            self.httpd = _HTTPServer((host, port), _Handler)
        except BaseException:
            _stop_worker(self._worker)
            _obs.enable(metrics=self._prev_obs[0], tracing=self._prev_obs[1])
            raise
        self.httpd.repro = self

    def _start_worker(self) -> None:
        """Start the compute worker and wait until it answers.

        The first worker forks while the daemon is still single-threaded.
        A replacement, started while request threads run, spawns a fresh
        interpreter instead (:func:`~repro.util.parallel.start_method`);
        either one, single-threaded, forks its warm pool.
        """
        worker = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context(start_method()),
            initializer=_init_worker,
            initargs=self._worker_args,
        )
        try:
            facts = worker.submit(_worker_facts).result()
        except BaseException:
            worker.shutdown(wait=True, cancel_futures=True)
            raise
        self.worker_pid, self.pool_workers, self._memo_stats = facts
        self._worker = worker

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` (safe from any other thread)."""
        self.httpd.shutdown()

    def close(self) -> None:
        """Release the socket and stop the compute worker.

        Computes the worker has accepted finish first.
        """
        if self._closed:
            return
        self._closed = True
        self.httpd.server_close()
        with self._worker_lock:
            worker, self._worker = self._worker, None
        _stop_worker(worker)
        _obs.enable(metrics=self._prev_obs[0], tracing=self._prev_obs[1])

    # ------------------------------------------------------------------ #
    def handle_partition(self, doc) -> tuple[int, dict]:
        """Body → ``(status, payload)`` for ``POST /partition``."""
        req = parse_request(doc)
        key = request_cache_key(req)
        found, payload = self.results.lookup(key)
        if found:
            return 200, {**payload, "cached": True, "deduped": False}
        payload, leader = self.flight.do(key, lambda: self._compute(req))
        if leader:
            self.results.put(key, payload)
        return 200, {**payload, "cached": False, "deduped": not leader}

    def _compute(self, req: ServeRequest) -> dict:
        if req.graph is None:
            raise ServeError(
                f"digest {req.digest[:12]}… is not cached on this server; "
                f"resend the request with the graph payload",
                status=404,
            )
        self.metrics.note_compute()
        payload, self._memo_stats = self._in_worker(req)
        return payload

    def _in_worker(self, req: ServeRequest) -> tuple[dict, dict]:
        """Run :func:`_partition` in the compute worker.

        The task runs inside an observability capture there, so its
        ``fm.*``, ``cache.*`` and ``pool.*`` series merge into this
        process's registry with the answer.  A worker that dies answers
        503 and is replaced for the requests after this one.
        """
        with self._worker_lock:
            worker, pid = self._worker, self.worker_pid
        if worker is None:
            raise ServeError("the daemon is shutting down", status=503)
        try:
            return _unwrap(
                worker.submit(
                    _run_task, _partition, self.n_jobs, req, _obs.tracing_on()
                ).result()
            )
        except BrokenProcessPool as exc:
            try:
                self._replace_worker(worker)
                then = "a new worker has started, retry the request"
            except Exception as err:  # the next request tries again
                then = f"starting a new worker failed: {err!r}"
            raise ServeError(
                f"the compute worker (pid {pid}) died before answering; "
                f"{then}",
                status=503,
            ) from exc

    def _replace_worker(self, broken: ProcessPoolExecutor) -> None:
        with self._worker_lock:
            if self._worker is not broken:
                return  # closed, or another request replaced it already
            broken.shutdown(wait=True)
            self._start_worker()

    def metrics_payload(self) -> dict:
        memo = dict(self._memo_stats)
        if self.disk is not None:
            memo["backend"] = self.disk.stats()
        caches = {"results": self.results.stats(), "memo": memo}
        out = self.metrics.snapshot()
        out.update(
            {
                "version": __version__,
                "single_flight": self.flight.stats(),
                # queue depth == requests currently inside a handler
                "queue_depth": out["in_flight"],
                "warm_pool_workers": self.pool_workers,
                "caches": caches,
                # library-level series from the shared obs registry:
                # FM pass stats, unified cache rates, pool utilization
                "library": {
                    name: data
                    for name, data in _obs.REGISTRY.collect().items()
                    if name.startswith(("fm.", "cache.", "pool."))
                },
            }
        )
        return out

    def health_payload(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": self.metrics.uptime_s,
            "persistent_cache": self.disk is not None,
        }


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/" + __version__
    protocol_version = "HTTP/1.1"
    # a response goes out as two writes (headers, body); with Nagle on,
    # the body waits for the client's delayed ACK of the headers (~40 ms)
    disable_nagle_algorithm = True

    # quiet by default: the daemon's stdout is its operational interface
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _wants_prometheus(self, query: str) -> bool:
        """``?format=prometheus`` wins; else Accept-header negotiation.

        A scraper that asks for the exposition media type (and does not
        prefer JSON) gets the text format without needing the query
        parameter — stock Prometheus sends exactly such an Accept line.
        """
        params = urllib.parse.parse_qs(query)
        fmt = params.get("format", [""])[-1].lower()
        if fmt:
            return fmt == "prometheus"
        accept = self.headers.get("Accept", "")
        return (
            "text/plain" in accept or "openmetrics" in accept
        ) and "application/json" not in accept

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServeError("request needs a JSON body", status=400)
        if length > _MAX_BODY_BYTES:
            raise ServeError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeError(f"invalid JSON body: {exc}", status=400) from exc

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        server = self.server.repro
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            with server.metrics.track("/healthz"):
                self._send_json(200, server.health_payload())
        elif path == "/metrics":
            with server.metrics.track("/metrics"):
                if self._wants_prometheus(query):
                    self._send_text(
                        200,
                        _obs.render_prometheus(_obs.REGISTRY.snapshot()),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send_json(200, server.metrics_payload())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _drain_body(self) -> None:
        # keep-alive hygiene: consume an ignored body so the connection
        # stays parseable for the next request
        length = int(self.headers.get("Content-Length") or 0)
        if length > 0:
            self.rfile.read(min(length, _MAX_BODY_BYTES))

    def do_POST(self) -> None:  # noqa: N802 - stdlib signature
        server = self.server.repro
        if self.path == "/partition":
            try:
                with server.metrics.track("/partition"):
                    status, payload = server.handle_partition(self._read_body())
                self._send_json(status, payload)
            except ConnectionError:
                # the client hung up; a computed answer is already cached
                self.close_connection = True
            except ServeError as exc:
                self._send_json(exc.status, {"error": str(exc)})
            except ReproError as exc:
                # library-level rejection (bad k, method/knob mismatch, …)
                self._send_json(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive
                self._send_json(500, {"error": f"internal error: {exc}"})
        elif self.path == "/shutdown":
            self._drain_body()
            self._send_json(200, {"status": "shutting down"})
            # shutdown() blocks until serve_forever exits — defer it so
            # this handler can finish its response first
            threading.Thread(target=server.shutdown, daemon=True).start()
        else:
            self._drain_body()
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
