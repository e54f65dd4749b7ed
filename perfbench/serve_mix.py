"""The ``serve_mix`` workload: a ``repro serve`` daemon under a request mix.

One run is a sequence of rounds.  Each round starts ``repro serve --jobs 1``
on a fresh cache directory with ``--memory-entries`` below the working
set, and two client threads in a closed loop (each sends its next request
only after the previous answer) work through one seeded request script:

* the pool (a fixed catalogue) holds 24 generated 250-node process
  networks, each served as a ``gp`` request and the first 8 also as an
  ``mlkp`` request — 32 distinct keys, so the median cold request is a
  ``gp`` compute;
* the script has 160 requests: every key's first sighting (cold — the
  daemon computes it and writes its disk cache) and 128 repeats, split
  between graph-carrying and digest-only requests;
* a quarter of the first sightings are followed at once by the same
  request, so the two clients send it together and the daemon's
  single-flight shares one compute between them.

No recorded request mix exists for the daemon, so the mix is assumed.
Four in five requests being repeats, a pool of a few dozen gp and mlkp
keys of a few hundred nodes, and a memory cache below the working set
are the workload's definition; the exact counts above, the even split
of repeats between graph-carrying and digest-only requests, and the
quarter of first sightings sent twice are choices within it.

A digest-only repeat whose key has not been answered yet is sent with
its graph instead (the daemon cannot know the graph before then).

Checks, independent of the daemon: every answer for a key carries the
same assignment (so digest-only answers equal graph-carrying ones); the
cut and violation the daemon reports equal those recomputed from that
assignment; a seeded sample of keys equals a direct ``partition_graph``
call; and the daemon computed each distinct key exactly once.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from batch import accounting, best_traced, layer_metrics, trace_gp_layers

__all__ = ["build_pool", "run_serve_mix"]

POOL_GRAPHS = 24
MLKP_GRAPHS = 8  # graphs also served as mlkp requests
GRAPH_NODES = 250
K = 4
REQUESTS_PER_KEY = 5  # one first sighting, four repeats
MEMORY_ENTRIES = 8  # in-memory result cache, below the 32-key working set
SAMPLE_KEYS = 4  # keys re-partitioned directly per run
CATALOGUE_SEED = 0  # generates the request pool
HTTP_TIMEOUT_S = 120.0

#: Layers the traced run's direct partition_graph calls must reach.
EXPECTED_LAYERS = ("partition.coarsen", "partition.initial",
                   "partition.refine_state", "partition.kway_refine")


class Key:
    """One distinct request: a graph, a method and their request bodies."""

    def __init__(self, index, graph, cons, method, seed) -> None:
        from repro.graph.io import graph_to_json

        self.index = index
        self.graph = graph
        self.cons = cons
        self.method = method
        self.seed = seed
        common = {"k": K, "method": method, "bmax": cons.bmax,
                  "rmax": cons.rmax, "seed": seed}
        self.graph_body = json.dumps(
            {"graph": json.loads(graph_to_json(graph)), **common}
        ).encode()
        self.digest_body = json.dumps(
            {"digest": graph.content_digest(), **common}
        ).encode()


def build_pool() -> list[Key]:
    """The catalogue of distinct requests, the same in every run.

    Only the traffic over it is drawn from the run seed: with a seeded
    catalogue the cold figures of a run would mostly measure which graphs
    the seed drew, since a run computes each key only once.
    """
    from repro.bench.suites import tight_instance

    rng = np.random.default_rng([CATALOGUE_SEED, 0])
    keys = []
    for i in range(POOL_GRAPHS):
        g, cons = tight_instance(GRAPH_NODES, K, seed=int(rng.integers(2**31)),
                                 slack=1.3, bw_factor=2.0)
        for method in ("gp", "mlkp") if i < MLKP_GRAPHS else ("gp",):
            keys.append(Key(len(keys), g, cons, method, seed=i))
    return keys


def make_script(n_keys: int, seed: int, round_no: int) -> list[tuple[int, str]]:
    """``(key, form)`` requests; form is ``cold``, ``graph`` or ``digest``."""
    rng = np.random.default_rng([seed, 1, round_no])
    length = n_keys * REQUESTS_PER_KEY
    order = rng.permutation(n_keys)
    firsts = set(rng.choice(np.arange(1, length), size=n_keys - 1, replace=False))
    firsts.add(0)
    script: list[tuple[int, str]] = []
    seen: list[int] = []
    twin = None
    for pos in range(length):
        if pos in firsts:
            key = int(order[len(seen)])
            seen.append(key)
            script.append((key, "cold"))
            twin = key if rng.random() < 0.25 else None
        elif twin is not None:
            script.append((twin, "graph"))
            twin = None
        else:
            key = seen[int(rng.integers(len(seen)))]
            script.append((key, "graph" if rng.random() < 0.5 else "digest"))
    return script


# --------------------------------------------------------------------- #
# daemon
# --------------------------------------------------------------------- #
class Connection(http.client.HTTPConnection):
    """A client connection with Nagle's algorithm off.

    ``http.client`` sends a request's headers and body in two writes; with
    Nagle on, the body can wait for the daemon's delayed ACK, and that
    stall would be the client's, not the daemon's.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Daemon:
    """A ``repro serve`` subprocess on a fresh cache directory."""

    def __init__(self, src_dir: str, cache_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", cache_dir, "--jobs", "1",
             "--memory-entries", str(MEMORY_ENTRIES)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            hostport = line.rsplit("http://", 1)[1].strip()
            self.host, port = hostport.rsplit(":", 1)
            self.port = int(port)
            self.get("/healthz")
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def connect(self) -> Connection:
        return Connection(self.host, self.port, timeout=HTTP_TIMEOUT_S)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                conn = self.connect()
                conn.request("POST", "/shutdown", body=b"{}")
                conn.getresponse().read()
                conn.close()
            except (AttributeError, OSError, http.client.HTTPException):
                self.proc.terminate()  # not listening yet, or not answering
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()


# --------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------- #
class Round:
    """Requests of one round and what came back."""

    def __init__(self, keys: list[Key], script) -> None:
        self.keys = keys
        self.script = script
        self.lock = threading.Lock()
        self.next = 0
        self.answered: set[int] = set()
        self.first_answer: dict[int, dict] = {}
        self.latency_ms: dict[str, list[float]] = {"cold": [], "repeat": []}
        self.sent = {"cold": 0, "graph": 0, "digest": 0}
        self.errors: list[str] = []
        self.ok = 0

    def client(self, daemon: Daemon) -> None:
        conn = daemon.connect()
        try:
            while True:
                with self.lock:
                    if self.next >= len(self.script):
                        return
                    key_no, form = self.script[self.next]
                    self.next += 1
                    if form == "digest" and key_no not in self.answered:
                        form = "graph"
                    self.sent[form] += 1
                key = self.keys[key_no]
                body = key.digest_body if form == "digest" else key.graph_body
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/partition", body=body,
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    raw = resp.read()
                    status = resp.status
                    doc = json.loads(raw)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    conn.close()
                    conn = daemon.connect()
                    self.record_error(f"{form} request: {exc!r}")
                    continue
                ms = (time.perf_counter() - t0) * 1000.0
                if status != 200:
                    self.record_error(f"{form} request: HTTP {status} {raw[:200]!r}")
                    continue
                self.record_answer(key_no, form, ms, doc)
        finally:
            conn.close()

    def record_error(self, message: str) -> None:
        with self.lock:
            self.errors.append(message)

    def record_answer(self, key_no: int, form: str, ms: float, doc: dict) -> None:
        with self.lock:
            first = self.first_answer.setdefault(key_no, doc)
            if first is not doc and first["assign"] != doc["assign"]:
                self.errors.append(
                    f"key {key_no}: {form} answer differs from the first answer"
                )
                return
            self.answered.add(key_no)
            self.latency_ms["cold" if form == "cold" else "repeat"].append(ms)
            self.ok += 1


def run_round(keys, seed, round_no, src_dir, work_dir, report):
    """One daemon lifetime under one script; returns (round, daemon facts)."""
    script = make_script(len(keys), seed, round_no)
    cache_dir = os.path.join(work_dir, f"cache-{round_no}")
    daemon = Daemon(src_dir, cache_dir)
    try:
        rnd = Round(keys, script)
        threads = [threading.Thread(target=rnd.client, args=(daemon,),
                                    daemon=True)
                   for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
        busy_s = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("client threads did not finish")
        metrics = daemon.get("/metrics")
        facts = {"start_s": daemon.start_s, "busy_s": busy_s,
                 "rss_mb": daemon.peak_rss_mb(), "metrics": metrics}
    finally:
        daemon.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold_keys = {k for k, form in script if form == "cold"}
    computes = metrics["computes"]
    if computes != len(cold_keys):
        report.fail(f"round {round_no}: daemon computed {computes} times "
                    f"for {len(cold_keys)} distinct keys")
    return rnd, facts


def check_answers(keys, answers: dict[int, dict], report) -> None:
    """Reported cut/violation against values recomputed from the assignment."""
    from repro.partition.metrics import evaluate_partition

    for key_no, doc in sorted(answers.items()):
        key = keys[key_no]
        m = evaluate_partition(key.graph, np.asarray(doc["assign"]), K, key.cons)
        got = doc["metrics"]
        violation = got["bandwidth_violation"] + got["resource_violation"]
        if not (math.isclose(m.cut, doc["cut"], abs_tol=1e-9)
                and math.isclose(m.total_violation, violation, abs_tol=1e-9)):
            report.fail(f"key {key_no}: reported cut/violation "
                        f"{doc['cut']}/{violation} != recomputed "
                        f"{m.cut}/{m.total_violation}")


def direct_sample(keys, answers, seed: int, report) -> list:
    """Re-partition a seeded sample of keys in-process and compare.

    Returns the direct results.
    """
    from repro.core.api import partition_graph

    rng = np.random.default_rng([seed, 2])
    sample = rng.choice(len(keys), size=SAMPLE_KEYS, replace=False)
    results = []
    for key_no in sorted(int(x) for x in sample):
        key = keys[key_no]
        res = partition_graph(key.graph, K, bmax=key.cons.bmax,
                              rmax=key.cons.rmax, method=key.method,
                              seed=key.seed)
        results.append(res)
        if key_no in answers and list(map(int, res.assign)) != answers[key_no]["assign"]:
            report.fail(f"key {key_no}: served assignment differs from a "
                        f"direct partition_graph call")
    return results


def run_serve_mix(seed: int, seconds: float, trace: bool, src_dir: str,
                  work_dir: str, report):
    keys = build_pool()
    rounds = []
    facts = []
    started = time.perf_counter()
    while True:
        rnd, f = run_round(keys, seed, len(rounds), src_dir, work_dir, report)
        rounds.append(rnd)
        facts.append(f)
        spent = time.perf_counter() - started
        if spent + f["busy_s"] + f["start_s"] > seconds:
            break

    answers: dict[int, dict] = {}
    for rnd in rounds:
        report.attempted += len(rnd.script)
        for message in rnd.errors:
            report.fail(message)
        unanswered = len(rnd.script) - rnd.ok - len(rnd.errors)
        if unanswered:
            report.fail(f"{unanswered} requests got no answer", count=unanswered)
        for key_no, doc in rnd.first_answer.items():
            prev = answers.setdefault(key_no, doc)
            if prev["assign"] != doc["assign"]:
                report.fail(f"key {key_no}: rounds disagree on the assignment")
    check_answers(keys, answers, report)
    direct_sample(keys, answers, seed, report)

    cold = [ms for rnd in rounds for ms in rnd.latency_ms["cold"]]
    repeat = [ms for rnd in rounds for ms in rnd.latency_ms["repeat"]]
    busy = sum(f["busy_s"] for f in facts)
    report.latency_p50_ms = float(np.percentile(cold + repeat, 50))
    report.ops_per_s = sum(rnd.ok for rnd in rounds) / busy
    # The slow requests give per-layer figures, not end-to-end ones: over
    # ten seeds their quartiles lay a quarter (p90) to a third (cold
    # median) of the median apart, wider than any bound the benchmark
    # can hold them to.
    report.layers["serve.latency_p90_ms"] = float(np.percentile(cold + repeat, 90))
    report.layers["serve.cold_p50_ms"] = float(np.median(cold))
    report.peak_rss_mb = max(f["rss_mb"] for f in facts)
    cuts = [float(answers[k]["cut"]) for k in sorted(answers)]
    report.cut = float(np.median(cuts)) if cuts else 0.0
    report.cut_ratio = float(np.median([
        float(answers[k]["cut"]) / random_cut(keys[k]) for k in sorted(answers)
    ])) if answers else 0.0
    sent = {form: sum(rnd.sent[form] for rnd in rounds)
            for form in ("cold", "graph", "digest")}
    report.note("rounds", f"{len(rounds)} (busy {busy:.2f} s)")
    report.note("requests", f"attempted {report.attempted}, succeeded "
                f"{sum(rnd.ok for rnd in rounds)}, failed {report.failed}; "
                f"sent cold {sent['cold']}, graph {sent['graph']}, "
                f"digest {sent['digest']}")
    report.note("latency samples", f"{len(cold) + len(repeat)} "
                f"(cold {len(cold)}, repeat {len(repeat)})")
    if repeat:
        report.note("hit_p50_ms", f"{np.median(repeat):.3f}")
    report.note("violation", "worst " + str(max(
        (d["metrics"]["bandwidth_violation"] + d["metrics"]["resource_violation"]
         for d in answers.values()), default=0.0)))

    if trace:
        report.layers.update(serve_layers(keys, answers, facts, work_dir, report))
        untraced, wall, tr, gp_facts, metrics, traced = best_traced(
            lambda: direct_sample(keys, answers, seed, report), trace_gp_layers
        )
        cycles = sum(res.info.get("cycles", 0) for res in traced)
        report.layers.update(layer_metrics(tr, gp_facts, metrics, cycles))
        report.layers.update(accounting(tr, wall, untraced))
        report.require_layers(tr, EXPECTED_LAYERS)
    return report


def random_cut(key: Key) -> float:
    from repro.partition.metrics import evaluate_partition

    a = np.random.default_rng(key.index).integers(0, K, size=key.graph.n)
    return float(evaluate_partition(key.graph, a, K, key.cons).cut)


def serve_layers(keys, answers, facts, work_dir, report) -> dict:
    """Serve-side per-layer metrics: daemon counters and direct call timings."""
    from repro.serve.schema import parse_request
    from repro.util.diskcache import DiskCache

    computes = deduped = hits = misses = backend_hits = 0
    for f in facts:
        m = f["metrics"]
        computes += m["computes"]
        deduped += m["single_flight"]["shared"]
        results = m["caches"]["results"]
        hits += results["hits"]
        misses += results["misses"]
        backend_hits += results["backend_hits"]
    lookups = hits + misses

    def ms(fn, *args) -> float:
        t0 = time.perf_counter()
        fn(*args)
        return (time.perf_counter() - t0) * 1000.0

    bodies = [json.loads(b) for key in keys
              for b in (key.graph_body, key.digest_body)]
    parse_ms = [ms(parse_request, doc) for doc in bodies]
    store_dir = os.path.join(work_dir, "direct-cache")
    store = DiskCache(store_dir)
    try:
        payloads = {("bench", k): doc for k, doc in answers.items()}
        put_ms = [ms(store.put, key, doc) for key, doc in payloads.items()]
        get_ms = []
        for key, doc in payloads.items():
            t0 = time.perf_counter()
            found, value = store.lookup(key)
            get_ms.append((time.perf_counter() - t0) * 1000.0)
            if not found or value != doc:
                report.fail(f"direct DiskCache lookup of {key} missed or differed")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return {
        "serve.computes": computes,
        "serve.singleflight.deduped": deduped,
        "util.parallel.KeyedCache.mem_hit_share":
            (hits - backend_hits) / lookups if lookups else 0.0,
        "util.diskcache.disk_hit_share":
            backend_hits / lookups if lookups else 0.0,
        "util.diskcache.put_ms": float(np.median(put_ms)),
        "util.diskcache.get_ms": float(np.median(get_ms)),
        "serve.schema.parse_ms": float(np.median(parse_ms)),
    }
