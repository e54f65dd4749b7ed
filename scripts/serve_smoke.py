#!/usr/bin/env python
"""CI smoke for ``repro serve`` (stage 7 of ``scripts/ci.sh``).

Drives a *real* daemon subprocess (``python -m repro serve``) through
the acceptance story of the serving subsystem:

1. served results are **bit-identical** to the direct library call
   (``partition_graph``), at any ``n_jobs`` — for ``gp`` and for the
   methods with nothing to race (``mlkp``, ``spectral``), which get the
   daemon's ``--jobs`` like every request; an unknown method (``hyper``)
   is answered 400;
2. two concurrent identical requests on a cold cache collapse to **one
   compute** (single-flight) and return identical payloads;
3. a daemon **restart** on the same cache directory answers from the
   persistent store (``cached: true``), again bit-identically;
4. the library counters of the computes (``fm.*``), which run in the
   daemon's compute worker, reach ``/metrics``;
5. ``POST /shutdown`` exits the process cleanly (exit code 0) and leaves
   none of its child processes (the compute worker, its warm pool)
   alive.

Run directly: ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)

import numpy as np

from repro.core.api import partition_graph
from repro.graph.generators import random_process_network
from repro.serve.client import ServeClient
from repro.serve.schema import ServeError

# big enough that the compute takes long enough for two requests to
# genuinely overlap on a cold cache (single-flight, not luck)
GRAPH_N, GRAPH_M, GRAPH_SEED = 400, 1100, 17
K, BMAX, RMAX, SEED = 4, 6000.0, 12000.0, 3
#: a method name the library no longer has (GP on a hypergraph is "gp")
UNKNOWN_METHOD = "hyper"


class Daemon:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, cache_dir: str, jobs: int = 2):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--cache-dir", cache_dir,
                "--jobs", str(jobs),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            },
        )
        # first stdout line is machine-parseable: "... on http://H:P"
        line = self.proc.stdout.readline().strip()
        if "listening on http://" not in line:
            rest = self.proc.stdout.read()
            raise RuntimeError(f"unexpected serve banner: {line!r}\n{rest}")
        self.url = line.split("listening on ")[1]
        self.client = ServeClient(self.url, timeout=600)

    def descendants(self) -> list[int]:
        """Pids of the daemon's child processes and theirs (Linux
        ``/proc``; empty elsewhere)."""
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            try:
                with open(f"/proc/{pid}/task/{pid}/children") as fh:
                    kids = [int(p) for p in fh.read().split()]
            except OSError:
                kids = []
            out += kids
            todo += kids
        return out

    def shutdown_and_wait(self) -> int:
        """``POST /shutdown``, then wait for the daemon and every process
        it started to exit; returns the daemon's exit code."""
        children = self.descendants()
        self.client.shutdown()
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise RuntimeError("daemon did not exit after /shutdown")
        if "shut down cleanly" not in out:
            raise RuntimeError(f"missing clean-shutdown line in:\n{out}")
        deadline = time.monotonic() + 10
        while True:
            alive = [pid for pid in children if _alive(pid)]
            if not alive:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"daemon child processes {alive} outlived /shutdown")
            time.sleep(0.05)
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            # SIGTERM first: the daemon then stops its warm pool, which a
            # SIGKILL would leave behind as orphaned worker processes
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def assert_served_equals(out: dict, direct) -> None:
    """A served payload carries the direct result, bit for bit."""
    np.testing.assert_array_equal(out["assign"], direct.assign)
    assert out["feasible"] == direct.feasible
    assert out["metrics"] == {
        name: float(getattr(direct.metrics, name))
        for name in ("cut", "max_local_bandwidth", "max_resource",
                     "bandwidth_violation", "resource_violation")
    }, f"{out['method']}: served metrics differ from the direct call"


def main() -> int:
    g = random_process_network(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)
    digest = g.content_digest()

    print("serve_smoke: direct reference runs (n_jobs=1 and 2) ...")
    direct = partition_graph(g, K, bmax=BMAX, rmax=RMAX, seed=SEED)
    direct2 = partition_graph(g, K, bmax=BMAX, rmax=RMAX, seed=SEED,
                              n_jobs=2)
    np.testing.assert_array_equal(direct.assign, direct2.assign)
    assert direct.metrics == direct2.metrics, "n_jobs changed the result"

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as cache:
        daemon = Daemon(cache)
        try:
            print(f"serve_smoke: daemon up at {daemon.url}")
            assert daemon.client.health()["status"] == "ok"

            print("serve_smoke: two concurrent identical requests ...")
            outs, errs = [], []

            def call():
                try:
                    outs.append(daemon.client.partition(
                        g, k=K, bmax=BMAX, rmax=RMAX, seed=SEED))
                except Exception as exc:  # surfaced below
                    errs.append(exc)

            threads = [threading.Thread(target=call) for _ in range(2)]
            threads[0].start()
            time.sleep(0.25)  # the leader is parsing/computing by now
            threads[1].start()
            for t in threads:
                t.join(600)
            if errs:
                raise errs[0]
            assert len(outs) == 2, "a request never returned"

            m = daemon.client.metrics()
            assert m["computes"] == 1, (
                f"expected exactly one compute, got {m['computes']}")
            assert m["single_flight"]["shared"] >= 1, (
                "second request did not share the in-flight compute")
            assert outs[0]["assign"] == outs[1]["assign"]
            assert outs[0]["metrics"] == outs[1]["metrics"]
            assert sorted(o["deduped"] for o in outs) == [False, True]

            print("serve_smoke: served == direct (bit-identical) ...")
            for out in outs:
                assert_served_equals(out, direct)

            for method in ("mlkp", "spectral"):
                print(f"serve_smoke: {method} on the --jobs 2 daemon ...")
                out = daemon.client.partition(
                    g, k=K, method=method, bmax=BMAX, rmax=RMAX, seed=SEED)
                assert_served_equals(out, partition_graph(
                    g, K, bmax=BMAX, rmax=RMAX, method=method, seed=SEED))

            print("serve_smoke: worker fm.* counters reach /metrics ...")
            library = daemon.client.metrics()["library"]
            fm = {name: sum(row["value"] for row in series["series"])
                  for name, series in library.items()
                  if name.startswith("fm.") and series["type"] == "counter"}
            assert fm.get("fm.passes", 0) > 0 and fm.get(
                "fm.moves_tried", 0) > 0, f"fm.* counters in /metrics: {fm}"

            print(f"serve_smoke: method {UNKNOWN_METHOD!r} is a 400 ...")
            try:
                daemon.client.partition(
                    g, k=K, method=UNKNOWN_METHOD, seed=SEED)
            except ServeError as exc:
                assert exc.status == 400, f"answered {exc.status}"
                assert f"unknown method {UNKNOWN_METHOD!r}" in str(exc), exc
            else:
                raise AssertionError(f"{UNKNOWN_METHOD!r} was served")

            print("serve_smoke: clean shutdown ...")
            rc = daemon.shutdown_and_wait()
            assert rc == 0, f"daemon exited with {rc}"
        finally:
            daemon.kill()

        print("serve_smoke: restart on the same cache dir ...")
        daemon = Daemon(cache)
        try:
            # digest-only: the graph is never re-shipped, the result must
            # come from the persistent store
            out = daemon.client.partition(
                digest=digest, k=K, bmax=BMAX, rmax=RMAX, seed=SEED)
            assert out["cached"] is True, "restart did not hit the disk cache"
            np.testing.assert_array_equal(out["assign"], direct.assign)
            assert out["cut"] == direct.metrics.cut
            m = daemon.client.metrics()
            assert m["computes"] == 0, "restart recomputed a cached result"
            rc = daemon.shutdown_and_wait()
            assert rc == 0, f"daemon exited with {rc}"
        finally:
            daemon.kill()

    print("serve_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
