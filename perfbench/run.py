"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload ring1500 --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):
``ring1500``, ``tight400``, ``multicast120`` (batch partitioner calls) and
``serve_mix`` (a ``repro serve`` daemon under two closed-loop clients).

With ``--trace 0`` the run measures the end-to-end metrics with every
instrument off.  With ``--trace 1`` it makes one pass of untraced calls,
then three traced calls alternating with three untraced ones (for
``serve_mix``: the request rounds, then the same with a direct
re-partition sample) and reports the per-layer metrics of the fastest
traced call.  A readable
report goes to standard output first; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

The partitioner is imported from ``src/`` next to this directory; the run
stops with an error, printing no result, when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("ring1500", "tight400", "multicast120", "serve_mix")
SETUP_TRIALS = 5

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "cut": "weight",
    "cut_ratio": "ratio",
    "ok_share": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A name starts with
#: the module the layer lives in; a workload that never enters a layer
#: reports 0 for it.
PER_LAYER = {
    "partition.coarsen.s": "s",
    "partition.coarsen.levels": "count",
    "hypergraph.coarsen.s": "s",
    "hypergraph.coarsen.levels": "count",
    "partition.initial.s": "s",
    "partition.gp.cycles": "count",
    "partition.refine_state.s": "s",
    "partition.refine_state.finest_build_s": "s",
    "partition.conn_store.finest_conn_mb": "MB",
    "partition.kway_refine.s": "s",
    "partition.kway_refine.L0.s": "s",
    "partition.kway_refine.L0.cut_before": "weight",
    "partition.kway_refine.L0.cut_after": "weight",
    "partition.kway_refine.L1.s": "s",
    "partition.kway_refine.L1.cut_before": "weight",
    "partition.kway_refine.L1.cut_after": "weight",
    "partition.kway_refine.L2.s": "s",
    "partition.kway_refine.L2.cut_before": "weight",
    "partition.kway_refine.L2.cut_after": "weight",
    "partition.kway_refine.fm.moves_tried": "count",
    "partition.kway_refine.fm.rolled_back_share": "ratio",
    "partition.flow_refine.s": "s",
    "partition.flow_refine.cut_gain": "weight",
    "hypergraph.refine_state.s": "s",
    "hypergraph.refine.s": "s",
    "hypergraph.refine.hfm.moves_tried": "count",
    "hypergraph.refine.hfm.rolled_back_share": "ratio",
    "serve.computes": "count",
    "serve.singleflight.deduped": "count",
    "util.parallel.KeyedCache.mem_hit_share": "ratio",
    "util.diskcache.disk_hit_share": "ratio",
    "util.diskcache.put_ms": "ms",
    "util.diskcache.get_ms": "ms",
    "serve.schema.parse_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.latency_p90_ms": "ms",
    "trace.wall_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.accounted_share": "ratio",
    "trace.instrument_s": "s",
    "trace.overhead_s": "s",
    "quality.violation": "weight",
}


class Report:
    """What one run measured, checked and noticed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[tuple[str, str]] = []
        self.latency_p50_ms = 0.0
        self.ops_per_s = 0.0
        self.cut = 0.0
        self.cut_ratio = 0.0
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.layers: dict[str, float] = {}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def note(self, name: str, text: str) -> None:
        self.notes.append((name, text))

    def require_layers(self, tracer, layers) -> None:
        for layer in layers:
            if not tracer.calls.get(layer):
                self.problems.append(f"traced run: layer {layer} recorded no calls")

    # ------------------------------------------------------------------ #
    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "latency_p50_ms": self.latency_p50_ms,
            "ops_per_s": self.ops_per_s,
            "cut": self.cut,
            "cut_ratio": self.cut_ratio,
            "ok_share": (
                (self.attempted - self.failed) / self.attempted
                if self.attempted else 0.0
            ),
        }

    def per_layer(self) -> dict[str, float]:
        return {name: float(self.layers.get(name, 0.0)) for name in PER_LAYER}


def import_repro() -> None:
    """Put ``src/`` first on the path and check repro really comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: partitioner sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """One set-up in a fresh interpreter: imports plus instance generation
    (for ``serve_mix`` also a daemon start until ``/healthz`` answers)."""
    import_repro()
    if workload == "serve_mix":
        from serve_mix import Daemon, build_pool

        build_pool()
        WORK.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="setup-", dir=WORK)
        try:
            Daemon(str(SRC), cache_dir).stop()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    else:
        from batch import build_cases

        build_cases(workload, seed)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of :data:`SETUP_TRIALS` set-up probes."""
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    import_repro()
    report.setup_s = measure_setup(workload, seed)
    if workload == "serve_mix":
        from serve_mix import run_serve_mix

        WORK.mkdir(exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
        try:
            run_serve_mix(seed, seconds, trace, str(SRC), work_dir, report)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass  # another run still uses it
    else:
        from batch import run_batch

        run_batch(workload, seed, seconds, trace, report)
        report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report.per_layer() if args.trace else report.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, text in report.notes:
        print(f"  {name}: {text}")
    for problem in report.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not report.problems,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
