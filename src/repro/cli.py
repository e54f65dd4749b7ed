"""Command-line interface.

Usage (see ``python -m repro --help``):

* ``python -m repro partition --input g.json --k 4 --bmax 16 --rmax 165``
  — partition a graph (JSON, METIS ``.graph``, incidence text or hMETIS
  ``.hgr``) with any of the methods and print the paper-style report.
  ``--model hypergraph`` partitions under the (λ−1) connectivity metric
  (multicasts charged once per extra FPGA); graph inputs are lifted to
  2-pin hypergraphs, ``.hgr`` inputs are taken as-is.
  ``--resources res.json`` plus a comma-separated ``--rmax`` vector
  (e.g. ``--rmax 400,600,40,12``) switches to componentwise
  multi-resource budgets (see ``docs/multires.md``).
* ``python -m repro tables [--experiment N]`` — regenerate the paper tables.
* ``python -m repro figures --out DIR`` — regenerate Figures 2-13 artefacts.
* ``python -m repro generate --n 12 --m 30 --out g.json`` — synthesise a
  process-network instance; with ``--fanout F`` a multicast-heavy
  *hypergraph* instance is written instead (``.hgr``); with
  ``--resources res.json`` a device-shaped per-node resource matrix is
  written alongside the graph.
* ``python -m repro cache [--stats] [--clear] [--dir DIR]`` — inspect (or
  drop) the in-process memo cache (evolve, vector GP), and with
  ``--dir`` a persistent on-disk cache; ``partition --no-cache`` forces
  a cold run.
* ``python -m repro serve --port 8077 --cache-dir ~/.cache/repro`` — run
  the partitioning daemon: JSON requests over HTTP, digest-keyed results
  served from a persistent cache, concurrent duplicates computed once
  (see ``docs/serve.md``).  ``GET /metrics?format=prometheus`` exposes
  the metrics registry in the Prometheus text format.
* ``python -m repro bench --suite smoke`` — run a registered benchmark
  suite and write ``benchmarks/artifacts/BENCH_<suite>.json``; with
  ``--compare BASELINE.json`` judge the run against a stored baseline
  (exit 3 on regression — the CI gate; see ``docs/observability.md``).

``--method evolve`` selects the memetic population search;
``--generations`` / ``--time-budget`` / ``--pop-size`` shape its budget
(see ``docs/evolve.md``).  ``--refine fm+flow`` adds a guarded corridor
max-flow polish to the refinement stage (see ``docs/refinement.md``).

The ``--method`` choices are :data:`repro.core.api.METHODS`, and the
partition flags are forwarded to :func:`repro.core.api.partition_graph`
unchecked: the library rejects what a method cannot honour, so the CLI
and the library agree by construction.

``python -m repro`` and the ``repro`` console script expose the identical
surface (``tests/test_cli_parity.py`` pins the parity).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import repro.obs as _obs
from repro.bench.experiments import paper_experiment_table
from repro.bench.figures import write_figure_artifacts
from repro.core.api import METHODS, partition_graph
from repro.evolve.ea import EvolveConfig
from repro.core.report import comparison_report, multires_report
from repro.fpga.resources import random_device_matrix
from repro.graph.generators import multicast_network, random_process_network
from repro.graph.io import graph_from_json, graph_to_json
from repro.graph.matrixio import parse_incidence_text
from repro.graph.metisio import parse_hmetis, parse_metis, save_hmetis
from repro.graph.wgraph import WGraph
from repro.hypergraph.hgraph import HGraph
from repro.partition.metrics import ConstraintSpec
from repro.partition.vector_state import VectorConstraints
from repro.util.errors import ReproError
from repro.util.parallel import memo_cache
from repro.viz.ascii_art import render_ascii
from repro.viz.dot import to_dot

__all__ = ["main", "build_parser"]


def _load_graph(path: str) -> WGraph:
    text = Path(path).read_text()
    suffix = Path(path).suffix.lower()
    if suffix == ".hgr":
        raise ReproError(
            f"{path} is a hypergraph instance; re-run with --model hypergraph"
        )
    if suffix == ".json":
        return graph_from_json(text)
    if suffix == ".graph":
        return parse_metis(text)
    if suffix in (".inc", ".txt"):
        return parse_incidence_text(text)
    # sniff: JSON object vs METIS header vs incidence
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    if stripped.startswith("#"):
        return parse_incidence_text(text)
    return parse_metis(text)


def _load_hypergraph(path: str) -> HGraph:
    """`.hgr` files load natively; every graph format lifts to 2-pin nets."""
    if Path(path).suffix.lower() == ".hgr":
        return parse_hmetis(Path(path).read_text())
    return HGraph.from_wgraph(_load_graph(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "K-Ways Partitioning of Polyhedral Process Networks "
            "(IPDPSW 2015) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a process-network graph")
    p.add_argument("--input", required=True, help=".json/.graph/.inc/.hgr file")
    p.add_argument("--k", type=int, required=True, help="number of FPGAs")
    p.add_argument("--bmax", type=float, default=float("inf"))
    p.add_argument("--rmax", default="inf", metavar="R[,R...]",
                   help="per-partition resource budget; a comma-separated "
                        "vector (with --resources) caps each resource "
                        "componentwise")
    p.add_argument("--resources", metavar="FILE", default=None,
                   help="per-node resource matrix (JSON: [[...]] rows or "
                        "{'weights': ..., 'names': ...}); switches to "
                        "vector budgets — needs a comma-separated --rmax")
    p.add_argument("--method", default="gp", choices=METHODS)
    p.add_argument(
        "--model",
        default="graph",
        choices=["graph", "hypergraph"],
        help="traffic model: 2-pin edge cut (graph) or (λ-1) connectivity "
             "(hypergraph; .hgr inputs load natively, graphs are lifted)",
    )
    p.add_argument(
        "--refine",
        default=None,
        choices=["fm", "fm+flow"],
        help="refinement stage: the native local search (fm, the "
             "default), or fm plus a guarded corridor max-flow polish "
             "that is never worse than fm (fm+flow); see "
             "docs/refinement.md",
    )
    p.add_argument(
        "--conn-format",
        default=None,
        choices=["auto", "dense", "sparse"],
        help="refinement engine connectivity store: dense (k,n) matrices, "
             "the degree-sized sparse store, or pick by instance size "
             "(auto, the default) — results are bit-identical either way; "
             "see docs/refinement.md",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes racing the method's independent "
                        "randomized work (-1 = all CPUs; results are "
                        "bit-identical to --jobs 1)")
    p.add_argument("--generations", type=int, default=None, metavar="G",
                   help="evolve: generation cap (--method evolve only)")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="evolve: wall-clock budget in seconds, checked at "
                        "generation boundaries (--method evolve only)")
    p.add_argument("--pop-size", type=int, default=None, metavar="P",
                   help="evolve: population size (--method evolve only)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the in-process memo cache (cold run)")
    p.add_argument("--compare", action="store_true",
                   help="also run the METIS-like baseline and compare")
    p.add_argument("--dot", metavar="FILE", help="write partitioned DOT here")
    p.add_argument("--assign-out", metavar="FILE",
                   help="write the assignment as JSON here")
    p.add_argument("--profile", action="store_true",
                   help="run under the observability capture and print the "
                        "aggregated span/metric profile after the report "
                        "(results are bit-identical; docs/observability.md)")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON of the run here "
                        "(Perfetto-loadable; summarise it later with "
                        "`repro profile --trace FILE`)")
    p.add_argument("--mem", action="store_true",
                   help="with --profile/--trace-out: also measure memory — "
                        "per-span peak/retained bytes (tracemalloc) and the "
                        "big-allocation gauges; slower, results still "
                        "bit-identical")

    t = sub.add_parser("tables", help="regenerate the paper's tables")
    t.add_argument("--experiment", type=int, choices=[1, 2, 3], default=None)

    f = sub.add_parser("figures", help="regenerate Figures 2-13 artefacts")
    f.add_argument("--out", default="artifacts", help="output directory")
    f.add_argument("--html", action="store_true",
                   help="also write one self-contained HTML report per experiment")

    g = sub.add_parser("generate", help="synthesise a process network")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=None,
                   help="edge count (graph output; ignored with --fanout)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--node-weights", default="10,60",
                   help="node weight range lo,hi")
    g.add_argument("--edge-weights", default="1,8",
                   help="edge weight range lo,hi")
    g.add_argument("--fanout", type=int, default=None,
                   help="emit a multicast-heavy hypergraph (.hgr) with this "
                        "broadcast fan-out instead of a graph; --edge-weights "
                        "then sets the backbone chain-net range (broadcast "
                        "nets stay heavier)")
    g.add_argument("--resources", metavar="FILE", default=None,
                   help="also write a device-shaped per-node resource "
                        "matrix (LUTs/FFs/BRAMs/DSPs) to FILE, ready for "
                        "`partition --resources` (graph output only)")
    g.add_argument("--n-resources", type=int, default=4, metavar="R",
                   help="resource columns in the --resources matrix "
                        "(1-4, default 4)")
    g.add_argument("--out", required=True, help="output .json (or .hgr) path")

    c = sub.add_parser(
        "cache",
        help="inspect or clear the in-process memo cache (and, with "
             "--dir, a persistent disk cache)",
    )
    c.add_argument("--stats", action="store_true",
                   help="print the memo's size and hit/miss stats "
                        "(the default action)")
    c.add_argument("--clear", action="store_true",
                   help="drop every memoised evolve and multires "
                        "result (with --dir: the disk store too)")
    c.add_argument("--dir", metavar="DIR", default=None,
                   help="also inspect/clear the persistent disk cache at "
                        "DIR (the directory `repro serve --cache-dir` "
                        "writes)")

    s = sub.add_parser(
        "serve",
        help="run the partitioning daemon (persistent digest-keyed cache, "
             "single-flight dedup; see docs/serve.md)",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8077,
                   help="TCP port (0 = pick an ephemeral port and print it)")
    s.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent result-cache directory; omitting it "
                        "serves from memory only (no warm restarts)")
    s.add_argument("--cache-mb", type=int, default=256, metavar="MB",
                   help="disk-cache size budget in MiB (default 256)")
    s.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes racing each request's work "
                        "(-1 = all CPUs available to the daemon); "
                        "kept warm across requests; results are "
                        "bit-identical for every value")
    s.add_argument("--memory-entries", type=int, default=256, metavar="E",
                   help="in-memory result-cache entries layered above "
                        "the disk store (default 256)")

    pr = sub.add_parser(
        "profile",
        help="validate and summarise a Chrome trace written by "
             "`partition --trace-out` (aggregated spans + metric series)",
    )
    pr.add_argument("--trace", required=True, metavar="FILE",
                    help="trace-event JSON file to summarise")
    pr.add_argument("--mem", action="store_true",
                    help="force the memory columns (peak/allocated bytes "
                         "per call path) even when no span carries them; "
                         "they appear automatically for traces recorded "
                         "with `partition --profile --mem`")

    b = sub.add_parser(
        "bench",
        help="run a registered benchmark suite, write the structured "
             "BENCH JSON artifact, optionally gate against a baseline "
             "(see docs/observability.md)",
    )
    b.add_argument("--suite", metavar="NAME", default=None,
                   help="registered suite to run (see --list)")
    b.add_argument("--list", action="store_true",
                   help="list registered suites and exit")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", metavar="FILE", default=None,
                   help="artifact path (default "
                        "benchmarks/artifacts/BENCH_<suite>.json)")
    b.add_argument("--compare", metavar="BASELINE", default=None,
                   help="judge the run against this stored BENCH JSON; "
                        "exit 3 if any shared metric regressed past its "
                        "tolerance band")
    b.add_argument("--current", metavar="FILE", default=None,
                   help="with --compare: judge this stored BENCH JSON "
                        "instead of re-running the suite (what CI does — "
                        "no timing noise from a second run)")
    b.add_argument("--tolerance", metavar="PAT=FRAC", action="append",
                   default=[],
                   help="override a tolerance band: fnmatch pattern on "
                        "metric names = relative fraction, e.g. "
                        "'*.runtime=0.3' (repeatable; per-unit defaults: "
                        "s/ms 15%%, bytes 25%%, else exact)")
    return parser


def _parse_rmax(text: str):
    """``--rmax`` value: a float, or a comma-separated tuple of floats."""
    text = str(text)
    try:
        if "," not in text:
            return float(text)
        vals = tuple(float(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ReproError(f"bad --rmax value {text!r}") from None
    if not vals:
        raise ReproError(f"bad --rmax value {text!r}")
    return vals


def _load_resource_matrix(path: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """``--resources`` file: JSON ``[[...]]`` rows, or an object with
    ``weights`` rows and optional ``names`` column labels."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read resource matrix {path}: {exc}") from exc
    names: tuple[str, ...] = ()
    if isinstance(data, dict):
        if "weights" not in data:
            raise ReproError(
                f"{path}: resource object needs a 'weights' row list"
            )
        names = tuple(data.get("names", ()))
        rows = data["weights"]
    else:
        rows = data
    try:
        w = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"{path}: bad resource rows: {exc}") from exc
    if w.ndim != 2:
        raise ReproError(
            f"{path}: resource matrix must be rows of equal length, "
            f"got shape {w.shape}"
        )
    if names and len(names) != w.shape[1]:
        raise ReproError(
            f"{path}: {len(names)} names for {w.shape[1]} resource columns"
        )
    return w, names


def _evolve_config(args: argparse.Namespace) -> EvolveConfig | None:
    """EvolveConfig from the CLI budget knobs (None = library defaults);
    the library rejects it on any method but evolve."""
    fields = {
        name: value
        for name, value in (
            ("generations", args.generations),
            ("time_budget", args.time_budget),
            ("pop_size", args.pop_size),
        )
        if value is not None  # a legitimate (if invalid) 0 still counts
    }
    return EvolveConfig(**fields) if fields else None


def _write_assignment(args, result, **extra) -> None:
    """``--assign-out``: the assignment and its headline numbers as JSON."""
    if not args.assign_out:
        return
    Path(args.assign_out).write_text(
        json.dumps({
            "k": args.k,
            "assign": [int(c) for c in result.assign],
            "feasible": result.feasible,
            "cut": result.metrics.cut,
            **extra,
        }, indent=1)
    )
    print(f"wrote {args.assign_out}")


def _cmd_partition(args: argparse.Namespace) -> int:
    """``repro partition`` — optionally under an observability capture.

    ``--profile`` / ``--trace-out`` wrap the *whole* run (any of the
    three branches: graph, vector-resource, hypergraph) in one
    :func:`repro.obs.capture`, so the profile covers loading, the
    partitioner and the baseline comparison alike.  The partition itself
    is bit-identical to an unprofiled run.
    """
    if not (args.profile or args.trace_out):
        if args.mem:
            raise ReproError("--mem needs --profile or --trace-out")
        return _run_partition(args)
    with _obs.capture(memory=args.mem) as cap:
        rc = _run_partition(args)
    spans = [s.to_dict() for s in cap.spans]
    if args.trace_out:
        _obs.write_trace(args.trace_out, spans, cap.metrics)
        print(f"wrote {args.trace_out}")
    if args.profile:
        print()
        print(_obs.format_profile(spans, cap.metrics, cap.wall_s))
    return rc


def _run_partition(args: argparse.Namespace) -> int:
    rmax = _parse_rmax(args.rmax)
    hypergraph = args.model == "hypergraph"
    if hypergraph and args.dot:
        raise ReproError(
            "--dot renders 2-pin graphs only; re-run with "
            "--model graph or export the instance via star expansion"
        )
    if args.resources and args.compare:
        raise ReproError(
            "--compare has no scalar baseline under vector budgets; "
            "run the methods separately"
        )
    evolve_cfg = _evolve_config(args)
    structure = (
        _load_hypergraph(args.input) if hypergraph
        else _load_graph(args.input)
    )
    w, names = (
        _load_resource_matrix(args.resources) if args.resources
        else (None, ())
    )
    # the library validates every knob and flag combination (method,
    # model, budgets, config, --jobs, --refine, --conn-format); the CLI
    # only forwards them, so both surfaces reject the same things
    result = partition_graph(
        structure, args.k, bmax=args.bmax, rmax=rmax, method=args.method,
        seed=args.seed, config=evolve_cfg, n_jobs=args.jobs,
        cache=not args.no_cache, resources=w, refine=args.refine,
        conn_format=args.conn_format,
    )
    if w is not None:
        return _report_vector(
            args, structure, result,
            VectorConstraints(bmax=args.bmax, rmax=rmax, names=names),
        )
    constraints = ConstraintSpec(bmax=args.bmax, rmax=rmax)
    if hypergraph:
        return _report_hypergraph(args, structure, result, constraints)
    g = structure
    results = [result]
    if args.compare and args.method != "mlkp":
        baseline = partition_graph(
            g, args.k, bmax=args.bmax, rmax=rmax,
            method="mlkp", seed=args.seed,
        )
        results.insert(0, baseline)
    print(comparison_report(results, constraints))
    print()
    print(render_ascii(g, assign=result.assign, k=args.k,
                       constraints=constraints,
                       title=f"{result.algorithm} mapping"))
    if args.dot:
        Path(args.dot).write_text(
            to_dot(g, assign=result.assign, k=args.k)
        )
        print(f"wrote {args.dot}")
    _write_assignment(args, result)
    return 0 if result.feasible or constraints.unconstrained else 2


def _report_hypergraph(args, hg: HGraph, result, constraints) -> int:
    """Report a ``--model hypergraph`` run (and its ``--compare``)."""
    results = [result]
    if args.compare:
        # the 2-pin edge-cut baseline: GP on the per-consumer star
        # expansion, priced on the hypergraph's connectivity metric
        from repro.hypergraph.metrics import evaluate_hyper_partition

        baseline = partition_graph(
            hg.star_expansion(), args.k, bmax=args.bmax,
            rmax=constraints.rmax, method="gp", seed=args.seed,
        )
        baseline.algorithm = "GP (2-pin model)"
        baseline.metrics = evaluate_hyper_partition(
            hg, baseline.assign, args.k, constraints
        )
        results.insert(0, baseline)
    print(comparison_report(results, constraints))
    print(f"(connectivity objective: {result.metrics.cut:g}; "
          f"a multicast net counts once per extra FPGA)")
    # "cut" keeps the graph branch's schema; here it is the connectivity
    # objective, also under its proper name
    _write_assignment(args, result, connectivity=result.metrics.cut)
    return 0 if result.feasible or constraints.unconstrained else 2


def _report_vector(args, g: WGraph, result, constraints) -> int:
    """Report a ``--resources`` (vector budgets) run."""
    print(multires_report([result], constraints))
    if args.dot:
        Path(args.dot).write_text(to_dot(g, assign=result.assign, k=args.k))
        print(f"wrote {args.dot}")
    _write_assignment(args, result, max_loads=list(result.metrics.max_loads))
    return 0 if result.feasible else 2


def _cmd_tables(args: argparse.Namespace) -> int:
    experiments = [args.experiment] if args.experiment else [1, 2, 3]
    for exp in experiments:
        print(paper_experiment_table(exp))
        print("=" * 78)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    paths = write_figure_artifacts(args.out)
    if args.html:
        from repro.viz.html_report import write_experiment_report

        paths += write_experiment_report(args.out)
    print(f"wrote {len(paths)} artefacts under {args.out}/")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    def parse_range(text: str) -> tuple[int, int]:
        lo, hi = (int(x) for x in text.split(","))
        return lo, hi

    if args.fanout is not None and args.resources:
        raise ReproError(
            "--resources emits per-node vectors for graph instances; "
            "vector budgets are not supported on hypergraph (.hgr) output"
        )
    if args.fanout is not None:
        node_range = parse_range(args.node_weights)
        edge_range = parse_range(args.edge_weights)
        if node_range[0] < 1 or edge_range[0] < 1:
            raise ReproError(
                ".hgr output needs positive integer weights; "
                "use ranges with lower bound >= 1"
            )
        hg = multicast_network(
            args.n, seed=args.seed, fanout=args.fanout,
            node_weight_range=node_range,
            chain_weight_range=edge_range,
        )
        save_hmetis(hg, args.out, comment=f"multicast_network n={args.n} "
                                          f"fanout={args.fanout} seed={args.seed}")
        print(f"wrote {args.out} (n={hg.n}, nets={hg.n_nets}, "
              f"pins={hg.n_pins}, total resources {hg.total_node_weight:g})")
        return 0
    if args.m is None:
        raise ReproError("--m is required unless --fanout is given")
    g = random_process_network(
        args.n, args.m, seed=args.seed,
        node_weight_range=parse_range(args.node_weights),
        edge_weight_range=parse_range(args.edge_weights),
    )
    Path(args.out).write_text(graph_to_json(g))
    print(f"wrote {args.out} (n={g.n}, m={g.m}, "
          f"total resources {g.total_node_weight:g})")
    if args.resources:
        w, names = random_device_matrix(
            args.n, seed=args.seed, n_resources=args.n_resources
        )
        Path(args.resources).write_text(
            json.dumps({
                "names": list(names),
                "weights": [[float(x) for x in row] for row in w],
            }, indent=1)
        )
        print(f"wrote {args.resources} ({w.shape[0]}x{w.shape[1]} "
              f"resource matrix: {', '.join(names)})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Report (and optionally clear) the in-process memo cache.

    The in-process memo lives in this process only — ``cache --clear``
    matters for long-lived hosts of :func:`main` (notebooks, tests,
    benchmark harnesses), not across separate CLI invocations; cold
    *runs* are what ``partition --no-cache`` is for.  ``--dir`` targets
    the *persistent* store (`repro serve --cache-dir`) instead, which
    does span invocations; ``--stats`` is the (default) report action.
    """
    if args.clear:
        memo_cache.clear()
        print("cleared the memo cache")
    s = memo_cache.stats()
    print(f"memo: size={s['size']} hits={s['hits']} misses={s['misses']}")
    # the instrumented view: cache.* counter series from the metrics
    # registry (populated when observability was on during the runs)
    cache_series = [
        (mname, key, value)
        for mname, series in sorted(
            _obs.REGISTRY.snapshot()["counters"].items()
        )
        if mname.startswith("cache.")
        for key, value in sorted(series.items())
    ]
    if cache_series:
        print("registry cache.* counters:")
        for mname, key, value in cache_series:
            labels = ",".join(f"{k}={v}" for k, v in key)
            tag = f"{mname}{{{labels}}}" if labels else mname
            print(f"  {tag} {value:g}")
    if args.dir:
        from repro.util.diskcache import DiskCache

        disk = DiskCache(args.dir)
        if args.clear:
            n = len(disk)
            disk.clear()
            print(f"cleared {n} persistent entries under {args.dir}")
        s = disk.stats()
        print(f"disk[{args.dir}]: entries={s['entries']} "
              f"bytes={s['bytes']} max_bytes={s['max_bytes']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the partitioning daemon until SIGINT/SIGTERM (or POST /shutdown)."""
    import signal

    from repro.serve.server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache_bytes=args.cache_mb * 1024 * 1024,
        memory_entries=args.memory_entries,
        n_jobs=args.jobs,
    )
    # the first line is machine-readable: harnesses parse the port from it
    print(f"repro serve listening on http://{server.host}:{server.port}",
          flush=True)
    if server.disk is not None:
        print(f"persistent cache: {args.cache_dir} "
              f"({args.cache_mb} MiB budget)", flush=True)
    if server.pool_workers:
        print(f"warm worker pool: {server.pool_workers} processes",
              flush=True)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    old_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, old_term)
        server.close()
    print("repro serve: shut down cleanly", flush=True)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Validate a trace file and print its aggregated profile."""
    try:
        doc = json.loads(Path(args.trace).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read trace {args.trace}: {exc}") from exc
    try:
        n_events = _obs.validate_chrome_trace(doc)
    except ValueError as exc:
        raise ReproError(
            f"{args.trace} is not a valid Chrome trace: {exc}"
        ) from exc
    repro_data = doc.get("otherData", {}).get("repro", {})
    print(f"{args.trace}: {n_events} trace events")
    print(_obs.format_profile(
        repro_data.get("spans", []), repro_data.get("metrics"),
        mem=True if args.mem else None,
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench`` — run a suite, write BENCH JSON, gate regressions.

    Exit codes: 0 ok, 1 usage/suite error, 3 regression past tolerance
    (distinct from 1 so CI can tell "the gate tripped" from "the tool
    broke").  ``--compare`` with ``--current`` judges two stored files
    without running anything — the noise-free mode CI stage 10 uses.
    """
    from repro.obs import benchdb
    import repro.bench.suites  # noqa: F401  (registers the suites)

    if args.list:
        for name, desc in benchdb.list_suites().items():
            print(f"  {name:<14} {desc}")
        return 0

    tolerances: dict[str, float] = {}
    for spec in args.tolerance:
        pattern, eq, frac = spec.partition("=")
        try:
            if not eq:
                raise ValueError
            tolerances[pattern] = float(frac)
        except ValueError:
            raise ReproError(
                f"bad --tolerance {spec!r}; expected PATTERN=FRACTION "
                f"like '*.runtime=0.3'"
            ) from None

    if args.current:
        if not args.compare:
            raise ReproError("--current needs --compare BASELINE")
        try:
            current = benchdb.load_bench(args.current)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    else:
        if not args.suite:
            raise ReproError("--suite NAME is required (or --list)")
        try:
            result = benchdb.run_suite(args.suite, seed=args.seed)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        out = args.out or f"benchmarks/artifacts/BENCH_{args.suite}.json"
        current = benchdb.write_bench(out, result)
        print(f"{current['suite']}: {len(current['metrics'])} metrics "
              f"-> {out} (rev {current['git_rev'][:12]})")

    if not args.compare:
        return 0
    try:
        baseline = benchdb.load_bench(args.compare)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    deltas, only_b, only_c = benchdb.compare_results(
        baseline, current, tolerances
    )
    print(f"compare vs {args.compare} "
          f"(baseline rev {baseline['git_rev'][:12]}):")
    print(benchdb.format_compare(deltas, only_b, only_c))
    if not deltas:
        raise ReproError(
            "baseline and current share no metrics; nothing was gated"
        )
    return 3 if any(d.regressed for d in deltas) else 0


_COMMANDS = {
    "partition": _cmd_partition,
    "tables": _cmd_tables,
    "figures": _cmd_figures,
    "generate": _cmd_generate,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - `python -m repro.cli`
    sys.exit(main())
