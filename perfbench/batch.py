"""Batch workloads: partitioner calls on a set of generated inputs.

``ring1500``
    ``gp_partition`` on the 1,500-node ring+chord graph at k=64 with the
    X15b config and the sparse connectivity store; the inputs are four
    partitioner seeds.  Un-coarsening FM dominates the call.  The quality
    reference is the contiguous-block assignment, built and checked here.
``tight400``
    ``gp_partition`` with the paper-default config and ``refine="fm+flow"``
    on the four instances ``tight_instance(400, 8, i)``, i = 0..3:
    coarsening with all three matchings, FM and the flow polish each take
    a large share.
``multicast120``
    ``hyper_partition`` on the four instances
    ``multicast_network(120, i, fanout=8)``, i = 0..3, at k=8 with
    ``rmax = 1.1·W/k`` — the Φ-engine (pin-count) refinement.

A run has :data:`INPUTS` inputs, sized so that one call takes well under
a second.  The instances are a fixed catalogue and the workload seed
draws one partitioner seed per input: instances of one generator differ
in cost by a tenth and more, which a run would otherwise report as a
change of speed.

One untimed warm-up call comes first; then the run makes passes, each
calling every input once, while the next pass is expected to end within
the time.  An input's time is its best pass: on a shared host the same
call runs up to 1.6x slower in spells of seconds to minutes, and the
best of several passes is the one such a spell left alone (over 20 s
windows of one repeated call, the best call varied 4% where the median
call varied 15%).  Four inputs leave room for three to six passes.
Time figures are taken over the inputs' best times and scaled to a
reference host speed (see :mod:`speed`), against spells that cover a
whole run; quality figures are medians over the inputs, so they repeat
exactly at a given seed.

Each call is verified independently of the code under test: cut and
violation are recomputed from the returned assignment, and every repeat
of an input must return the same assignment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from layertrace import LayerTracer, edge_cut
from speed import SpeedProbe

__all__ = ["Case", "build_cases", "run_batch", "trace_gp_layers"]

#: The X15b GP config: one cycle, two restarts, one candidate per level,
#: heavy-edge matching only.
X15B = dict(max_cycles=1, restarts=2, level_candidates=1, matchings=("hem",))

#: Layers each workload must reach; a traced run where one records no
#: call fails (the wrapping no longer sees that layer).
EXPECTED_LAYERS = {
    "ring1500": ("partition.coarsen", "partition.initial",
               "partition.refine_state", "partition.kway_refine"),
    "tight400": ("partition.coarsen", "partition.initial",
                 "partition.refine_state", "partition.kway_refine",
                 "partition.flow_refine"),
    "multicast120": ("hypergraph.coarsen", "partition.initial",
                     "hypergraph.refine_state", "hypergraph.refine"),
}

#: Inputs per run.  Time and quality figures are taken over them.
INPUTS = 4


@dataclass
class Case:
    """One input: the call to time and how to check its result."""

    graph: object
    call: Callable[[], object]
    evaluate: Callable[[np.ndarray], object]
    reference_cut: float


def input_seeds(seed: int) -> list[int]:
    """The run's partitioner seeds, one per input, from the workload seed."""
    rng = np.random.default_rng([seed, 3])
    return [int(x) for x in rng.integers(2**31, size=INPUTS)]


def build_cases(workload: str, seed: int) -> tuple[list[Case], str]:
    """Generate the workload's inputs from *seed* (the set-up step).

    Returns the cases and a description of their quality reference.
    """
    from repro.bench.suites import bounded_degree_graph, tight_instance
    from repro.graph.generators import multicast_network
    from repro.hypergraph.metrics import evaluate_hyper_partition
    from repro.hypergraph.partition import hyper_partition
    from repro.partition.gp import GPConfig, gp_partition
    from repro.partition.metrics import ConstraintSpec, evaluate_partition

    seeds = input_seeds(seed)
    if workload == "ring1500":
        k = 64
        g = bounded_degree_graph(1500)
        cons = ConstraintSpec(rmax=float(math.ceil(1.05 * g.n / k)))
        # contiguous blocks: the quality bound every result is compared to
        blocks = np.arange(g.n, dtype=np.int64) * k // g.n
        bound = evaluate_partition(g, blocks, k, cons)
        if not bound.feasible:
            raise RuntimeError(
                f"contiguous blocks break rmax={cons.rmax}: "
                f"max resource {bound.max_resource}"
            )
        config = GPConfig(**X15B, conn_format="sparse")
        cases = [
            Case(g, call=lambda s=s: gp_partition(g, k, cons, config, seed=s),
                 evaluate=lambda a: evaluate_partition(g, a, k, cons),
                 reference_cut=bound.cut)
            for s in seeds
        ]
        return cases, f"contiguous-block assignment, cut {bound.cut:g}"
    if workload == "tight400":
        k = 8
        config = GPConfig(refine="fm+flow")
        cases = []
        for i, s in enumerate(seeds):
            g, cons = tight_instance(400, k, i)
            cases.append(Case(
                g, call=lambda g=g, cons=cons, s=s:
                    gp_partition(g, k, cons, config, seed=s),
                evaluate=lambda a, g=g, cons=cons: evaluate_partition(g, a, k, cons),
                reference_cut=_random_cut(evaluate_partition, g, k, cons, i),
            ))
        return cases, "seeded uniform random assignment per instance"
    if workload == "multicast120":
        k = 8
        cases = []
        for i, s in enumerate(seeds):
            hg = multicast_network(120, i, fanout=8)
            cons = ConstraintSpec(rmax=1.1 * float(hg.node_weights.sum()) / k)
            cases.append(Case(
                hg, call=lambda hg=hg, cons=cons, s=s:
                    hyper_partition(hg, k, cons, seed=s),
                evaluate=lambda a, hg=hg, cons=cons:
                    evaluate_hyper_partition(hg, a, k, cons),
                reference_cut=_random_cut(evaluate_hyper_partition, hg, k, cons, i),
            ))
        return cases, "seeded uniform random assignment per instance"
    raise ValueError(f"unknown batch workload {workload!r}")


def _random_cut(evaluate, g, k: int, cons, seed: int) -> float:
    a = np.random.default_rng(seed).integers(0, k, size=g.n)
    return float(evaluate(g, a, k, cons).cut)


def check_result(case: Case, result, first_assign) -> list[str]:
    """Problems with *result*, recomputed without the partitioner's help."""
    problems = []
    assign = np.asarray(result.assign)
    m = case.evaluate(assign)
    if not math.isclose(m.cut, result.metrics.cut, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"reported cut {result.metrics.cut} != recomputed {m.cut}")
    reported = result.metrics.total_violation
    if not math.isclose(m.total_violation, reported, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(
            f"reported violation {reported} != recomputed {m.total_violation}"
        )
    if first_assign is not None and not np.array_equal(assign, first_assign):
        problems.append("a repeat call on the same input "
                        "returned another assignment")
    return problems


# --------------------------------------------------------------------- #
# traced run: per-layer hooks
# --------------------------------------------------------------------- #
LEVELS = 3  # per-level FM figures for the three finest levels


class GPLayerFacts:
    """What the GP-side hooks learn besides time."""

    def __init__(self) -> None:
        self.coarsen_levels = 0
        self.level_of: dict[int, int] = {}
        self.new_hierarchy = False
        self.level_s = [0.0] * LEVELS
        self.cut_before: list = [None] * LEVELS
        self.cut_after: list = [None] * LEVELS
        self.finest_build_s = 0.0
        self.finest_conn_mb = 0.0
        self.flow_gain = 0.0
        self.hyper_levels = 0


def trace_gp_layers(tr: LayerTracer) -> GPLayerFacts:
    """Wrap the graph pipeline's layers (coarsen, initial, state, FM, flow)."""
    from repro.partition.coarsen import build_hierarchy
    from repro.partition.flow_refine import run_flow_refine
    from repro.partition.initial import greedy_initial_partition
    from repro.partition.kway_refine import constrained_kway_fm
    from repro.partition.refine_state import RefinementState

    facts = GPLayerFacts()

    def hierarchy_built(args, kwargs, hier, ctx, dt):
        facts.coarsen_levels = hier.depth
        facts.level_of = {id(lv.graph): i for i, lv in enumerate(hier.levels)}
        facts.new_hierarchy = True

    def fm_level(args, kwargs):
        if tr.inside("partition.initial"):
            return None
        g = args[0] if args else kwargs["g"]
        level = facts.level_of.get(id(g))
        if level is None or level >= LEVELS:
            return None
        if facts.new_hierarchy:
            # per-level cuts describe the latest hierarchy FM refined
            # (times add up over cycles)
            facts.new_hierarchy = False
            facts.cut_before = [None] * LEVELS
            facts.cut_after = [None] * LEVELS
        if facts.cut_before[level] is None:
            a = args[1] if len(args) > 1 else kwargs["assign"]
            facts.cut_before[level] = edge_cut(g, np.asarray(a))
        return level

    def fm_done(args, kwargs, out, level, dt):
        if level is None:
            return
        facts.level_s[level] += dt
        cut = edge_cut(args[0] if args else kwargs["g"], out)
        prev = facts.cut_after[level]
        facts.cut_after[level] = cut if prev is None else min(prev, cut)

    def state_built(args, kwargs, out, ctx, dt):
        st = args[0]
        if facts.level_of.get(id(st.g)) == 0:
            facts.finest_build_s += dt
            facts.finest_conn_mb = max(
                facts.finest_conn_mb, st._store.nbytes / 2**20
            )

    def flow_start(args, kwargs):
        st = args[0]
        return edge_cut(st.g, st.assign)

    def flow_done(args, kwargs, out, before, dt):
        facts.flow_gain += before - edge_cut(args[0].g, out)

    tr.patch_function(build_hierarchy, "partition.coarsen", after=hierarchy_built)
    tr.patch_function(greedy_initial_partition, "partition.initial")
    tr.patch_init(RefinementState, "partition.refine_state", after=state_built)
    tr.patch_function(constrained_kway_fm, "partition.kway_refine",
                      before=fm_level, after=fm_done)
    tr.patch_function(run_flow_refine, "partition.flow_refine",
                      before=flow_start, after=flow_done)
    return facts


def trace_hyper_layers(tr: LayerTracer, facts: GPLayerFacts) -> None:
    """Wrap the hypergraph pipeline's own layers (coarsen, Φ state, Φ FM)."""
    from repro.hypergraph.coarsen import build_hyper_hierarchy
    from repro.hypergraph.refine import constrained_hyper_fm
    from repro.hypergraph.refine_state import HyperRefinementState

    def hierarchy_built(args, kwargs, hier, ctx, dt):
        facts.hyper_levels = hier.depth

    tr.patch_function(build_hyper_hierarchy, "hypergraph.coarsen",
                      after=hierarchy_built)
    tr.patch_init(HyperRefinementState, "hypergraph.refine_state")
    tr.patch_function(constrained_hyper_fm, "hypergraph.refine")


def fm_counters(metrics: dict, engine: str) -> tuple[float, float]:
    """``(moves tried, share rolled back)`` of one FM engine from a capture."""
    counters = metrics.get("counters", {})

    def total(name: str) -> float:
        return float(sum(
            v for labels, v in counters.get(name, {}).items()
            if dict(labels).get("engine") == engine
        ))

    tried = total("fm.moves_tried")
    rolled = total("fm.moves_rolled_back")
    return tried, (rolled / tried if tried else 0.0)


def layer_metrics(tr: LayerTracer, facts: GPLayerFacts, metrics: dict,
                  cycles: int) -> dict:
    """Per-layer metric values from one traced call."""
    out = {
        "partition.coarsen.s": tr.self_s["partition.coarsen"],
        "partition.coarsen.levels": facts.coarsen_levels,
        "hypergraph.coarsen.s": tr.self_s["hypergraph.coarsen"],
        "hypergraph.coarsen.levels": facts.hyper_levels,
        "partition.initial.s": tr.self_s["partition.initial"],
        "partition.gp.cycles": cycles,
        "partition.refine_state.s": tr.self_s["partition.refine_state"],
        "partition.refine_state.finest_build_s": facts.finest_build_s,
        "partition.conn_store.finest_conn_mb": facts.finest_conn_mb,
        "partition.kway_refine.s": tr.self_s["partition.kway_refine"],
        "partition.flow_refine.s": tr.self_s["partition.flow_refine"],
        "partition.flow_refine.cut_gain": facts.flow_gain,
        "hypergraph.refine_state.s": tr.self_s["hypergraph.refine_state"],
        "hypergraph.refine.s": tr.self_s["hypergraph.refine"],
    }
    for level in range(LEVELS):
        prefix = f"partition.kway_refine.L{level}"
        out[f"{prefix}.s"] = facts.level_s[level]
        out[f"{prefix}.cut_before"] = facts.cut_before[level] or 0.0
        out[f"{prefix}.cut_after"] = facts.cut_after[level] or 0.0
    tried, rolled = fm_counters(metrics, "RefinementState")
    out["partition.kway_refine.fm.moves_tried"] = tried
    out["partition.kway_refine.fm.rolled_back_share"] = rolled
    tried, rolled = fm_counters(metrics, "HyperRefinementState")
    out["hypergraph.refine.hfm.moves_tried"] = tried
    out["hypergraph.refine.hfm.rolled_back_share"] = rolled
    return out


# --------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------- #
def run_batch(workload: str, seed: int, seconds: float, trace: bool, report):
    """Run one batch workload, filling in *report* (a ``run.Report``).

    The first call (the first input) warms lazy imports and caches and is
    checked but not timed.  Timed passes, one call per input each, follow:
    at least one, and another while it is expected to end within
    *seconds*.  Whole passes keep every input equally represented, since
    inputs differ in cost.
    """
    cases, reference = build_cases(workload, seed)
    report.note("reference", reference)

    first: list = [None] * len(cases)  # input -> first result
    latencies: list[list[float]] = [[] for _ in cases]

    def call(i: int) -> float | None:
        report.attempted += 1
        t0 = time.perf_counter()
        try:
            res = cases[i].call()
        except Exception as exc:  # a failed call is counted, not fatal
            report.fail(f"call on input {i} raised {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        prev = first[i]
        if prev is None:
            first[i] = res
        problems = check_result(
            cases[i], res, None if prev is None else np.asarray(prev.assign)
        )
        if problems:
            report.fail(f"input {i}: " + "; ".join(problems))
        return dt

    if call(0) is None:
        return report
    probe = SpeedProbe()
    started = time.perf_counter()
    pass_s = 0.0
    passes = 0
    while passes == 0 or (
        not trace and time.perf_counter() - started + pass_s <= seconds
    ):
        t0 = time.perf_counter()
        for i in range(len(cases)):
            probe.sample()
            dt = call(i)
            if dt is None:
                return report
            latencies[i].append(dt)
        pass_s = time.perf_counter() - t0
        passes += 1

    if trace:
        traced_run(workload, cases[0], np.asarray(first[0].assign), report)

    best_s = [min(ts) for ts in latencies]
    calls_s = [dt for ts in latencies for dt in ts]
    p50_ms = float(np.median(best_s)) * 1000.0
    scale = probe.scale()
    report.latency_p50_ms = p50_ms * scale
    report.ops_per_s = len(best_s) / sum(best_s) / scale
    report.note("measured", f"best-call p50 {p50_ms:.1f} ms; "
                f"kernel best {min(probe.samples) * 1000:.2f} ms, "
                f"scale {scale:.4f}")
    cuts = [float(r.metrics.cut) for r in first]
    report.cut = float(np.median(cuts))
    report.cut_ratio = float(np.median(
        [cut / case.reference_cut for cut, case in zip(cuts, cases)]
    ))
    violations = [float(r.metrics.total_violation) for r in first]
    report.note("calls", f"{len(calls_s)} timed in {passes} passes "
                "after one warm-up call")
    report.note("all calls", f"median {np.median(calls_s) * 1000:.1f} ms, "
                f"slowest {max(calls_s) * 1000:.1f} ms")
    report.note("cuts", str(cuts))
    report.note("violation", f"worst {max(violations):g} over {len(cases)} inputs")
    report.note("cycles", str([r.info.get("cycles") for r in first]))
    return report


def traced_run(workload: str, case: Case, first_assign, report) -> None:
    """Traced calls with the layer spans and the obs counters on."""
    from repro.hypergraph.hgraph import HGraph

    def hooks(tr: LayerTracer) -> GPLayerFacts:
        facts = trace_gp_layers(tr)
        if isinstance(case.graph, HGraph):
            trace_hyper_layers(tr, facts)
        return facts

    report.attempted += 1
    try:
        untraced, wall, tr, facts, metrics, traced = best_traced(case.call, hooks)
    except Exception as exc:
        report.fail(f"traced call raised {type(exc).__name__}: {exc}")
        return
    problems = check_result(case, traced, first_assign)
    if problems:
        report.fail("traced call: " + "; ".join(problems))
    report.layers.update(layer_metrics(tr, facts, metrics,
                                       traced.info.get("cycles", 0)))
    report.layers.update(accounting(tr, wall, untraced))
    report.layers["quality.violation"] = float(traced.metrics.total_violation)
    report.require_layers(tr, EXPECTED_LAYERS[workload])
    report.note("traced call", f"best {wall:.3f} s, untraced best {untraced:.3f} s")


#: Traced and untraced calls made, alternately, for the traced figures.
TRACE_REPEATS = 3


def best_traced(call, hooks) -> tuple:
    """Alternate untraced and traced runs of *call*, :data:`TRACE_REPEATS` each.

    ``hooks(tracer)`` installs the layer spans and returns the facts they
    collect.  Returns ``(untraced_s, traced_s, tracer, facts, obs metrics,
    result)``: the best time of each kind, and the spans, facts, counters
    and result of the best traced run.  Taking the best of each keeps a
    slow spell of the host out of the overhead figure.
    """
    import repro.obs as obs

    untraced = []
    best = None
    for _ in range(TRACE_REPEATS):
        t0 = time.perf_counter()
        call()
        untraced.append(time.perf_counter() - t0)
        with LayerTracer() as tr, obs.capture(tracing=False, metrics=True) as cap:
            facts = hooks(tr)
            t0 = time.perf_counter()
            out = call()
            wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, tr, facts, cap.metrics, out)
    return (min(untraced), *best)


def accounting(tr: LayerTracer, wall: float, untraced: float) -> dict:
    """Traced wall time against the sum of the layers' self times."""
    self_sum = tr.self_sum_s()
    return {
        "trace.wall_s": wall,
        "trace.layer_self_sum_s": self_sum,
        "trace.accounted_share": self_sum / wall if wall > 0 else 0.0,
        "trace.instrument_s": tr.instrument_s,
        "trace.overhead_s": wall - untraced,
    }
