"""The three paper experiments (Section V, Tables I-III).

Each experiment compares the METIS-like baseline ("MLKP", standing in for
METIS 5.1.0 — see DESIGN.md, Substitutions) against GP on one reconstructed
12-node process network, reporting the paper's four quantities.  Seeds are
pinned: rerunning yields identical tables.

The paper's published values, kept here for EXPERIMENTS.md and the bench
output's paper-vs-measured column:

=============  ======  =====  ====  =======  =====
experiment     tool    cut    time  max res  max bw
=============  ======  =====  ====  =======  =====
I  (B16/R165)  METIS   58     0.02  172      20
I              GP      70     0.33  163      16
II (B25/R130)  METIS   77     0.02  137      25
II             GP      62     0.25  127      18
III (B20/R78)  METIS   90     0.02  78       38
III            GP      96     7.76  76       19
=============  ======  =====  ====  =======  =====
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.paper_values import PAPER_TABLES, PaperRow
from repro.core.report import comparison_report
from repro.graph.generators import PaperExperimentSpec, paper_graph
from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.mlkp import mlkp_partition

__all__ = ["ExperimentOutcome", "run_paper_experiment", "paper_experiment_table"]

#: pinned algorithm seeds — the tables are regenerated bit-identically
MLKP_SEED = 0
GP_SEED = 0
GP_MAX_CYCLES = 20


@dataclass
class ExperimentOutcome:
    """Everything one paper experiment produced."""

    experiment: int
    spec: PaperExperimentSpec
    graph: WGraph
    constraints: ConstraintSpec
    mlkp: PartitionResult
    gp: PartitionResult
    paper: list[PaperRow]

    @property
    def results(self) -> list[PartitionResult]:
        return [self.mlkp, self.gp]

    def reproduces_paper_shape(self) -> dict[str, bool]:
        """The qualitative claims of Section V, checked on this run."""
        gp_s, mlkp_s = _best_cpu_s(
            lambda: _run_gp(self.graph, self.spec.k, self.constraints),
            lambda: _run_mlkp(self.graph, self.spec.k, self.constraints),
        )
        checks = {
            # "GP can always partition ... while respecting resource and
            # bandwidth constraints"
            "gp_feasible": self.gp.feasible,
            # "METIS always partitions, regardless of said constraints"
            "mlkp_violates_some_constraint": not self.mlkp.feasible,
            # runtime ordering: "METIS ... 0.02s" vs GP 0.25-7.76s
            "gp_slower_than_mlkp": gp_s > mlkp_s,
        }
        paper_mlkp = next(r for r in self.paper if r.tool == "METIS")
        paper_gp = next(r for r in self.paper if r.tool == "GP")
        # sign of the cut difference (GP premium vs incidental win)
        paper_gp_worse = paper_gp.cut >= paper_mlkp.cut
        ours_gp_worse = self.gp.cut >= self.mlkp.cut
        checks["cut_difference_same_sign"] = paper_gp_worse == ours_gp_worse
        return checks

    def report(self) -> str:
        return comparison_report(
            self.results,
            self.constraints,
            title=(
                f"{self.spec.name}: n={self.graph.n}, m={self.graph.m}, "
                f"K={self.spec.k}, Bmax={self.spec.bmax:g}, "
                f"Rmax={self.spec.rmax:g}"
            ),
        )


def _run_mlkp(g: WGraph, k: int, constraints: ConstraintSpec):
    return mlkp_partition(g, k, seed=MLKP_SEED, constraints=constraints)


def _run_gp(g: WGraph, k: int, constraints: ConstraintSpec):
    return gp_partition(
        g, k, constraints, GPConfig(max_cycles=GP_MAX_CYCLES), seed=GP_SEED
    )


def _best_cpu_s(*runs, repeats: int = 5) -> list[float]:
    """The least CPU time each of *runs* takes over *repeats* rounds.

    A runtime ordering of millisecond runs read off single wall times
    flips with the host's other load; the best of a few CPU times does
    not, and interleaving the runs round by round exposes them all to
    the same stretches of load.
    """
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            t0 = time.process_time()
            run()
            best[i] = min(best[i], time.process_time() - t0)
    return best


def run_paper_experiment(experiment: int) -> ExperimentOutcome:
    """Run experiment 1, 2 or 3 exactly as the benchmarks do."""
    g, spec = paper_graph(experiment)
    constraints = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
    mlkp = _run_mlkp(g, spec.k, constraints)
    mlkp.algorithm = "MLKP (METIS-like)"
    gp = _run_gp(g, spec.k, constraints)
    return ExperimentOutcome(
        experiment=experiment,
        spec=spec,
        graph=g,
        constraints=constraints,
        mlkp=mlkp,
        gp=gp,
        paper=PAPER_TABLES[experiment],
    )


def paper_experiment_table(experiment: int) -> str:
    """The paper-format table plus paper-vs-measured lines."""
    outcome = run_paper_experiment(experiment)
    lines = [outcome.report(), "", "paper reported:"]
    for row in outcome.paper:
        lines.append(
            f"  {row.tool:6s} cut={row.cut:g} time={row.time_s:g}s "
            f"max_res={row.max_resource:g} max_bw={row.max_bandwidth:g}"
        )
    return "\n".join(lines)
