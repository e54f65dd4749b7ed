"""Tests for the evolutionary partitioning subsystem.

Load-bearing properties, in the order the EA composes them:

* **Population discipline** — goodness-ranked replacement, Hamming
  diversity tie-breaking, duplicate rejection, stagnation counting.
* **Recombination invariant** — the child is never worse than the better
  parent under the goodness order, on both the graph and the hypergraph
  engine, feasible or not (the overlay-restricted contraction preserves
  each parent's cut; the FM only improves from there).
* **Determinism contract** — same seed ⇒ identical result *and identical
  per-generation history* for serial and ``n_jobs=2`` execution, both
  engines (worker counts honour ``REPRO_TEST_JOBS``, default 2).
* **Budget semantics** — ``generations``, ``max_evals`` (seeding included,
  last generation truncated) and the cache/no-cache behaviour.
* **Wiring** — ``partition_graph`` / ``partition_ppn`` / CLI surface and
  the honesty checks on ``n_jobs`` / ``cache`` / evolve-only flags.
"""

import os

import numpy as np
import pytest

from repro.evolve import (
    EvolveConfig,
    Individual,
    Population,
    evolve_partition,
    hamming,
    make_engine,
    mutate_perturb,
    mutate_walk,
    recombine,
)
from repro.graph.generators import multicast_network, random_process_network
from repro.graph.wgraph import WGraph
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.metrics import evaluate_hyper_partition
from repro.partition.goodness import goodness_key
from repro.partition.gp import gp_partition
from repro.partition.metrics import ConstraintSpec, evaluate_partition
from repro.util.errors import InfeasibleError, PartitionError, ReproError
from repro.util.parallel import memo_cache

N_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


def graph_instance(n=48, m=110, seed=0):
    return random_process_network(n, m, seed=seed)


def hyper_instance(n=40, seed=0, fanout=5):
    return multicast_network(n, seed=seed, fanout=fanout)


def constraints_for(structure, k, slack=1.25, bmax=float("inf")):
    return ConstraintSpec(
        rmax=float(round(slack * structure.total_node_weight / k)), bmax=bmax
    )


def _metrics_scratch(structure, assign, k, cons):
    if isinstance(structure, HGraph):
        return evaluate_hyper_partition(structure, assign, k, cons)
    return evaluate_partition(structure, assign, k, cons)


# --------------------------------------------------------------------- #
# population
# --------------------------------------------------------------------- #
def _ind(assign, cut, violation=0.0, origin="seed"):
    from repro.partition.metrics import PartitionMetrics

    metrics = PartitionMetrics(
        k=2, cut=cut, max_local_bandwidth=cut, max_resource=1.0,
        bandwidth_violation=violation, resource_violation=0.0,
    )
    key = goodness_key(metrics, ConstraintSpec())
    return Individual(
        assign=np.asarray(assign, dtype=np.int64),
        metrics=metrics, key=key, origin=origin,
    )


class TestPopulation:
    def test_fills_then_replaces_worst(self):
        pop = Population(2)
        assert pop.add(_ind([0, 0, 1, 1], cut=10.0)) == "added"
        assert pop.add(_ind([0, 1, 0, 1], cut=20.0)) == "added"
        # better than the worst: evicts the cut=20 member
        assert pop.add(_ind([1, 1, 0, 0], cut=15.0)) == "replaced"
        assert sorted(m.metrics.cut for m in pop.members) == [10.0, 15.0]

    def test_rejects_strictly_worse(self):
        pop = Population(2)
        pop.add(_ind([0, 0, 1, 1], cut=10.0))
        pop.add(_ind([0, 1, 0, 1], cut=20.0))
        assert pop.add(_ind([1, 0, 1, 0], cut=30.0)) == "rejected"

    def test_rejects_duplicates(self):
        pop = Population(3)
        pop.add(_ind([0, 0, 1, 1], cut=10.0))
        assert pop.add(_ind([0, 0, 1, 1], cut=10.0)) == "rejected"
        assert len(pop) == 1

    def test_diversity_tie_break_evicts_most_similar(self):
        pop = Population(3)
        pop.add(_ind([0, 0, 0, 0], cut=5.0))
        near = _ind([1, 1, 1, 0], cut=20.0)   # worst-tied, close to newcomer
        far = _ind([0, 1, 0, 1], cut=20.0)    # worst-tied, farther away
        pop.add(near)
        pop.add(far)
        new = _ind([1, 1, 1, 1], cut=20.0)    # ties the worst key
        assert pop.add(new) == "replaced"
        assigns = [m.assign.tolist() for m in pop.members]
        assert near.assign.tolist() not in assigns   # most similar evicted
        assert far.assign.tolist() in assigns
        assert new.assign.tolist() in assigns

    def test_best_prefers_earliest_among_ties(self):
        pop = Population(3)
        first = _ind([0, 0, 1, 1], cut=10.0)
        pop.add(first)
        pop.add(_ind([0, 1, 0, 1], cut=10.0))
        assert pop.best is first

    def test_stagnation_counts_and_resets(self):
        pop = Population(2)
        pop.add(_ind([0, 0, 1, 1], cut=10.0))
        assert pop.note_generation()          # first observation improves
        assert not pop.note_generation()
        assert not pop.note_generation()
        assert pop.stagnation == 2
        pop.add(_ind([1, 1, 0, 0], cut=5.0))  # strictly better arrives
        assert pop.note_generation()
        assert pop.stagnation == 0

    def test_hamming_and_validation(self):
        assert hamming(np.array([0, 1, 2]), np.array([0, 2, 2])) == 1
        with pytest.raises(PartitionError):
            hamming(np.zeros(3), np.zeros(4))
        with pytest.raises(PartitionError):
            Population(1)


# --------------------------------------------------------------------- #
# operators
# --------------------------------------------------------------------- #
def _random_assign(structure, k, seed):
    return np.random.default_rng(seed).integers(0, k, size=structure.n)


def _parents(structure, k, cons, seed):
    """Two valid random parents."""
    return (_random_assign(structure, k, seed),
            _random_assign(structure, k, seed + 1))


class TestRecombination:
    @pytest.mark.parametrize("engine_kind", ["graph", "hypergraph"])
    @pytest.mark.parametrize("bmax", [float("inf"), 60.0])
    def test_child_never_worse_than_better_parent(self, engine_kind, bmax):
        for seed in range(6):
            if engine_kind == "graph":
                s = graph_instance(seed=seed)
            else:
                s = hyper_instance(seed=seed)
            k = 3
            cons = constraints_for(s, k, bmax=bmax)
            eng = make_engine(s, k)
            a, b = _parents(s, k, cons, seed=100 + seed)
            ka = goodness_key(_metrics_scratch(s, a, k, cons), cons)
            kb = goodness_key(_metrics_scratch(s, b, k, cons), cons)
            best, other = (a, b) if ka <= kb else (b, a)
            child, tracked = recombine(eng, best, other, cons, seed=seed)
            scratch = _metrics_scratch(s, child, k, cons)
            # tracked metrics returned by the operator == scratch evaluation
            assert goodness_key(tracked, cons) == goodness_key(scratch, cons)
            assert goodness_key(scratch, cons) <= min(ka, kb)

    def test_child_is_valid_assignment(self):
        g = graph_instance(seed=3)
        k = 4
        cons = constraints_for(g, k)
        eng = make_engine(g, k)
        a, b = _parents(g, k, cons, seed=9)
        child, _ = recombine(eng, a, b, cons, seed=0)
        assert child.shape == (g.n,)
        assert child.min() >= 0 and child.max() < k

    def test_self_recombination_is_a_vcycle(self):
        # both parents equal ⇒ the overlay is the partition itself and the
        # operator degenerates to a partition-preserving V-cycle: the child
        # can only improve on the (single) parent
        g = graph_instance(seed=5)
        k = 3
        cons = constraints_for(g, k)
        eng = make_engine(g, k)
        a = _random_assign(g, k, seed=2)
        ka = goodness_key(evaluate_partition(g, a, k, cons), cons)
        child, m = recombine(eng, a, a.copy(), cons, seed=1)
        assert goodness_key(m, cons) <= ka

    def test_restricted_matching_never_crosses_overlay(self):
        for kind, s in (("graph", graph_instance(seed=1)),
                        ("hyper", hyper_instance(seed=1))):
            k = 3
            eng = make_engine(s, k)
            a, b = _parents(s, k, None, seed=4)
            overlay = a * k + b
            match = eng.restricted_matching(s, overlay, k * k, seed=0)
            for u in range(s.n):
                v = int(match[u])
                assert overlay[u] == overlay[v], (kind, u, v)


class TestMutations:
    @pytest.mark.parametrize("op", [mutate_perturb, mutate_walk])
    @pytest.mark.parametrize("kind", ["graph", "hypergraph"])
    def test_returns_valid_assignment_and_exact_metrics(self, op, kind):
        s = graph_instance(seed=2) if kind == "graph" else hyper_instance(seed=2)
        k = 3
        cons = constraints_for(s, k)
        eng = make_engine(s, k)
        a = _random_assign(s, k, seed=0)
        child, tracked = op(eng, a, cons, seed=7)
        assert child.shape == (s.n,)
        assert child.min() >= 0 and child.max() < k
        scratch = _metrics_scratch(s, child, k, cons)
        assert goodness_key(tracked, cons) == goodness_key(scratch, cons)

    def test_mutations_are_seed_deterministic(self):
        g = graph_instance(seed=4)
        k = 3
        cons = constraints_for(g, k)
        eng = make_engine(g, k)
        a = _random_assign(g, k, seed=1)
        for op in (mutate_perturb, mutate_walk):
            c1, _ = op(eng, a, cons, seed=11)
            c2, _ = op(eng, a, cons, seed=11)
            assert np.array_equal(c1, c2)

    def test_perturb_frac_validation(self):
        g = graph_instance(seed=0)
        eng = make_engine(g, 2)
        with pytest.raises(PartitionError):
            mutate_perturb(eng, _random_assign(g, 2, seed=0),
                           ConstraintSpec(), seed=0, frac=0.0)


# --------------------------------------------------------------------- #
# evolve_partition: determinism, budgets, caching
# --------------------------------------------------------------------- #
SMALL = EvolveConfig(pop_size=4, generations=3, seed_max_cycles=1)


class TestEvolveDeterminism:
    @pytest.mark.parametrize("kind", ["graph", "hypergraph"])
    def test_serial_equals_parallel(self, kind):
        s = graph_instance() if kind == "graph" else hyper_instance()
        k = 3
        cons = constraints_for(s, k)
        r1 = evolve_partition(s, k, cons, SMALL, seed=42, cache=False)
        r2 = evolve_partition(
            s, k, cons, SMALL, seed=42, n_jobs=N_JOBS, cache=False
        )
        assert np.array_equal(r1.assign, r2.assign)
        assert r1.metrics == r2.metrics
        # the whole trajectory matches, not just the winner
        assert r1.info["history"] == r2.info["history"]
        info1 = {k_: v for k_, v in r1.info.items() if k_ != "history"}
        info2 = {k_: v for k_, v in r2.info.items() if k_ != "history"}
        assert info1 == info2

    def test_same_seed_same_result(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        r1 = evolve_partition(g, 3, cons, SMALL, seed=5, cache=False)
        r2 = evolve_partition(g, 3, cons, SMALL, seed=5, cache=False)
        assert np.array_equal(r1.assign, r2.assign)
        assert r1.info["history"] == r2.info["history"]

    def test_different_seeds_explore_differently(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        r1 = evolve_partition(g, 3, cons, SMALL, seed=5, cache=False)
        r2 = evolve_partition(g, 3, cons, SMALL, seed=6, cache=False)
        assert r1.info["history"] != r2.info["history"]


class TestEvolveBudgets:
    def test_generation_budget(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        r = evolve_partition(g, 3, cons, SMALL, seed=0, cache=False)
        assert r.info["generations"] == SMALL.generations
        assert len(r.info["history"]) == SMALL.generations
        assert r.info["stop"] == "generations"
        assert r.info["evals"] == SMALL.pop_size + sum(
            len(h["outcomes"]) for h in r.info["history"]
        )

    def test_eval_budget_truncates_last_generation(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        # 4 seeds + 2 offspring/gen; 7 evals ⇒ gen 0 full, gen 1 truncated to 1
        cfg = EvolveConfig(
            pop_size=4, generations=10, offspring_per_gen=2,
            max_evals=7, seed_max_cycles=1,
        )
        r = evolve_partition(g, 3, cons, cfg, seed=0, cache=False)
        assert r.info["evals"] == 7
        assert [len(h["outcomes"]) for h in r.info["history"]] == [2, 1]
        assert r.info["stop"] == "evals"

    def test_eval_budget_can_stop_before_any_generation(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        cfg = EvolveConfig(
            pop_size=4, generations=5, max_evals=2, seed_max_cycles=1
        )
        r = evolve_partition(g, 3, cons, cfg, seed=0, cache=False)
        assert r.info["seed_members"] == 2
        assert r.info["generations"] == 0
        assert r.info["stop"] == "evals"

    def test_time_budget_stops_at_generation_boundary(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        cfg = EvolveConfig(
            pop_size=4, generations=50, time_budget=1e-9, seed_max_cycles=1
        )
        r = evolve_partition(g, 3, cons, cfg, seed=0, cache=False)
        # the budget is below any seeding time, so no generation starts
        assert r.info["generations"] == 0
        assert r.info["stop"] == "time"

    def test_stagnation_injects_immigrants(self):
        g = graph_instance(n=24, m=40, seed=8)
        cons = ConstraintSpec()  # unconstrained: cut-0 optimum found at once
        cfg = EvolveConfig(
            pop_size=4, generations=6, stagnation_limit=2, seed_max_cycles=1
        )
        r = evolve_partition(g, 3, cons, cfg, seed=0, cache=False)
        assert r.info["restarts"] >= 1
        ops = [op for h in r.info["history"] for op, _ in h["outcomes"]]
        assert "immigrant" in ops

    def test_best_key_monotone_and_final(self):
        # replacement is monotone: the per-generation best key never rises,
        # and the returned result carries exactly the last best key
        g = graph_instance(seed=6)
        cons = constraints_for(g, 3, bmax=80.0)
        r = evolve_partition(g, 3, cons, SMALL, seed=3, cache=False)
        keys = [h["best_key"] for h in r.info["history"]]
        assert all(b <= a for a, b in zip(keys, keys[1:]))
        assert tuple(goodness_key(r.metrics, cons)) == keys[-1]

    def test_config_validation(self):
        with pytest.raises(PartitionError):
            EvolveConfig(pop_size=1)
        with pytest.raises(PartitionError):
            EvolveConfig(recombine_prob=1.5)
        with pytest.raises(PartitionError):
            EvolveConfig(max_evals=0)
        with pytest.raises(PartitionError):
            EvolveConfig(time_budget=0.0)
        with pytest.raises(PartitionError):
            EvolveConfig(on_infeasible="explode")

    def test_on_infeasible_raise(self):
        g = graph_instance()
        cons = ConstraintSpec(rmax=1.0)  # impossible
        cfg = EvolveConfig(
            pop_size=4, generations=1, seed_max_cycles=1, on_infeasible="raise"
        )
        with pytest.raises(InfeasibleError) as exc:
            evolve_partition(g, 3, cons, cfg, seed=0, cache=False)
        assert exc.value.best is not None
        assert not exc.value.best.feasible

    def test_k_validation(self):
        g = graph_instance()
        with pytest.raises(PartitionError):
            evolve_partition(g, 0, ConstraintSpec(), SMALL)
        with pytest.raises(PartitionError):
            evolve_partition(g, g.n + 1, ConstraintSpec(), SMALL)


class TestEvolveCache:
    def setup_method(self):
        memo_cache.clear()

    def teardown_method(self):
        memo_cache.clear()

    def test_hit_returns_equal_unaliased_copy(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        r1 = evolve_partition(g, 3, cons, SMALL, seed=1)
        assert "cache_hit" not in r1.info
        r2 = evolve_partition(g, 3, cons, SMALL, seed=1)
        assert r2.info["cache_hit"] is True
        assert np.array_equal(r1.assign, r2.assign)
        assert r2.assign is not r1.assign
        r2.assign[0] = (r2.assign[0] + 1) % 3
        r3 = evolve_partition(g, 3, cons, SMALL, seed=1)
        assert np.array_equal(r3.assign, r1.assign)

    def test_no_cache_forces_cold_run(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        evolve_partition(g, 3, cons, SMALL, seed=1)
        r = evolve_partition(g, 3, cons, SMALL, seed=1, cache=False)
        assert "cache_hit" not in r.info
        assert len(memo_cache) == 1  # cold run also didn't store

    def test_key_sensitivity(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        evolve_partition(g, 3, cons, SMALL, seed=1)
        evolve_partition(g, 3, cons, SMALL, seed=2)
        evolve_partition(g, 3, cons, SMALL.__class__(
            pop_size=4, generations=2, seed_max_cycles=1), seed=1)
        assert len(memo_cache) == 3

    def test_generator_seed_not_cached(self):
        g = graph_instance()
        cons = constraints_for(g, 3)
        rng = np.random.default_rng(0)
        evolve_partition(g, 3, cons, SMALL, seed=rng)
        assert len(memo_cache) == 0


# --------------------------------------------------------------------- #
# wiring: core.api + CLI
# --------------------------------------------------------------------- #
class TestWiring:
    def setup_method(self):
        memo_cache.clear()

    def teardown_method(self):
        memo_cache.clear()

    def test_partition_graph_method_evolve(self):
        from repro.core.api import partition_graph

        g = graph_instance()
        r = partition_graph(
            g, 3, rmax=constraints_for(g, 3).rmax,
            method="evolve", seed=1, config=SMALL,
        )
        assert r.algorithm == "EA"
        assert r.info["model"] == "graph"

    def test_partition_graph_rejects_wrong_config_and_knobs(self):
        from repro.core.api import partition_graph
        from repro.partition.gp import GPConfig

        g = graph_instance()
        with pytest.raises(PartitionError):
            partition_graph(g, 3, method="evolve", config=GPConfig())
        with pytest.raises(PartitionError):
            partition_graph(g, 3, method="mlkp", config=SMALL)

    def test_partition_ppn_evolve_both_models(self):
        from repro.core.api import partition_ppn
        from repro.polyhedral.gallery import lu

        prog = lu(6)
        for model, expect in (("graph", "EA"), ("hypergraph", "EA-hyper")):
            res, structure, names = partition_ppn(
                prog, 2, method="evolve", model=model, seed=0, config=SMALL,
            )
            assert res.algorithm == expect
            assert structure.n == len(names)

    def test_cli_evolve_graph(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import graph_to_json

        g = graph_instance()
        p = tmp_path / "g.json"
        p.write_text(graph_to_json(g))
        rc = main([
            "partition", "--input", str(p), "--k", "3",
            "--rmax", str(constraints_for(g, 3).rmax),
            "--method", "evolve", "--generations", "2", "--pop-size", "4",
            "--seed", "1", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "EA" in out

    def test_cli_evolve_flags_rejected_for_other_methods(self, tmp_path,
                                                         capsys):
        from repro.cli import main
        from repro.graph.io import graph_to_json

        p = tmp_path / "g.json"
        p.write_text(graph_to_json(graph_instance()))
        # zero is falsy but still "given" — it must be rejected for
        # non-evolve methods, not silently dropped: by the library's config
        # check, or by EvolveConfig's own when zero is no valid budget
        for flag, names in (
            (["--generations", "2"], "EvolveConfig"),
            (["--pop-size", "4"], "EvolveConfig"),
            (["--time-budget", "1"], "EvolveConfig"),
            (["--generations", "0"], "EvolveConfig"),
            (["--pop-size", "0"], "pop_size"),
            (["--time-budget", "0"], "time_budget"),
        ):
            rc = main(["partition", "--input", str(p), "--k", "3",
                       "--method", "gp", *flag])
            assert rc == 1
            assert names in capsys.readouterr().err

    def test_cli_cache_subcommand(self, capsys):
        from repro.cli import main

        g = graph_instance()
        evolve_partition(g, 3, constraints_for(g, 3), SMALL, seed=9)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "memo: size=1" in out
        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert "memo: size=0" in out

    def test_cli_evolve_hypergraph_model(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.metisio import save_hmetis

        hg = hyper_instance()
        p = tmp_path / "h.hgr"
        save_hmetis(hg, p)
        rc = main([
            "partition", "--input", str(p), "--k", "3",
            "--rmax", str(constraints_for(hg, 3).rmax),
            "--model", "hypergraph", "--method", "evolve",
            "--generations", "2", "--pop-size", "4", "--seed", "0",
            "--no-cache",
        ])
        assert rc == 0
        assert "EA-hyper" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# engine adapter edges
# --------------------------------------------------------------------- #
class TestEngineAdapters:
    def test_make_engine_dispatch_and_rejection(self):
        g = graph_instance()
        hg = hyper_instance()
        assert make_engine(g, 2).kind == "graph"
        assert make_engine(hg, 2).kind == "hypergraph"
        with pytest.raises(PartitionError):
            make_engine([1, 2, 3], 2)

    def test_hgraph_digest_matches_equality(self):
        h1 = hyper_instance(seed=3)
        h2 = multicast_network(40, seed=3, fanout=5)
        h3 = hyper_instance(seed=4)
        assert h1 == h2
        assert h1.content_digest() == h2.content_digest()
        assert h1.content_digest() != h3.content_digest()

    def test_hgraph_digest_sees_roots(self):
        a = HGraph(3, [((0, 1, 2), 2.0)])
        b = HGraph(3, [((1, 0, 2), 2.0)])
        assert a != b  # roots differ
        assert a.content_digest() != b.content_digest()

    def test_graph_digest_reused(self):
        g = graph_instance()
        eng = make_engine(g, 2)
        assert eng.digest() == g.content_digest()
