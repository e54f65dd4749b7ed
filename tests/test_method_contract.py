"""The method contract of ``partition_graph``, method by knob.

One table in :mod:`repro.core.api` (``METHODS`` names its rows) says which
structure each method runs on — a graph, a graph with vector budgets
(``resources=``) or a hypergraph — and which config class it takes.
Everything else follows from it, and these tests pin that for every row:

* the execution knobs ``n_jobs=2`` and ``cache=False`` are taken by every
  method on every structure it runs on, and change nothing — the result
  equals the default call's bit for bit;
* what a method cannot honour raises a :class:`PartitionError` naming
  the knob: a config of another class, any config or ``refine=`` /
  ``conn_format=`` on a method without a refinement engine,
  ``resources=`` on a method without vector budgets, an ``HGraph`` on a
  graph-only method;
* the CLI rejects the same things with the library's message and exit
  code 1, in process (``repro.cli.main``) and as ``python -m repro``.
"""

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.api import METHODS, partition_graph
from repro.evolve.ea import EvolveConfig
from repro.graph.generators import paper_graph, random_process_network
from repro.graph.io import graph_to_json
from repro.hypergraph.hgraph import HGraph
from repro.partition.gp import GPConfig
from repro.partition.mlkp import MLKP_CONFIG
from repro.util.errors import InfeasibleError, PartitionError, ReproError
from repro.util.parallel import memo_cache

SRC = str(Path(__file__).resolve().parent.parent / "src")

G = random_process_network(12, 26, seed=3)
W = np.random.default_rng(3).integers(1, 9, size=(G.n, 2)).astype(float)
K = 2
#: structure name -> the keyword arguments that select it
STRUCTURES = {
    "graph": dict(g=G, rmax=400.0),
    "vector": dict(g=G, resources=W, rmax=(40.0, 40.0)),
    "hypergraph": dict(g=HGraph.from_wgraph(G), rmax=400.0),
}
#: the structures each method runs on (the table, restated as the spec)
RUNS_ON = {
    "gp": ("graph", "vector", "hypergraph"),
    "mlkp": ("graph",),
    "spectral": ("graph",),
    "exact": ("graph",),
    "evolve": ("graph", "vector", "hypergraph"),
}
#: a small budget so evolve's calls stay cheap; the other methods run as
#: the table's default
CONFIGS = {"evolve": EvolveConfig(generations=2, pop_size=4)}
CONFIG_LESS = ("spectral", "exact")
GRAPH_ONLY = ("mlkp", *CONFIG_LESS)


def _call(method, structure, **knobs):
    kw = dict(STRUCTURES[structure])
    g = kw.pop("g")
    memo_cache.clear()  # every call computes: no knob can hide behind a hit
    return partition_graph(
        g, K, method=method, seed=0, config=CONFIGS.get(method), **kw,
        **knobs,
    )


def test_the_table_is_the_spec():
    assert METHODS == tuple(RUNS_ON)
    assert "hyper" not in METHODS


@pytest.mark.parametrize("knob", [{"n_jobs": 2}, {"cache": False}],
                         ids=["n_jobs=2", "cache=False"])
@pytest.mark.parametrize(
    "method,structure",
    [(m, s) for m, structures in RUNS_ON.items() for s in structures],
)
def test_execution_knobs_change_nothing(method, structure, knob):
    base = _call(method, structure)
    got = _call(method, structure, **knob)
    np.testing.assert_array_equal(got.assign, base.assign)
    assert got.metrics == base.metrics
    assert got.algorithm == base.algorithm


@pytest.mark.parametrize("method", METHODS)
def test_n_jobs_zero_rejected_everywhere(method):
    with pytest.raises(ReproError, match="n_jobs"):
        _call(method, "graph", n_jobs=0)


def test_hyper_is_an_unknown_method():
    with pytest.raises(PartitionError, match="unknown method 'hyper'"):
        partition_graph(G, K, method="hyper")


def _rejections():
    """(method, structure, extra kwargs, text the message must name)."""
    cases = [
        ("gp", "graph", {"config": EvolveConfig()}, "config"),
        ("evolve", "graph", {"config": GPConfig()}, "config"),
    ]
    for m in GRAPH_ONLY:
        cases += [
            (m, "graph", {"config": EvolveConfig()}, "config"),
            (m, "vector", {}, "resources="),
            (m, "hypergraph", {}, "HGraph"),
        ]
    for m in CONFIG_LESS:
        cases += [
            (m, "graph", {"config": GPConfig(refine="fm+flow")}, "config"),
            (m, "graph", {"refine": "fm+flow"}, "refine="),
            (m, "graph", {"refine": "fm"}, "refine="),
            (m, "graph", {"conn_format": "dense"}, "conn_format="),
        ]
    return cases


@pytest.mark.parametrize("method,structure,extra,names", _rejections())
def test_unsupported_knob_rejected_by_name(method, structure, extra, names):
    kw = dict(STRUCTURES[structure])
    g = kw.pop("g")
    with pytest.raises(PartitionError) as err:
        partition_graph(g, K, method=method, seed=0, **kw, **extra)
    assert names in str(err.value)
    assert repr(method) in str(err.value)


def test_config_reaches_mlkp():
    # the depth-1 instance of test_mlkp_pinned: fm+flow cuts 67, fm 93
    g = random_process_network(16, 30, seed=1, node_weight_range=(1, 9))
    kw = dict(method="mlkp", seed=3, bmax=40.0,
              rmax=float(round(1.15 * g.total_node_weight / 4)))
    cuts = {
        refine: partition_graph(
            g, 4, config=replace(MLKP_CONFIG, refine=refine), **kw
        ).cut
        for refine in ("fm", "fm+flow")
    }
    assert cuts == {"fm": 93.0, "fm+flow": 67.0}
    # the knob and the config field are one setting
    assert partition_graph(g, 4, refine="fm+flow", **kw).cut == 67.0


def test_mlkp_raises_when_the_audit_fails():
    # paper experiment 1: MLKP violates both caps (Table I)
    g, spec = paper_graph(1)
    kw = dict(method="mlkp", seed=0, bmax=spec.bmax, rmax=spec.rmax)
    assert not partition_graph(g, spec.k, **kw).feasible
    with pytest.raises(InfeasibleError) as err:
        partition_graph(
            g, spec.k, config=replace(MLKP_CONFIG, on_infeasible="raise"),
            **kw,
        )
    assert err.value.best.algorithm == "MLKP"
    msg = str(err.value)
    assert "MLKP result failed the audit of" in msg
    assert f"Bmax={spec.bmax}" in msg and f"Rmax={spec.rmax}" in msg
    assert "cycles" not in msg and "more iterations" not in msg


# ---------------------------------------------------------------- CLI --

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    (d / "g.json").write_text(graph_to_json(G))
    (d / "r.json").write_text(json.dumps(W.tolist()))
    return d


def _cli_cases():
    """(argv tail, the library call it forwards to)."""
    cases = [
        (["--method", "gp", "--generations", "2"],
         dict(method="gp", config=EvolveConfig(generations=2))),
    ]
    for m in GRAPH_ONLY:
        cases += [
            (["--method", m, "--pop-size", "4"],
             dict(method=m, config=EvolveConfig(pop_size=4))),
            (["--method", m, "--resources", "{r}", "--rmax", "40,40"],
             dict(method=m, resources=W, rmax=(40.0, 40.0))),
            (["--method", m, "--model", "hypergraph"],
             dict(method=m, g=STRUCTURES["hypergraph"]["g"])),
        ]
    for m in CONFIG_LESS:
        cases += [
            (["--method", m, "--refine", "fm+flow"],
             dict(method=m, refine="fm+flow")),
            (["--method", m, "--conn-format", "sparse"],
             dict(method=m, conn_format="sparse")),
        ]
    return cases


@pytest.mark.parametrize(
    "tail,call", _cli_cases(), ids=[" ".join(t) for t, _ in _cli_cases()]
)
def test_cli_rejects_with_the_library_message(files, tail, call):
    call = dict(call)
    with pytest.raises(PartitionError) as err:
        partition_graph(call.pop("g", G), K, seed=0, **call)
    expected = (1, f"error: {err.value}")
    argv = ["partition", "--input", str(files / "g.json"), "--k", str(K),
            *(a.format(r=files / "r.json") for a in tail)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert (code, stderr.getvalue().strip()) == expected
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
    )
    assert (proc.returncode, proc.stderr.strip()) == expected


def test_cli_method_choices_are_the_table():
    from repro.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    method = next(
        a for a in sub.choices["partition"]._actions if a.dest == "method"
    )
    assert tuple(method.choices) == METHODS
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        with pytest.raises(SystemExit) as exit_:
            main(["partition", "--input", "x", "--k", "2", "--method", "hyper"])
    assert exit_.value.code == 2
    assert "invalid choice: 'hyper'" in stderr.getvalue()


def test_cli_accepts_execution_knobs_on_every_method(files, tmp_path):
    # --jobs and --no-cache are honoured (as no-ops where nothing races or
    # is memoised): the assignment equals the plain run's
    for m in METHODS:
        extra = ["--generations", "2", "--pop-size", "4"] if m == "evolve" else []
        outs = []
        for knobs in ([], ["--jobs", "2"], ["--no-cache"]):
            out = tmp_path / f"{m}{len(outs)}.json"
            argv = ["partition", "--input", str(files / "g.json"), "--k",
                    str(K), "--rmax", "400", "--method", m, *extra, *knobs,
                    "--assign-out", str(out)]
            memo_cache.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) in (0, 2)
            outs.append(json.loads(out.read_text())["assign"])
        assert outs[0] == outs[1] == outs[2], m
