#!/usr/bin/env bash
# CI entry point — no Makefile/tox required.
#
# Stage 1 is the tier-1 contract verbatim (fast tests + everything else);
# stage 2 re-runs the perf smoke tests alone (graph engine + hypergraph Φ
# engine, both slow-marked) so timing regressions are reported separately
# from functional failures and can't hide behind -x; stage 3 re-runs the
# hypergraph subsystem suite explicitly — structure, Φ invariants, the
# degree-local move evaluator against brute force, and the 2-pin
# differential corpus — so a connectivity-engine regression is named
# in the CI log even when stage 1 already caught it; stage 4 re-runs the
# parallel-execution differential suite with real worker processes
# (REPRO_TEST_JOBS=2: parallel==serial bit-identity for every
# parallel_map submit shape and for the partitioners, cache behaviour,
# vectorized-vs-legacy coarsening, the multilevel driver corpus on all
# three engines, the pinned MLKP rows on the same driver, and the pinned
# portfolio corpus: a seeding-only evolve run must reproduce the former
# portfolio_partition's assignments at n_jobs 1 and 2) so a
# determinism break is named even
# when stage 1 already caught it, plus the X8 V-cycle ablation on the
# graph, hypergraph and vector engines (gated: 2 V-cycles never worse
# than 0 in goodness at the same seed; artefact x8_vcycle_ablation.txt)
# and the X11 driver (gated: the raced seeding equals the serial one,
# races >= 2x faster where 4 CPUs exist, and 10k-node coarsening is
# >= 5x faster than the frozen per-edge reference in
# benchmarks/_legacy_coarsen.py; artefact x11_parallel_portfolio.txt);
# stage 5 runs the evolutionary-search suite with real workers plus the
# X12 equal-budget smoke benchmark (evolve vs restart-only GP vs the
# portfolio, a seeding-only evolve run, on LU + multicast synthetics; the gated asserts fail the
# stage if the EA ever loses to GP; artefact x12_evolve_quality.txt);
# stage 6 runs the vector-resource engine suites with real workers
# (REPRO_TEST_JOBS=2 for the mr_gp/evolve serial==parallel bit-identity
# tests) — the seam FM differential against the frozen
# benchmarks/_legacy_multires.py corpus and the (k, R) load-matrix
# invariants — plus the X13 engine-unification smoke benchmark (gated:
# FM speedup, feasibility parity, evolve never losing to restart-only
# vector GP; artefact x13_multires_engine.txt);
# stage 7 runs the serving-subsystem suites (disk cache + serve) and the
# live-daemon smoke (scripts/serve_smoke.py): a real `repro serve`
# subprocess on an ephemeral port must collapse two concurrent identical
# requests into one compute (single-flight), serve bit-identically to the
# direct partition_graph call, answer digest-only from the persistent
# store after a restart, and shut down cleanly on POST /shutdown;
# stage 8 runs the observability suite and the profiling smoke
# (scripts/profile_smoke.py): a profiled `repro partition --profile
# --trace-out` must emit a schema-valid Chrome trace with the per-level
# pipeline spans, `repro profile` must summarise it, and a live daemon's
# /metrics must expose the library-level fm./cache./pool. series;
# stage 9 runs the flow-refinement suites with real workers (the
# max-flow solver pinned against brute-force min-cut enumeration, the
# corridor/never-worse/cross-engine invariants, and the fm+flow
# serial==parallel bit-identity) plus the X14 equal-budget smoke
# benchmark (gated: fm+flow never worse than fm anywhere, strictly
# better somewhere; artefact x14_flow_quality.txt);
# stage 10 exercises the benchmark telemetry gate end to end: `repro
# bench --suite smoke` must write a schema-valid BENCH JSON artifact,
# comparing the run against its own artifact must pass, and comparing
# against a copy with a +25% injected runtime regression must exit 3
# (the gate actually trips, not just runs);
# stage 11 runs the million-node-scale track: first the connectivity
# store suite (tests/test_conn_store.py — sparse/dense parity, including
# sparse moves through hubs, zero-weight edges and emptied parts), so a
# store-parity failure shows up here by name; then `repro bench --suite
# x15_scale`: the sparse connectivity store at k=64 — the dense/sparse
# footprint ratio is gated (a shrinking ratio past the band exits 3),
# exercised exactly like stage 10 with a perturbed-copy trip check;
# stage 12 runs the repository benchmark's batch workloads (ring1500,
# tight400, multicast120; perfbench/run.py, 5 s each, untraced and
# traced): each run recomputes every cut and violation independently and
# checks that repeated calls return identical answers, and the stage
# fails unless the result line reports "correct": true and "failed": 0.
# A traced run also fails when a layer it wraps records no call, so a
# renamed or bypassed layer entry point (a refinement state, an FM
# driver) fails here, not only in the benchmark.
#
# Before stage 1 the script prints the src code-line count
# (scripts/code_lines.py: docstrings, comments and blank lines excluded),
# the figure ROADMAP.md tracks for deletions.
#
# Every artefact a stage writes (the benchmark drivers' tables and BENCH
# JSONs, the stage-10/11 suite runs and their perturbed copies) goes to a
# temporary directory that is removed on exit, so a CI run leaves the
# tracked files under benchmarks/artifacts/ as they are.
#
# Usage: scripts/ci.sh [extra pytest args passed to stage 1]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

ART="$(mktemp -d)"
trap 'rm -rf "$ART"' EXIT

echo "== src code lines: $(python scripts/code_lines.py) =="

echo "== stage 1: tier-1 test suite =="
python -m pytest -x -q "$@"

echo "== stage 2: perf smoke (slow marker) =="
python -m pytest -q -m slow

echo "== stage 3: hypergraph subsystem suite =="
python -m pytest -q \
  tests/test_hypergraph.py \
  tests/test_hyper_refine_invariants.py \
  tests/test_hyper_evaluator.py \
  tests/test_hyper_differential.py

echo "== stage 4: parallel differential suite (n_jobs=2) =="
REPRO_TEST_JOBS=2 python -m pytest -q \
  tests/test_parallel_portfolio.py \
  tests/test_coarsen_vectorized.py \
  tests/test_multilevel.py \
  "tests/test_partition_algorithms.py::test_mlkp_pinned"
python -m pytest -q benchmarks/bench_ablation_vcycle.py \
  benchmarks/bench_parallel_portfolio.py --artifacts-dir "$ART"

echo "== stage 5: evolutionary search suite + equal-budget smoke =="
REPRO_TEST_JOBS=2 python -m pytest -q \
  tests/test_evolve.py \
  tests/test_rng_properties.py \
  tests/test_cli_parity.py
python -m pytest -q benchmarks/bench_evolve.py --artifacts-dir "$ART"

echo "== stage 6: vector-resource engine suite (n_jobs=2) =="
REPRO_TEST_JOBS=2 python -m pytest -q \
  tests/test_multires.py \
  tests/test_multires_differential.py \
  tests/test_multires_invariants.py
python -m pytest -q benchmarks/bench_multires_engine.py --artifacts-dir "$ART"

echo "== stage 7: serving subsystem + live-daemon smoke =="
python -m pytest -q \
  tests/test_diskcache.py \
  tests/test_serve.py
python scripts/serve_smoke.py

echo "== stage 8: observability suite + profiling smoke =="
REPRO_TEST_JOBS=2 python -m pytest -q tests/test_obs.py
python scripts/profile_smoke.py

echo "== stage 9: flow refinement suite + equal-budget smoke =="
REPRO_TEST_JOBS=2 python -m pytest -q \
  tests/test_flow_core.py \
  tests/test_flow_refine.py
python -m pytest -q benchmarks/bench_flow_refine.py --artifacts-dir "$ART"

echo "== stage 10: benchmark telemetry + regression gate =="
python -m repro bench --suite smoke --out "$ART/BENCH_smoke.json"
ART="$ART" python - <<'EOF'
import json, os, sys

from repro.obs.benchdb import load_bench

# re-validate the artifact the bench run just wrote, then derive a
# perturbed copy: every timing metric 25% slower must trip the 15% band
art = os.environ["ART"]
doc = load_bench(f"{art}/BENCH_smoke.json")
bad = json.loads(json.dumps(doc))
slowed = 0
for m in bad["metrics"]:
    if m["unit"] == "s":
        m["value"] *= 1.25
        slowed += 1
if not slowed:
    sys.exit("smoke suite has no timing metrics to perturb")
with open(f"{art}/BENCH_smoke_perturbed.json", "w") as fh:
    json.dump(bad, fh)
print(f"validated BENCH_smoke.json; perturbed {slowed} timing metrics")
EOF
# identical comparison must pass ...
python -m repro bench --compare "$ART/BENCH_smoke.json" \
  --current "$ART/BENCH_smoke.json"
# ... and the injected regression must trip the gate (exit 3)
if python -m repro bench --compare "$ART/BENCH_smoke.json" \
     --current "$ART/BENCH_smoke_perturbed.json"; then
  echo "regression gate FAILED to trip on a 25% injected slowdown" >&2
  exit 1
else
  rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "regression gate exited $rc, expected 3" >&2
    exit 1
  fi
fi
echo "regression gate trips correctly"

echo "== stage 11: million-node-scale track (sparse conn engine) =="
python -m pytest -q tests/test_conn_store.py
python -m repro bench --suite x15_scale --out "$ART/BENCH_x15_scale.json"
ART="$ART" python - <<'PYEOF'
import json, os, sys

from repro.obs.benchdb import load_bench

# validate the artifact, check the footprint ratio actually reports the
# sparse win, then derive a perturbed copy: timings 25% slower AND the
# dense/sparse ratio 30% smaller must both trip the gate
art = os.environ["ART"]
doc = load_bench(f"{art}/BENCH_x15_scale.json")
by_name = {m["name"]: m for m in doc["metrics"]}
ratio = by_name["x15.conn_ratio"]["value"]
if ratio < 4.0:
    sys.exit(f"sparse store only {ratio:.1f}x below dense at k=64 "
             "(expected well above 4x on the bounded-degree instance)")
bad = json.loads(json.dumps(doc))
slowed = 0
for m in bad["metrics"]:
    if m["unit"] == "s":
        m["value"] *= 1.25
        slowed += 1
    if m["name"] == "x15.conn_ratio":
        m["value"] *= 0.70
if not slowed:
    sys.exit("x15_scale suite has no timing metrics to perturb")
with open(f"{art}/BENCH_x15_scale_perturbed.json", "w") as fh:
    json.dump(bad, fh)
print(f"validated BENCH_x15_scale.json (ratio {ratio:.1f}x); "
      f"perturbed {slowed} timing metrics + the footprint ratio")
PYEOF
# identical comparison must pass ...
python -m repro bench --compare "$ART/BENCH_x15_scale.json" \
  --current "$ART/BENCH_x15_scale.json"
# ... and the injected regression must trip the gate (exit 3)
if python -m repro bench --compare "$ART/BENCH_x15_scale.json" \
     --current "$ART/BENCH_x15_scale_perturbed.json"; then
  echo "x15 regression gate FAILED to trip on the injected regression" >&2
  exit 1
else
  rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "x15 regression gate exited $rc, expected 3" >&2
    exit 1
  fi
fi
echo "x15 scale gate trips correctly"

echo "== stage 12: repository benchmark correctness (batch workloads) =="
for w in ring1500 tight400 multicast120; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$w" --seed 0 --seconds 5 \
      --trace "$trace" \
      | tail -n 1 \
      | python -c '
import json, sys
w, trace = sys.argv[1], sys.argv[2]
doc = json.loads(sys.stdin.read())
correct, failed = doc.get("correct"), doc.get("failed")
if correct is not True or failed != 0:
    sys.exit(f"perfbench {w} --trace {trace}: correct={correct} failed={failed}")
print(f"perfbench {w} --trace {trace}: correct, 0 failed")
' "$w" "$trace"
  done
done

echo "CI OK"
