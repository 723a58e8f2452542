#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, the concurrency suites
# (thread pool, event queue, metrics shards) again under ThreadSanitizer,
# the obs/metrics suites under UBSan, the wire fuzz corpus under ASan,
# a bench-artifact run validated against scripts/bench_schema.json, and
# the repository benchmark's smoke test.
#
#   scripts/tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> tier-1: build + ctest (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "==> tier-1: bench artifact (build/) -- DSDN_BENCH_JSON schema check"
ARTIFACT_DIR="build/bench-artifacts"
rm -rf "${ARTIFACT_DIR}"
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_fig08_convergence_components >/dev/null
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_fig09_b2_convergence >/dev/null
# Dataplane pps smoke: short phase 1, a couple of churn cycles; the bench
# exits nonzero on any forwarding invariant violation (loops, unknown
# labels, quiesced hard drops).
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_dataplane_pps --seconds=0.5 --churn=2 >/dev/null
# Sharding ablation (flows exposed / NSU fan-out by K) artifact.
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_ablation_sharding >/dev/null
# Hierarchical scale smoke: the bench exits nonzero when the >= 5x
# speedup / <= 10% gap gate or the 1/K plane-containment bar fails.
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_hier_scale >/dev/null
# Closed-loop online TE: controllers steer on estimated demand while
# the oracle drifts; exits nonzero on any invariant violation or when
# the hybrid policy misses the <= 10% regret / <= 25% recompute gate.
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_online_te >/dev/null
# SR-vs-strict trade: exits nonzero when segment stacks exceed 3 labels,
# SR route/FIB state is not below strict MPLS, or the SrSolver placement
# gap exceeds 10% on the fig 8/15 workloads.
DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
  ./build/bench/bench_sr_trade >/dev/null
python3 scripts/validate_bench_json.py "${ARTIFACT_DIR}"/BENCH_*.json

echo "==> tier-1: repository benchmark smoke test (.bench_build/) -- Abilene scale"
# Builds perfbench on first use, then runs every workload for 2 s,
# untraced and traced; fails on a nonzero error rate or a metric
# missing from BENCHMARK.json.
python3 perfbench/tests/smoke_test.py

echo "==> tier-1: perf regression (warn-only) -- fig13 cold medians vs baseline"
DSDN_BENCH_JSON="${ARTIFACT_DIR}" ./build/bench/bench_fig13_cores >/dev/null
python3 scripts/validate_bench_json.py \
  "${ARTIFACT_DIR}"/BENCH_fig13_cores.json \
  --baseline scripts/bench_baselines/BENCH_fig13_cores.json \
  --regress cold_median_batch_s,tcomp_8thread_best_s

echo "==> tier-1: perf regression (warn-only) -- hier solve time + gap vs baseline"
python3 scripts/validate_bench_json.py \
  "${ARTIFACT_DIR}"/BENCH_hier_scale.json \
  --baseline scripts/bench_baselines/BENCH_hier_scale.json \
  --regress hier_solve_s,gap_fraction

echo "==> tier-1: perf regression (warn-only) -- online TE regret vs baseline"
python3 scripts/validate_bench_json.py \
  "${ARTIFACT_DIR}"/BENCH_online_te.json \
  --baseline scripts/bench_baselines/BENCH_online_te.json \
  --regress abilene_hybrid_regret_fraction,abilene_hybrid_bad_seconds

echo "==> tier-1: perf regression (warn-only) -- SR trade vs baseline"
python3 scripts/validate_bench_json.py \
  "${ARTIFACT_DIR}"/BENCH_sr_trade.json \
  --baseline scripts/bench_baselines/BENCH_sr_trade.json \
  --regress worst_gap_fraction,worst_fib_entries_ratio

echo "==> tier-1: TSan build (build-tsan/) -- concurrency suites + batched dataplane"
cmake -B build-tsan -S . -DDSDN_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" --target test_parallel test_sim test_obs \
  test_dataplane test_batch_pipeline test_batch_solver
(cd build-tsan && ctest --output-on-failure \
  -R '^(test_parallel|test_sim|test_obs|test_dataplane|test_batch_pipeline|test_batch_solver)$')

echo "==> tier-1: UBSan build (build-ubsan/) -- test_obs + test_metrics"
cmake -B build-ubsan -S . -DDSDN_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "${JOBS}" --target test_obs test_metrics
(cd build-ubsan && ctest --output-on-failure -R '^(test_obs|test_metrics)$')

echo "==> tier-1: ASan build (build-asan/) -- wire fuzz corpus + fault injection"
cmake -B build-asan -S . -DDSDN_SANITIZE=address -DDSDN_FUZZ=ON >/dev/null
cmake --build build-asan -j "${JOBS}" --target fuzz_wire test_wire test_fault_injection
./build-asan/fuzz/fuzz_wire -max_total_time=30 tests/corpus/wire
(cd build-asan && ctest --output-on-failure -R '^(test_wire|test_fault_injection)$')

echo "==> tier-1: ASan dataplane -- batched pipeline + sublabel bounds"
cmake --build build-asan -j "${JOBS}" --target test_batch_pipeline test_sublabel
(cd build-asan && ctest --output-on-failure -R '^(test_batch_pipeline|test_sublabel)$')

echo "==> tier-1: ASan differential check -- incremental TE, batch + SR solver parity"
# test_segment_routing: the SR solver's per-solve memos hand out
# references into hash-map nodes; ASan catches a dangling one.
cmake --build build-asan -j "${JOBS}" --target test_incremental \
  test_batch_solver test_segment_routing
(cd build-asan && ctest --output-on-failure \
  -R '^(test_incremental|test_batch_solver|test_segment_routing)$')

echo "==> tier-1: scenario seed swarm (build/) -- 32 seeds, invariants each event"
# Bounded ~60 s: 28 Abilene histories (24 events each, lossy flooding)
# plus 2 B4-like and 2 B2-small histories. scripts/scenario_swarm.sh
# runs the full-size sweeps.
cmake --build build -j "${JOBS}" --target scenario_swarm
./build/tests/scenario_swarm --topo abilene --seeds 28 --lossy
./build/tests/scenario_swarm --topo b4 --seeds 2
./build/tests/scenario_swarm --topo b2small --seeds 2

echo "==> tier-1: mixed SR/strict fleet swarm (build/) -- 29 seeds, invariants each event"
# Deterministic mixed fleet (SR majority + strict TE + shortest-path
# members): every event re-checks loop-freedom, delivery, conservation,
# and per-view placement agreement with segment stacks in play.
./build/tests/scenario_swarm --topo abilene --seeds 23 --sr
./build/tests/scenario_swarm --topo b4 --seeds 6 --sr

echo "==> tier-1: hierarchical plane swarm (build/) -- cuts, SRLGs, crash/rebalance"
# Full checker battery (solution parity on): per-plane invariants plus
# cross-plane conservation, HRW placement agreement, and blast radius.
./build/tests/scenario_swarm --topo abilene --planes 3 --seeds 24
./build/tests/scenario_swarm --topo b4 --planes 4 --seeds 2

echo "==> tier-1: closed-loop online TE swarm (build/) -- estimated demand only"
# 10 Abilene seeds x 64 epochs of diurnal + flash-crowd drift + churn,
# hybrid recompute policy, invariant suite sampled every 16 epochs.
./build/tests/scenario_swarm --topo abilene --closed-loop --seeds 10

echo "==> tier-1: ASan scenario swarm (build-asan/) -- lossy churn under ASan"
cmake --build build-asan -j "${JOBS}" --target scenario_swarm
./build-asan/tests/scenario_swarm --topo abilene --seeds 4 --lossy

echo "==> tier-1: all green"
