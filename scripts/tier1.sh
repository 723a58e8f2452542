#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, every example run end to
# end, the concurrency suites (thread pool, event queue, metrics shards,
# plane runtime) again under ThreadSanitizer, the obs/metrics,
# dataplane/topology and batch-solver suites under UBSan, the strict and
# SR golden placements from an -O3 -march=native build, the wire fuzz
# corpus and the dataplane suites under ASan, bench-artifact runs
# validated against scripts/bench_schema.json, and the repository
# benchmark's smoke test.
#
# Every leg runs even when an earlier one fails; the script exits
# nonzero at the end and names each failed leg.
#
#   scripts/tier1.sh [jobs]
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
ARTIFACT_DIR="build/bench-artifacts"

FAILED_LEGS=()
# leg <name> <function>: runs the function in a subshell under `set -e`
# and records the leg as failed if any command in it fails.
leg() {
  local name="$1"
  shift
  echo "==> tier-1: ${name}"
  ( set -e; "$@" )
  local rc=$?
  if [[ ${rc} -ne 0 ]]; then
    echo "!! tier-1: FAILED (exit ${rc}): ${name}"
    FAILED_LEGS+=("${name}")
  fi
}

build_and_ctest() {
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"
  (cd build && ctest --output-on-failure -j "${JOBS}")
}

# Runs each example once; any nonzero exit fails the leg.
run_examples() {
  local name
  for name in quickstart wan_failover sublabel_routing te_explorer \
      frr_strategies incremental_deployment; do
    echo "--- example_${name}"
    ./build/examples/"example_${name}" >/dev/null
  done
}

figure_artifacts() {
  rm -rf "${ARTIFACT_DIR}"
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
    ./build/bench/bench_fig08_convergence_components >/dev/null
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
    ./build/bench/bench_fig09_b2_convergence >/dev/null
  # The transient (Fig 12), cSDN programming (Fig 19), FRR (Table 2) and
  # IS-IS per-hop (consensus ablation) models, each to a zero exit. Fig
  # 10, 11 and 20 run the transient model for 19-35 s each and stay out.
  ./build/bench/bench_fig12_timeline >/dev/null
  ./build/bench/bench_fig19_programming_tail >/dev/null
  ./build/bench/bench_table2_frr >/dev/null
  ./build/bench/bench_ablation_consensus >/dev/null
  # Dataplane pps smoke: short phase 1, a couple of churn cycles; the
  # bench exits nonzero on any forwarding invariant violation (loops,
  # unknown labels, quiesced hard drops).
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
    ./build/bench/bench_dataplane_pps --seconds=0.5 --churn=2 >/dev/null
}

# Sharding ablation on hier::PlaneRuntime: exits nonzero when K > 1
# planes expose more than 1/K + 5% of flows to a plane-local cut or
# disturb more than one plane per event.
sharding_ablation() {
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
    ./build/bench/bench_ablation_sharding >/dev/null
}

# Plane containment (bench_hier_scale): exits nonzero when failing one of
# K=4 planes exposes 1/K + 5% of flows or more, a rebalance scores hard
# drops, or the seeded plane swarm finds an invariant violation; prints
# the verdict line.
plane_containment() {
  local rc=0
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" ./build/bench/bench_hier_scale \
    >build/bench_hier_scale.log || rc=$?
  grep -E '^containment:' build/bench_hier_scale.log || true
  return "${rc}"
}

# Closed-loop online TE: controllers steer on estimated demand while the
# oracle drifts; exits nonzero on any invariant violation or when the
# hybrid policy misses the <= 10% regret / <= 25% recompute gate.
online_te() {
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
    ./build/bench/bench_online_te >/dev/null
}

# SR-vs-strict trade: exits nonzero when segment stacks exceed 3 labels,
# SR route/FIB state is not below strict MPLS, or the SrSolver placement
# gap exceeds 10% on the fig 8/15 workloads.
sr_trade() {
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" \
    ./build/bench/bench_sr_trade >/dev/null
}

schema_check() {
  python3 scripts/validate_bench_json.py "${ARTIFACT_DIR}"/BENCH_*.json
}

# Builds perfbench on first use, then runs every workload for 2 s,
# untraced and traced; fails on a nonzero error rate or a metric missing
# from BENCHMARK.json.
perfbench_smoke() {
  python3 perfbench/tests/smoke_test.py
}

fig13_regression() {
  DSDN_BENCH_JSON="${ARTIFACT_DIR}" ./build/bench/bench_fig13_cores >/dev/null
  python3 scripts/validate_bench_json.py \
    "${ARTIFACT_DIR}"/BENCH_fig13_cores.json \
    --baseline scripts/bench_baselines/BENCH_fig13_cores.json \
    --regress cold_median_batch_s,tcomp_8thread_best_s
}

online_regression() {
  python3 scripts/validate_bench_json.py \
    "${ARTIFACT_DIR}"/BENCH_online_te.json \
    --baseline scripts/bench_baselines/BENCH_online_te.json \
    --regress abilene_hybrid_regret_fraction,abilene_hybrid_bad_seconds
}

sr_regression() {
  python3 scripts/validate_bench_json.py \
    "${ARTIFACT_DIR}"/BENCH_sr_trade.json \
    --baseline scripts/bench_baselines/BENCH_sr_trade.json \
    --regress worst_gap_fraction,worst_fib_entries_ratio
}

# Every test of the TE suites in a process of its own, so none can lean
# on process-wide counters (te.sr.*, te.incremental.*) or interned path
# tables an earlier test left behind. test_incremental,
# test_segment_routing and test_upgrade construct the warm, SR and
# mixed-algorithm solvers.
isolated_te_tests() {
  local bin name failed=0
  for bin in test_te test_batch_solver test_parallel test_incremental \
      test_segment_routing test_upgrade; do
    for name in $(./build/tests/"${bin}" --gtest_list_tests |
        awk '/^[^ ]/ { suite = $1 } /^  / { print suite $1 }'); do
      ./build/tests/"${bin}" --gtest_filter="${name}" >/dev/null ||
        { echo "FAILED alone: ${bin} ${name}"; failed=1; }
    done
  done
  return "${failed}"
}

# test_plane_runtime: plane scenarios bootstrap and reprogram planes
# concurrently on a shared pool. test_emulation: every fleet recompute
# runs the dirty controllers concurrently on router-pinned workers.
# SrMixedFleet.*: mixed fleets recompute concurrently and share the
# detour rows their legacy prediction walks, filled under std::call_once.
tsan_suites() {
  cmake -B build-tsan -S . -DDSDN_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target test_parallel test_sim \
    test_obs test_dataplane test_batch_pipeline test_batch_solver \
    test_plane_runtime test_emulation test_segment_routing
  (cd build-tsan && ctest --output-on-failure \
    -R '^(test_parallel|test_sim|test_obs|test_dataplane|test_batch_pipeline|test_batch_solver|test_plane_runtime|test_emulation)$')
  ./build-tsan/tests/test_segment_routing --gtest_filter='SrMixedFleet.*'
}

# test_dataplane + test_topology: the flat FIB tables' open addressing
# and index arithmetic. test_batch_solver: the radix heap's bit counts
# and shifts. test_segment_routing + test_incremental: the SR solver's
# offset runs into its per-solve arenas, and the warm solver's row
# matching by key.
ubsan_suites() {
  cmake -B build-ubsan -S . -DDSDN_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "${JOBS}" --target test_obs test_metrics \
    test_dataplane test_topology test_batch_solver test_segment_routing \
    test_incremental
  (cd build-ubsan && ctest --output-on-failure \
    -R '^(test_obs|test_metrics|test_dataplane|test_topology|test_batch_solver|test_segment_routing|test_incremental)$')
}

# The golden placements of the strict and SR solvers from an -O3
# -march=native build: with FMA in the target, only the top-level
# -ffp-contract=off keeps the placed paths bit-identical to the default
# build's (ROADMAP item 1).
native_golden() {
  cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-O3 -march=native" >/dev/null
  cmake --build build-native -j "${JOBS}" --target test_batch_solver \
    test_segment_routing
  ./build-native/tests/test_batch_solver \
    --gtest_filter='StrictGolden.*:SrGolden.*'
  ./build-native/tests/test_segment_routing \
    --gtest_filter='StrictGolden.*:SrGolden.*'
}

asan_wire() {
  cmake -B build-asan -S . -DDSDN_SANITIZE=address -DDSDN_FUZZ=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target fuzz_wire test_wire \
    test_fault_injection
  ./build-asan/fuzz/fuzz_wire -max_total_time=30 tests/corpus/wire
  (cd build-asan && ctest --output-on-failure \
    -R '^(test_wire|test_fault_injection)$')
}

asan_dataplane() {
  cmake -B build-asan -S . -DDSDN_SANITIZE=address -DDSDN_FUZZ=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target test_batch_pipeline \
    test_sublabel test_dataplane test_topology
  (cd build-asan && ctest --output-on-failure \
    -R '^(test_batch_pipeline|test_sublabel|test_dataplane|test_topology)$')
}

# test_segment_routing: the SR solver's per-solve arenas grow while runs
# into them are read; a span held across a reallocation dangles, and ASan
# catches it. test_te and test_parallel: the PathCache build and the
# solver's table walk index raw predecessor rows. test_traffic,
# test_upgrade and test_consensus: gravity normalization, the mixed
# fleet's legacy prediction and IS-IS next hops walk the same rows, and a
# span into a DetourTable must not outlive it.
asan_differential() {
  cmake -B build-asan -S . -DDSDN_SANITIZE=address -DDSDN_FUZZ=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target test_incremental \
    test_batch_solver test_segment_routing test_te test_parallel \
    test_traffic test_upgrade test_consensus
  (cd build-asan && ctest --output-on-failure \
    -R '^(test_incremental|test_batch_solver|test_segment_routing|test_te|test_parallel|test_traffic|test_upgrade|test_consensus)$')
}

# Bounded ~60 s: 28 Abilene histories (24 events each, lossy flooding)
# plus 2 B4-like and 2 B2-small histories. scripts/scenario_swarm.sh runs
# the full-size sweeps.
scenario_swarm() {
  cmake --build build -j "${JOBS}" --target scenario_swarm
  ./build/tests/scenario_swarm --topo abilene --seeds 28 --lossy
  ./build/tests/scenario_swarm --topo b4 --seeds 2
  ./build/tests/scenario_swarm --topo b2small --seeds 2
}

# Deterministic mixed fleet (SR majority + strict TE + shortest-path
# members): every event re-checks loop-freedom, delivery, conservation,
# and per-view placement agreement with segment stacks in play.
sr_swarm() {
  ./build/tests/scenario_swarm --topo abilene --seeds 23 --sr
  ./build/tests/scenario_swarm --topo b4 --seeds 6 --sr
}

# Full checker battery (solution parity on): per-plane invariants plus
# cross-plane conservation, HRW placement agreement, and blast radius.
plane_swarm() {
  ./build/tests/scenario_swarm --topo abilene --planes 3 --seeds 24
  ./build/tests/scenario_swarm --topo b4 --planes 4 --seeds 2
}

# 10 Abilene seeds x 64 epochs of diurnal + flash-crowd drift + churn,
# hybrid recompute policy, invariant suite sampled every 16 epochs.
closed_loop_swarm() {
  ./build/tests/scenario_swarm --topo abilene --closed-loop --seeds 10
}

asan_swarm() {
  cmake -B build-asan -S . -DDSDN_SANITIZE=address -DDSDN_FUZZ=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target scenario_swarm
  ./build-asan/tests/scenario_swarm --topo abilene --seeds 4 --lossy
}

leg "build + ctest (build/)" build_and_ctest
leg "examples (build/) -- each runs to a zero exit" run_examples
leg "TE suites one test per process (build/) -- test_te, test_batch_solver, test_parallel, test_incremental, test_segment_routing, test_upgrade" \
  isolated_te_tests
leg "bench artifacts: fig08, fig09, fig12, fig19, table2, consensus ablation, dataplane pps smoke" \
  figure_artifacts
leg "sharding ablation: plane containment on PlaneRuntime" sharding_ablation
leg "plane containment: K=4 fail/restore + plane swarm (bench_hier_scale)" \
  plane_containment
leg "closed-loop online TE gate" online_te
leg "SR-vs-strict trade gate" sr_trade
leg "bench artifact schema check" schema_check
leg "repository benchmark smoke test (.bench_build/) -- Abilene scale" \
  perfbench_smoke
leg "perf regression (warn-only) -- fig13 cold medians vs baseline" \
  fig13_regression
leg "perf regression (warn-only) -- online TE regret vs baseline" \
  online_regression
leg "perf regression (warn-only) -- SR trade vs baseline" sr_regression
leg "TSan build (build-tsan/) -- concurrency suites + batched dataplane" \
  tsan_suites
leg "UBSan build (build-ubsan/) -- obs, metrics, dataplane, topology, batch solver, SR, incremental" \
  ubsan_suites
leg "native build (build-native/) -- -O3 -march=native golden placements" \
  native_golden
leg "ASan build (build-asan/) -- wire fuzz corpus + fault injection" \
  asan_wire
leg "ASan dataplane -- batched pipeline, sublabel bounds, flat FIB tables" \
  asan_dataplane
leg "ASan differential check -- incremental TE, batch + SR solver parity, path table" \
  asan_differential
leg "scenario seed swarm (build/) -- 32 seeds, invariants each event" \
  scenario_swarm
leg "mixed SR/strict fleet swarm (build/) -- 29 seeds" sr_swarm
leg "hierarchical plane swarm (build/) -- cuts, SRLGs, crash/rebalance" \
  plane_swarm
leg "closed-loop online TE swarm (build/) -- estimated demand only" \
  closed_loop_swarm
leg "ASan scenario swarm (build-asan/) -- lossy churn under ASan" asan_swarm

if [[ ${#FAILED_LEGS[@]} -gt 0 ]]; then
  echo "==> tier-1: ${#FAILED_LEGS[@]} leg(s) failed:"
  for name in "${FAILED_LEGS[@]}"; do echo "  - ${name}"; done
  exit 1
fi
echo "==> tier-1: all green"
