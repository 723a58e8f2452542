// google-benchmark microbenchmarks for the core primitives: Dijkstra /
// CSPF, Yen k-shortest paths, the path table and SR underlay builds, the
// SR middlepoint ranking and a whole B4 SR solve, label encode/decode,
// two-stage ingress lookup, transit lookup, sublabel table build, NSU
// flooding-step processing, and full TE solves at small scale.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>

#include "core/controller.hpp"
#include "core/nsu.hpp"
#include "dataplane/fib.hpp"
#include "metrics/distribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "te/thread_pool.hpp"
#include "dataplane/label.hpp"
#include "dataplane/sublabel.hpp"
#include "te/batch_solver.hpp"
#include "te/ksp.hpp"
#include "te/path_cache.hpp"
#include "te/segment_routing.hpp"
#include "te/solver.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

using namespace dsdn;

namespace {

const topo::Topology& b4() {
  static const topo::Topology t = topo::make_b4_like();
  return t;
}

const traffic::TrafficMatrix& b4_tm() {
  static const traffic::TrafficMatrix tm = [] {
    traffic::GravityParams gp;
    gp.pair_fraction = 0.1;
    return traffic::generate_gravity(b4(), gp).aggregated();
  }();
  return tm;
}

void BM_Dijkstra_B4(benchmark::State& state) {
  const auto& t = b4();
  topo::NodeId dst = static_cast<topo::NodeId>(t.num_nodes() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::shortest_path(t, 0, dst));
  }
}
BENCHMARK(BM_Dijkstra_B4);

// One source's shortest paths to every destination, walked over a held
// path table (what gravity normalization and IS-IS read per source).
void BM_TableWalkOneSource_B4(benchmark::State& state) {
  const auto& t = b4();
  const te::PathTables paths = te::PathTables::of(t);
  std::vector<topo::LinkId> path;
  for (auto _ : state) {
    for (topo::NodeId d = 1; d < t.num_nodes(); ++d) {
      path.clear();
      benchmark::DoNotOptimize(paths.up_path(0, d, path));
    }
  }
}
BENCHMARK(BM_TableWalkOneSource_B4);

void BM_Cspf_B4(benchmark::State& state) {
  const auto& t = b4();
  std::vector<double> residual(t.num_links(), 50.0);
  te::SpConstraints c;
  c.residual_gbps = &residual;
  c.min_residual = 1.0;
  topo::NodeId dst = static_cast<topo::NodeId>(t.num_nodes() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::shortest_path(t, 0, dst, c));
  }
}
BENCHMARK(BM_Cspf_B4);

void BM_Yen_K16_Geant(benchmark::State& state) {
  const auto t = topo::make_geant();
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::k_shortest_paths(t, 0, 15, 16));
  }
}
BENCHMARK(BM_Yen_K16_Geant);

// Fig 15's table: one all-sources pass over every link.
void BM_PathTableBuild_B4(benchmark::State& state) {
  for (auto _ : state) {
    te::PathCache table(b4());
    benchmark::DoNotOptimize(table.row(0).data());
  }
}
BENCHMARK(BM_PathTableBuild_B4)->Unit(benchmark::kMillisecond);

void BM_PathTableBuild_B2(benchmark::State& state) {
  static const topo::Topology t = topo::make_b2_like();
  for (auto _ : state) {
    te::PathCache table(t);
    benchmark::DoNotOptimize(table.row(0).data());
  }
}
BENCHMARK(BM_PathTableBuild_B2)->Unit(benchmark::kMillisecond);

// What a Solver pays per solve for its table while some holder keeps it:
// the registry hit (key hash, bucket lookup) plus the exact key compare.
void BM_PathTableLookup_B2(benchmark::State& state) {
  static const topo::Topology t = topo::make_b2_like();
  const auto held = te::PathCache::of(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::PathCache::of(t).get());
  }
}
BENCHMARK(BM_PathTableLookup_B2)->Unit(benchmark::kMicrosecond);

// SR's underlay: every node's distance to every target over the up links,
// one all-targets SSSP per target. An SR solve and each router's
// program_sr build one.
void BM_SrUnderlayBuild_B4(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::SrUnderlay::build(b4()).dist(0, 1));
  }
}
BENCHMARK(BM_SrUnderlayBuild_B4)->Unit(benchmark::kMillisecond);

// The coverage-centrality ranking every SR solve runs over its underlay:
// n^3 comparisons, branch-free over contiguous rows.
void BM_RankMiddlepoints_B4(benchmark::State& state) {
  const auto underlay = te::SrUnderlay::build(b4());
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::rank_middlepoints(
        underlay, te::SrOptions::num_middlepoints));
  }
}
BENCHMARK(BM_RankMiddlepoints_B4)->Unit(benchmark::kMillisecond);

// A whole B4 SR solve: underlay build, ranking, candidate lists, lazy
// ECMP expansion and the waterfill.
void BM_SrSolve_B4(benchmark::State& state) {
  const te::SrSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(b4(), b4_tm()));
  }
}
BENCHMARK(BM_SrSolve_B4)->Unit(benchmark::kMillisecond);

void BM_SrUnderlayBuild_B2(benchmark::State& state) {
  static const topo::Topology t = topo::make_b2_like();
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::SrUnderlay::build(t).dist(0, 1));
  }
}
BENCHMARK(BM_SrUnderlayBuild_B2)->Unit(benchmark::kMillisecond);

void BM_ParallelForSmallN(benchmark::State& state) {
  // Per-call dispatch overhead of the persistent pool on a tiny index
  // space -- the seed implementation paid a thread spawn+join here.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  te::ThreadPool pool(threads);
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(8, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
// Wall time: the calling thread sleeps while workers run, so CPU time
// hides most of the latency a waterfill round pays per parallel_for.
BENCHMARK(BM_ParallelForSmallN)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

void BM_EventQueueChurn(benchmark::State& state) {
  // Schedule+run cycles with captured-state callbacks: the simulator's
  // hot loop (step() must move entries out of the heap, not copy).
  for (auto _ : state) {
    sim::EventQueue q;
    std::size_t fired = 0;
    std::vector<double> payload(16, 1.0);
    for (int i = 0; i < 256; ++i) {
      q.schedule(static_cast<double>(i), [payload, &fired] {
        fired += payload.size();
      });
    }
    q.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_ValidateNsu(benchmark::State& state) {
  // Once per flooded NSU per router; must not allocate.
  core::NodeStateUpdate nsu;
  nsu.origin = 0;
  for (topo::LinkId l = 0; l < 32; ++l) {
    core::LinkAdvert a;
    a.link = l;
    a.peer = static_cast<topo::NodeId>(l + 1);
    a.capacity_gbps = 100.0;
    nsu.links.push_back(a);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::validate_nsu(nsu));
  }
}
BENCHMARK(BM_ValidateNsu);

void BM_LabelEncodeDecode(benchmark::State& state) {
  const auto t = topo::make_line(11);
  te::Path p;
  for (std::size_t i = 0; i + 1 < 11; ++i)
    p.links.push_back(t.find_link(static_cast<topo::NodeId>(i),
                                  static_cast<topo::NodeId>(i + 1)));
  for (auto _ : state) {
    auto stack = dataplane::encode_strict_route(p);
    benchmark::DoNotOptimize(dataplane::decode_strict_route(stack));
  }
}
BENCHMARK(BM_LabelEncodeDecode);

void BM_IngressLookup(benchmark::State& state) {
  dataplane::IngressFib fib;
  const auto prefixes = topo::assign_router_prefixes(b4());
  for (topo::NodeId n = 0; n < b4().num_nodes(); ++n) {
    fib.set_prefix(prefixes[n], n);
    dataplane::EncapEntry e;
    e.routes.push_back({dataplane::LabelStack({17, 18, 19}), 0.5});
    e.routes.push_back({dataplane::LabelStack({20, 21}), 0.5});
    fib.set_routes(n, metrics::PriorityClass::kHigh, e);
  }
  const std::uint32_t ip = topo::host_in(prefixes[42]);
  std::uint64_t entropy = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fib.lookup(ip, metrics::PriorityClass::kHigh, entropy++));
  }
}
BENCHMARK(BM_IngressLookup);

// The transit step's table read: decoding the label to router 0's
// out-link.
void BM_TransitLookup(benchmark::State& state) {
  const auto& t = b4();
  const dataplane::Label l = dataplane::link_label(t.node(0).out_links.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataplane::transit_link(t, 0, l));
  }
}
BENCHMARK(BM_TransitLookup);

void BM_SublabelTableBuild_B4(benchmark::State& state) {
  const auto& t = b4();
  const auto a = dataplane::assign_sublabels(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataplane::SublabelFib::build(t, 0, a));
  }
}
BENCHMARK(BM_SublabelTableBuild_B4);

void BM_NsuHandle(benchmark::State& state) {
  const auto& t = b4();
  core::ControllerConfig cc;
  cc.self = 1;
  core::Controller receiver(cc, t);
  traffic::TrafficMatrix tm = b4_tm();
  const auto prefixes = topo::assign_router_prefixes(t);
  core::SimTelemetry telemetry(&t, &tm, prefixes);
  core::ControllerConfig cc0;
  cc0.self = 0;
  core::Controller sender(cc0, t);
  std::uint64_t seq = 0;
  core::LocalState ls(0);
  auto nsu = ls.snapshot(telemetry);
  const topo::LinkId arrival = t.find_link(0, t.up_neighbors(0).front());
  for (auto _ : state) {
    nsu.seq = ++seq;
    benchmark::DoNotOptimize(receiver.handle_nsu(nsu, arrival));
  }
}
BENCHMARK(BM_NsuHandle);

void BM_PercentileSweep(benchmark::State& state) {
  // The bench reporting hot path: many percentile queries against one
  // distribution. The sorted cache makes the sweep sort-once; before the
  // incremental cache each query after any add() re-sorted all samples.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  metrics::EmpiricalDistribution d;
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    d.add(static_cast<double>(x % 100000) * 1e-5);
  }
  const double ps[] = {1, 2, 5, 10, 25, 50, 75, 90, 95, 98, 99, 99.9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.percentiles(ps));
  }
}
BENCHMARK(BM_PercentileSweep)->Arg(1000)->Arg(100000);

void BM_PercentileAfterAppend(benchmark::State& state) {
  // Interleaved add+query (the transient sim's pattern): the incremental
  // tail merge keeps this O(sorted tail) instead of O(n log n) per query.
  metrics::EmpiricalDistribution d;
  double v = 0.5;
  for (auto _ : state) {
    v = v * 1664525.0 + 1013904223.0;
    v -= std::floor(v);
    d.add(v);
    benchmark::DoNotOptimize(d.percentile(99));
  }
}
BENCHMARK(BM_PercentileAfterAppend);

void BM_CounterInc(benchmark::State& state) {
  // One sharded-counter increment: the price of a metric on a hot path.
  static obs::Counter& c =
      obs::Registry::global().counter("bench.counter_inc");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "bench.histogram_record", obs::default_time_bounds_s());
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 10.0 ? v * 1.01 : 1e-6;
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_SpanDisabled(benchmark::State& state) {
  // A span with the tracer off: one relaxed load, no clock reads.
  obs::Tracer::global().disable();
  for (auto _ : state) {
    DSDN_TRACE_SPAN("bench.span");
    benchmark::DoNotOptimize(state.iterations());
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer::global().enable(1 << 10);
  for (auto _ : state) {
    DSDN_TRACE_SPAN("bench.span");
    benchmark::DoNotOptimize(state.iterations());
  }
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
}
BENCHMARK(BM_SpanEnabled);

void BM_Solve_Abilene(benchmark::State& state) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  te::Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(t, tm));
  }
}
BENCHMARK(BM_Solve_Abilene);

void BM_Solve_B4(benchmark::State& state) {
  te::Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(b4(), b4_tm()));
  }
}
BENCHMARK(BM_Solve_B4)->Unit(benchmark::kMillisecond);

// One pass of the batched SSSP kernel: every source to the destinations
// of its gravity-matrix demands, at full residual -- the SSSP runs of a
// cold solve's first round.
struct SsspPass {
  te::BatchGraph graph;
  std::vector<double> residual;
  std::vector<std::uint32_t> sources;
  std::vector<std::vector<std::uint32_t>> targets;  // per source
};

SsspPass make_sssp_pass(const topo::Topology& t,
                        const traffic::TrafficMatrix& tm) {
  SsspPass p;
  p.graph = te::build_batch_graph(t, te::CsrView::kUpLinks);
  for (const topo::Link& l : t.links()) p.residual.push_back(l.capacity_gbps);
  std::vector<std::vector<std::uint32_t>> by_src(t.num_nodes());
  for (const traffic::Demand& d : tm.demands()) by_src[d.src].push_back(d.dst);
  for (std::uint32_t s = 0; s < by_src.size(); ++s) {
    if (by_src[s].empty()) continue;
    p.sources.push_back(s);
    p.targets.push_back(std::move(by_src[s]));
  }
  return p;
}

void run_sssp_pass(benchmark::State& state, const SsspPass& p) {
  te::SsspWorkspace ws;
  for (auto _ : state) {
    for (std::size_t i = 0; i < p.sources.size(); ++i) {
      te::sssp(p.graph, p.residual, 0.0, p.sources[i], p.targets[i].data(),
               p.targets[i].size(), ws);
      benchmark::DoNotOptimize(ws.dist.data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["sssp_runs"] = static_cast<double>(p.sources.size());
}

void BM_BatchSssp_B4(benchmark::State& state) {
  static const SsspPass p = make_sssp_pass(b4(), b4_tm());
  run_sssp_pass(state, p);
}
BENCHMARK(BM_BatchSssp_B4)->Unit(benchmark::kMillisecond);

// B2 at the te_solve benchmark's matrix density (1% of pairs).
void BM_BatchSssp_B2(benchmark::State& state) {
  static const SsspPass p = [] {
    const topo::Topology t = topo::make_b2_like();
    traffic::GravityParams gp;
    gp.pair_fraction = 0.01;
    return make_sssp_pass(t, traffic::generate_gravity(t, gp).aggregated());
  }();
  run_sssp_pass(state, p);
}
BENCHMARK(BM_BatchSssp_B2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
