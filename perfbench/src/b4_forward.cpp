// b4_forward: the batched dataplane, reads without and with writes. The
// B4-like fleet is bootstrapped with FIB snapshots attached, and one
// dataplane::BatchPipeline thread forwards a pre-generated,
// rate-weighted packet pool back to back in kBatchSize batches.
//
//   Phase 1 (first half of the run): a quiesced fabric, no writes.
//   Phase 2 (second half): the main thread applies seeded cut/repair
//   events on a fixed open-loop schedule, one every kEventInterval. The
//   interval is longer than the slowest event, so the publish rate does
//   not depend on how fast the control plane is. How late each event
//   started against its schedule is reported, and so are the packets
//   forwarded and dropped during each event's window.
//
// One operation is one phase-1 pass over the whole pool, the same packet
// mix every time: the quiesced single-core forwarding rate. Phase-2
// passes are slower while an event's control-plane work runs on the
// other core, and that overlap grows when the host is slow, so their
// rate moved almost twice as much from run to run; phase 2 is reported
// on the detail line and in the per-layer metrics.
//
// Checks: no loop or unknown-label verdict in either phase, every event
// applied, and a clean sim::score_packets sweep once phase 2 is over.

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "dataplane/pipeline.hpp"
#include "sim/packet_score.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace dp = dsdn::dataplane;
namespace sim = dsdn::sim;

namespace {

constexpr std::size_t kPoolSize = 1 << 15;
constexpr std::chrono::milliseconds kEventInterval{1000};
constexpr std::chrono::milliseconds kSmokeEventInterval{50};

// Batch latencies in 8 ns buckets up to ~1 ms, plus exact outliers:
// exact enough for p99 without storing millions of samples.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns) {
    ++n_;
    sum_ns_ += ns;
    if (ns / kBucketNs < kBuckets) ++counts_[ns / kBucketNs];
    else outliers_.push_back(ns);
  }
  std::uint64_t count() const { return n_; }
  double sum_s() const { return static_cast<double>(sum_ns_) * 1e-9; }
  // Seconds; bucket midpoints below the outlier range.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(n_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) {
        return (static_cast<double>(i * kBucketNs) + kBucketNs / 2.0) * 1e-9;
      }
    }
    std::vector<std::uint64_t> out = outliers_;
    std::sort(out.begin(), out.end());
    return static_cast<double>(out[std::min<std::size_t>(rank - seen, out.size() - 1)]) * 1e-9;
  }

 private:
  static constexpr std::uint64_t kBucketNs = 8;
  static constexpr std::size_t kBuckets = 1 << 17;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::vector<std::uint64_t> outliers_;
};

std::vector<dp::PacketSpec> make_pool(const sim::DsdnEmulation& emu,
                                      std::uint64_t seed) {
  const auto& demands = emu.demands().demands();
  std::vector<double> weights;
  weights.reserve(demands.size());
  for (const auto& d : demands)
    weights.push_back(d.src != d.dst && d.rate_gbps > 0 ? d.rate_gbps : 0.0);
  const int ttl = static_cast<int>(4 * emu.network().num_nodes() + 16);
  dsdn::util::Rng rng(dsdn::util::splitmix64(seed));
  std::vector<dp::PacketSpec> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const auto& d = demands[rng.weighted_pick(weights)];
    dp::PacketSpec s;
    s.dst_ip = emu.address_of(d.dst);
    s.priority = d.priority;
    s.entropy = rng.engine()();
    s.ttl = ttl;
    s.ingress = d.src;
    pool.push_back(s);
  }
  return pool;
}

std::uint64_t outcome(const dp::PipelineStats& s, dp::ForwardOutcome o) {
  return s.by_outcome[static_cast<std::size_t>(o)];
}

struct Setup {
  std::unique_ptr<sim::DsdnEmulation> emu;
  std::vector<dp::PacketSpec> pool;
  std::vector<dsdn::topo::LinkId> fibers;
};

void set_up(const Options& opt, Setup& s) {
  s.emu.reset();  // one fleet in memory at a time
  Inputs in = b4_inputs(opt, 0xF4);
  s.emu = std::make_unique<sim::DsdnEmulation>(std::move(in.topo),
                                               std::move(in.tm));
  s.emu->enable_fib_snapshots(1);
  s.emu->bootstrap();
  s.pool = make_pool(*s.emu, opt.seed ^ 0xDA7A);
  s.fibers = safe_fibers(s.emu->network(), 64,
                         dsdn::util::splitmix64(opt.seed ^ 0xF1F4));
}

}  // namespace

Result run_b4_forward(const Options& opt, Tracer& tracer) {
  Result r;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    set_up(opt, s);
    r.setup_s.push_back(seconds_since(t0));
  }
  if (s.fibers.empty()) {
    r.fail("no connectivity-preserving fiber to cut");
    return r;
  }
  sim::DsdnEmulation& emu = *s.emu;

  dp::BatchPipeline pipe(emu.network(), emu.fib_hub(), {});
  std::atomic<int> phase{1};  // 1, 2, then 0 = stop
  LatencyHistogram hist[2];
  // Time of every complete pass over the pool (kPoolSize packets, the
  // same mix each time) that ran entirely within phase 1.
  std::vector<double> pass_s;
  double hops = 0, delivered = 0;

  std::thread forwarder([&] {
    std::vector<dp::PacketVerdict> out;
    const std::span<const dp::PacketSpec> pool(s.pool);
    std::size_t off = 0;
    auto pass_start = Clock::now();
    int pass_phase = 1;
    for (int p; (p = phase.load(std::memory_order_relaxed)) != 0;) {
      if (off == 0) {
        pass_start = Clock::now();
        pass_phase = p;
      }
      const auto batch = pool.subspan(off, dp::kBatchSize);
      const auto t0 = Clock::now();
      pipe.process(batch, out);
      const auto t1 = Clock::now();
      hist[p - 1].add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      if (tracer.enabled()) {
        for (const dp::PacketVerdict& v : out) {
          if (v.outcome != dp::ForwardOutcome::kDelivered) continue;
          hops += v.hops;
          delivered += 1;
        }
      }
      off = (off + dp::kBatchSize) % s.pool.size();
      if (off == 0 && pass_phase == 1 && p == 1)
        pass_s.push_back(seconds_since(pass_start));
    }
  });

  // Stops and joins the forwarder on every way out of this scope,
  // exceptions included.
  struct StopAndJoin {
    std::atomic<int>& phase;
    std::thread& thread;
    ~StopAndJoin() {
      phase.store(0, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
    }
  } stop_and_join{phase, forwarder};

  const auto start = Clock::now();
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / 2));
  const auto end = start + 2 * half;
  const std::uint32_t p1 = tracer.open("phase1", Tracer::kNoParent, 0);
  std::this_thread::sleep_until(start + half);
  tracer.close(p1);
  const dp::PipelineStats at_switch = pipe.stats();
  const std::uint64_t epoch_at_switch = emu.fib_hub()->epoch();
  phase.store(2, std::memory_order_relaxed);

  const std::uint32_t p2 = tracer.open("phase2", Tracer::kNoParent, 0);
  const auto interval = opt.smoke ? Clock::duration(kSmokeEventInterval)
                                  : Clock::duration(kEventInterval);
  std::vector<double> lag_s, window_pkts, window_drops;
  std::uint64_t deliveries = 0, bytes = 0;
  double sim_s = 0;
  std::size_t events = 0;
  for (auto due = start + half; due + interval <= end; due += interval) {
    std::this_thread::sleep_until(due);
    sim::ScenarioEvent ev;
    ev.kind = events % 2 == 0 ? sim::ScenarioEventKind::kFiberCut
                              : sim::ScenarioEventKind::kFiberRepair;
    ev.fibers = {s.fibers[(events / 2) % s.fibers.size()]};
    const auto msgs0 = emu.messages_delivered();
    const double sim0 = emu.sim_time();
    const auto b0 = emu.obs().snapshot().counters["flood.nsu_bytes"];
    const dp::PipelineStats before = pipe.stats();
    const auto t0 = Clock::now();
    const bool applied = sim::apply_scenario_event(emu, ev);
    const auto t1 = Clock::now();
    const dp::PipelineStats after = pipe.stats();
    tracer.record("event", t0, t1, p2, events);
    ++events;
    r.attempted += 1;
    if (!applied) r.fail("event not applied: " + ev.to_string());
    lag_s.push_back(seconds_between(due, t0));
    window_pkts.push_back(static_cast<double>(after.packets - before.packets));
    window_drops.push_back(static_cast<double>(after.dropped - before.dropped));
    deliveries += emu.messages_delivered() - msgs0;
    bytes += emu.obs().snapshot().counters["flood.nsu_bytes"] - b0;
    sim_s += emu.sim_time() - sim0;
  }
  std::this_thread::sleep_until(end);
  phase.store(0, std::memory_order_relaxed);
  forwarder.join();
  tracer.close(p2);

  const dp::PipelineStats total = pipe.stats();
  for (const auto o : {dp::ForwardOutcome::kDroppedLoop,
                       dp::ForwardOutcome::kDroppedUnknownLabel}) {
    if (const std::uint64_t bad = outcome(total, o)) {
      r.fail(std::to_string(bad) + " packets with verdict " +
             std::to_string(static_cast<int>(o)));
    }
  }
  r.attempted += total.packets;
  sim::PacketScoreOptions so;
  so.packets = 4096;
  so.seed = dsdn::util::splitmix64(opt.seed ^ 0x5C0BE);
  const sim::PacketScoreReport score = sim::score_packets(emu, so);
  if (!score.ok()) {
    r.fail(std::to_string(score.hard_drops) + " hard drops after phase 2" +
           (score.violations.empty() ? "" : ": " + score.violations.front()));
  }

  r.set_ops(pass_s);

  const auto mpps = [](const LatencyHistogram& h) {
    return h.sum_s() > 0 ? static_cast<double>(h.count() * dp::kBatchSize) /
                               h.sum_s() / 1e6
                         : 0.0;
  };
  const double p2_packets = static_cast<double>(total.packets - at_switch.packets);
  const double p2_wall_ms = 1e3 * seconds_between(start + half, end);
  const double pkts_per_ms = p2_packets / p2_wall_ms;
  double lost_ms = 0, drops = 0, pkts = 0;
  for (std::size_t i = 0; i < window_drops.size(); ++i) {
    lost_ms += pkts_per_ms > 0 ? window_drops[i] / pkts_per_ms : 0.0;
    drops += window_drops[i];
    pkts += window_pkts[i];
  }
  const double ev_n = static_cast<double>(std::max<std::size_t>(events, 1));
  lost_ms /= ev_n;
  r.detail = {{"passes", static_cast<double>(r.ops)},
              {"events", static_cast<double>(events)},
              {"forward_mpps", mpps(hist[0])},
              {"churn_forward_mpps", mpps(hist[1])},
              {"churn_batch_p99_us", 1e6 * hist[1].quantile(0.99)},
              {"lost_traffic_ms", lost_ms},
              {"event_lag_max_ms",
               lag_s.empty() ? 0.0
                             : 1e3 * *std::max_element(lag_s.begin(), lag_s.end())}};
  if (tracer.enabled()) {
    const double n = static_cast<double>(std::max<std::uint64_t>(total.packets, 1));
    r.layer("flood.deliveries", static_cast<double>(deliveries) / ev_n);
    r.layer("flood.nsu_bytes", static_cast<double>(bytes) / ev_n);
    r.layer("flood.sim_ms", 1e3 * sim_s / ev_n);
    r.layer("pipeline.ns_per_packet",
            1e9 * hist[0].sum_s() /
                static_cast<double>(hist[0].count() * dp::kBatchSize));
    r.layer("pipeline.slow_path_fraction",
            static_cast<double>(total.slow_path_packets) / n);
    r.layer("pipeline.frr_fraction", static_cast<double>(total.frr_activations) / n);
    r.layer("pipeline.hops_mean", delivered > 0 ? hops / delivered : 0.0);
    r.layer("pipeline.window_drop_fraction", pkts > 0 ? drops / pkts : 0.0);
    r.layer("pipeline.event_lag_ms", 1e3 * mean(lag_s));
    r.layer("pipeline.forward_mpps", mpps(hist[0]));
    r.layer("pipeline.churn_forward_mpps", mpps(hist[1]));
    r.layer("pipeline.churn_batch_p99_us", 1e6 * hist[1].quantile(0.99));
    r.layer("pipeline.lost_traffic_ms", lost_ms);
    r.layer("snapshot.epochs",
            static_cast<double>(emu.fib_hub()->epoch() - epoch_at_switch) / ev_n);
  }
  return r;
}

}  // namespace perfbench
