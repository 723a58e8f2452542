// Tests for the observability subsystem (src/obs): registry semantics,
// sharded-counter exactness under threads, span tracer nesting and ring
// wraparound, JSON exporter golden files, run artifacts, and the
// DSDN_OBS_DISABLED kill switch (via tests/obs_disabled_probe.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "core/programmer.hpp"
#include "obs/artifact.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/emulation.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::obs::testprobe {
// Defined in obs_disabled_probe.cpp, compiled with -DDSDN_OBS_DISABLED.
int run_probe_spans(int n);
}  // namespace dsdn::obs::testprobe

namespace {

using namespace dsdn;

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, CounterFindOrCreateIsStable) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("te.test.counter");
  obs::Counter& b = reg.counter("te.test.counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.inc();
  EXPECT_EQ(a.value(), 4u);
  a.reset();
  EXPECT_EQ(b.value(), 0u);
}

TEST(ObsRegistry, CrossKindRegistrationThrows) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::logic_error);
  reg.histogram("z");
  EXPECT_THROW(reg.counter("z"), std::logic_error);
  EXPECT_THROW(reg.gauge("z"), std::logic_error);
}

TEST(ObsRegistry, GaugeSetAndAdd) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("queue.depth");
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsRegistry, HistogramBucketsAndOverflow) {
  obs::Registry reg;
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& h = reg.histogram("lat", bounds);
  h.record(0.5);   // <= 1.0
  h.record(1.0);   // boundary: belongs to the <= 1.0 bucket
  h.record(1.5);   // <= 2.0
  h.record(5.0);   // overflow
  const obs::HistogramData d = h.data();
  ASSERT_EQ(d.bounds, (std::vector<double>{1.0, 2.0}));
  ASSERT_EQ(d.counts, (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(d.count, 4u);
  EXPECT_DOUBLE_EQ(d.sum, 8.0);
}

TEST(ObsRegistry, HistogramDefaultBoundsAreSorted) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("t");
  const auto& b = h.bounds();
  ASSERT_GE(b.size(), 10u);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_DOUBLE_EQ(b.back(), 100.0);
}

TEST(ObsRegistry, SnapshotDiffMetersAnInterval) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  const double bounds[] = {1.0};
  obs::Histogram& h = reg.histogram("h", bounds);
  c.add(5);
  g.set(1.0);
  h.record(0.5);
  const obs::Snapshot before = reg.snapshot();
  c.add(3);
  g.set(9.0);
  h.record(0.5);
  h.record(2.0);
  const obs::Snapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("c"), 3u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("g"), 9.0);  // gauges keep later value
  EXPECT_EQ(delta.histograms.at("h").counts,
            (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(delta.histograms.at("h").count, 2u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("h").sum, 2.5);
}

TEST(ObsRegistry, DiffClampsAtZeroAfterMidIntervalReset) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  c.add(5);
  const obs::Snapshot before = reg.snapshot();
  reg.reset();
  c.add(1);
  const obs::Snapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("c"), 0u);  // 1 - 5, clamped
}

TEST(ObsRegistry, DiffKeepsMetricsAbsentFromEarlier) {
  obs::Registry reg;
  const obs::Snapshot before = reg.snapshot();
  reg.counter("late").add(7);
  const obs::Snapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("late"), 7u);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsHandles) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  obs::Histogram& h = reg.histogram("h");
  c.add(10);
  h.record(0.1);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // handle survives the reset
  EXPECT_EQ(reg.snapshot().counters.at("c"), 1u);
}

// The shard-merge stress: concurrent writers through one handle must
// lose no increments once joined. Run under TSan in tier-1.
TEST(ObsRegistry, ShardedCounterExactUnderThreads) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("stress.counter");
  obs::Histogram& h = reg.histogram("stress.histogram");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        if (i % 64 == 0) h.record(1e-4);
      }
    });
  }
  // Concurrent snapshots must be safe (approximate but race-free).
  for (int i = 0; i < 50; ++i) {
    const obs::Snapshot s = reg.snapshot();
    EXPECT_LE(s.counters.at("stress.counter"),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * (kPerThread / 64 + 1));
}

// ------------------------------------------------------------------ tracer

TEST(ObsTracer, RecordsNestedSpans) {
  auto& tracer = obs::Tracer::global();
  tracer.enable();
  {
    DSDN_TRACE_SPAN("outer");
    DSDN_TRACE_SPAN("inner");
  }
  tracer.disable();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Ordered by begin: outer opened first, closed last.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].begin_ns, events[1].begin_ns);
  EXPECT_GE(events[0].end_ns, events[1].end_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
  tracer.clear();
}

TEST(ObsTracer, DisabledRecordsNothing) {
  auto& tracer = obs::Tracer::global();
  tracer.enable();
  tracer.disable();
  tracer.clear();
  {
    DSDN_TRACE_SPAN("ignored");
  }
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsTracer, RingWrapsAndCountsDropped) {
  auto& tracer = obs::Tracer::global();
  tracer.enable(/*ring_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    DSDN_TRACE_SPAN("wrap");
  }
  tracer.disable();
  EXPECT_EQ(tracer.events().size(), 8u);  // most recent capacity spans
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, MergesSpansAcrossThreads) {
  auto& tracer = obs::Tracer::global();
  tracer.enable();
  std::thread worker([] {
    DSDN_TRACE_SPAN("from_worker");
  });
  worker.join();
  {
    DSDN_TRACE_SPAN("from_main");
  }
  tracer.disable();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  tracer.clear();
}

TEST(ObsTracer, ChromeTraceJsonRoundTrips) {
  auto& tracer = obs::Tracer::global();
  tracer.enable();
  {
    DSDN_TRACE_SPAN("te.solve");
  }
  tracer.disable();
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"te.solve\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  const auto path =
      std::filesystem::temp_directory_path() / "dsdn_obs_trace_test.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path.string()));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, json);
  std::filesystem::remove(path);
  tracer.clear();
}

TEST(ObsTracer, FleetPathsRecordNamedSpansOnEveryWorker) {
  // Programming, snapshot publish, capacity changes, both crash paths and
  // the flood's wire codec and StateDb apply carry spans; fleet
  // recomputes land on every pool worker's ring.
  topo::Topology topo = topo::make_abilene();
  auto tm = traffic::generate_gravity(topo);
  sim::DsdnEmulation emu(topo, std::move(tm));
  emu.enable_fib_snapshots(1);
  auto& tracer = obs::Tracer::global();
  tracer.enable();
  emu.bootstrap();
  emu.degrade_fiber(emu.network().find_link(0, 1), 50.0);
  emu.crash_and_recover(3);
  emu.crash_and_cold_restart(4);
  dataplane::RouterDataplane hw;
  core::Programmer(0).program_sr(emu.network(), hw);
  tracer.disable();

  std::set<std::string> names;
  std::set<std::uint32_t> recompute_threads;
  for (const obs::SpanEvent& e : tracer.events()) {
    names.insert(e.name);
    if (std::strcmp(e.name, "ctrl.recompute") == 0)
      recompute_threads.insert(e.tid);
  }
  for (const char* expected :
       {"program.prefixes", "program.encap", "program.sr", "program.bypasses",
        "snapshot.publish_router", "emu.degrade_fiber", "emu.crash_recover",
        "emu.cold_restart", "emu.recompute", "ctrl.recompute", "wire.encode",
        "wire.decode", "state_db.apply"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  EXPECT_EQ(recompute_threads.size(),
            std::min<std::size_t>(
                std::max(1u, std::thread::hardware_concurrency()),
                emu.network().num_nodes()));
  tracer.clear();
}

// ------------------------------------------------- DSDN_OBS_DISABLED probe

TEST(ObsKillSwitch, ProbeTuRecordsNoSpans) {
  auto& tracer = obs::Tracer::global();
  tracer.enable();
  const std::size_t before = tracer.total_recorded();
  EXPECT_EQ(obs::testprobe::run_probe_spans(1000), 499500);
  tracer.disable();
  EXPECT_EQ(tracer.total_recorded(), before);
  tracer.clear();
}

// --------------------------------------------------------------- exporters

TEST(ObsJson, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(std::move(w).str(), "[null,null,1.5]");
}

TEST(ObsExport, ToJsonGolden) {
  obs::Registry reg;
  reg.counter("flood.retransmits").add(3);
  reg.gauge("pool.workers").set(8.0);
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& h = reg.histogram("te.wall_s", bounds);
  h.record(0.5);
  h.record(1.5);
  h.record(5.0);
  EXPECT_EQ(obs::to_json(reg.snapshot()),
            "{\"counters\":{\"flood.retransmits\":3},"
            "\"gauges\":{\"pool.workers\":8},"
            "\"histograms\":{\"te.wall_s\":{\"bounds\":[1,2],"
            "\"counts\":[1,1,1],\"count\":3,\"sum\":7}}}");
}

TEST(ObsExport, ToTextListsEveryMetric) {
  obs::Registry reg;
  reg.counter("a.count").add(2);
  reg.gauge("b.level").set(1.25);
  reg.histogram("c.lat").record(0.01);
  const std::string text = obs::to_text(reg.snapshot());
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("b.level"), std::string::npos);
  EXPECT_NE(text.find("c.lat"), std::string::npos);
  EXPECT_NE(text.find("n=1"), std::string::npos);
}

TEST(ObsExport, HistogramQuantileInterpolates) {
  obs::HistogramData h;
  h.bounds = {1.0, 2.0};
  h.counts = {0, 10, 0};
  h.count = 10;
  // All mass in (1, 2]: quantiles interpolate linearly across the bucket.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 2.0);
  // Overflow-bucket mass reports the last finite bound.
  obs::HistogramData ovf;
  ovf.bounds = {1.0};
  ovf.counts = {0, 4};
  ovf.count = 4;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(ovf, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(obs::HistogramData{}, 0.5), 0.0);
}

// --------------------------------------------------------------- artifacts

TEST(ObsArtifact, GoldenJson) {
  obs::RunArtifact a("unit");
  a.param("scale", std::string("quick"));
  a.param("nodes", std::uint64_t{99});
  a.param("ratio", 1.5);
  a.param("bypasses", true);
  a.metric("speedup", 2.0);
  EXPECT_EQ(a.to_json(),
            "{\"name\":\"unit\",\"schema_version\":1,"
            "\"params\":{\"scale\":\"quick\",\"nodes\":99,\"ratio\":1.5,"
            "\"bypasses\":true},"
            "\"metrics\":{\"speedup\":2},"
            "\"series\":{},"
            "\"registry\":{\"counters\":{},\"gauges\":{},"
            "\"histograms\":{}}}");
}

TEST(ObsArtifact, SeriesReportsPercentileSweep) {
  metrics::EmpiricalDistribution d;
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  obs::RunArtifact a("unit");
  a.series("lat_s", d);
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"lat_s\":{\"n\":100,"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":50.5"), std::string::npos);
  EXPECT_NE(json.find("\"p99.9\":"), std::string::npos);
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":100"), std::string::npos);
}

TEST(ObsArtifact, WritesFileNamedAfterRun) {
  obs::RunArtifact a("write_test");
  a.metric("x", 1.0);
  const auto dir = std::filesystem::temp_directory_path() / "dsdn_obs_art";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(a.write(dir.string()));
  const auto path = dir / "BENCH_write_test.json";
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ObsArtifact, AttachedRegistryIsEmbedded) {
  obs::Registry reg;
  reg.counter("program.retries").add(4);
  obs::RunArtifact a("unit");
  a.attach_registry(reg.snapshot());
  EXPECT_NE(a.to_json().find("\"program.retries\":4"), std::string::npos);
}

}  // namespace
