// The repository benchmark's binary. perfbench/run.py builds it and
// runs it as
//
//   perfbench --workload <b4_churn|te_solve|b4_forward> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]
//             [--commit <id>]
//
// and it prints three JSON lines on stdout: run metadata, the
// workload's named detail numbers, and last the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (every layer of the table below, 0 where the workload gives that
// layer no work), and --trace-out receives every recorded span.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, grouped by the library module it measures.
// The same list is in BENCHMARK.json; README.md maps each one to the
// end-to-end metric it should move.
constexpr LayerMetric kLayers[] = {
    // sim: emulated NSU flooding, per applied event
    {"flood.deliveries", "count"},
    {"flood.nsu_bytes", "B"},
    {"flood.sim_ms", "ms"},
    // core.wire, per NSU
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.bytes_per_nsu", "B"},
    // core.state_db
    {"state_db.apply_us", "us"},
    {"state_db.accept_ratio", "ratio"},
    {"state_db.demands_us", "us"},
    // te, inside the fleet (per router solve / per event)
    {"te.router_solve_ms", "ms"},
    {"te.solves_per_event", "count"},
    {"te.rounds", "count"},
    {"te.path_searches", "count"},
    // te, at scale (te_solve)
    {"te.cold_solve_s", "s"},
    {"te.warm_solve_s", "s"},
    {"te.sr_solve_s", "s"},
    {"te.path_search_s", "s"},
    {"te.allocation_s", "s"},
    {"te.warm_affected_demands", "count"},
    {"te.warm_reuse_fraction", "ratio"},
    {"te.warm_fallbacks", "count"},
    {"te.sr_underlay_s", "s"},
    // core.programmer, per router
    {"programmer.prefixes_us", "us"},
    {"programmer.encap_us", "us"},
    {"programmer.bypasses_us", "us"},
    {"programmer.routes_installed", "count"},
    // core.controller, per router
    {"controller.recompute_ms", "ms"},
    {"controller.unattributed_ms", "ms"},
    // one traced event, end to end
    {"event.traced_ms", "ms"},
    {"event.layer_sum_ms", "ms"},
    {"event.coverage", "ratio"},
    {"sim.engine_ms", "ms"},
    // dataplane.snapshot
    {"snapshot.publish_us", "us"},
    {"snapshot.epochs", "count"},
    // dataplane.pipeline
    {"pipeline.ns_per_packet", "ns"},
    {"pipeline.slow_path_fraction", "ratio"},
    {"pipeline.frr_fraction", "ratio"},
    {"pipeline.hops_mean", "count"},
    {"pipeline.window_drop_fraction", "ratio"},
    {"pipeline.event_lag_ms", "ms"},
    {"pipeline.forward_mpps", "Mpps"},
    {"pipeline.churn_forward_mpps", "Mpps"},
    {"pipeline.churn_batch_p99_us", "us"},
    {"pipeline.lost_traffic_ms", "ms"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        const auto first = v.find_first_not_of(' ');
        return first == std::string::npos ? v : v.substr(first);
      }
    }
  }
  return "unknown";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload <b4_churn|te_solve|b4_forward> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--trace-out <file>] [--commit <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--trace-out") {
      opt.trace_path = argv[++i];
    } else if (a == "--commit") {
      commit = argv[++i];
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  Tracer tracer(opt.trace);
  Result r;
  if (opt.workload == "b4_churn") {
    r = run_b4_churn(opt, tracer);
  } else if (opt.workload == "te_solve") {
    r = run_te_solve(opt, tracer);
  } else if (opt.workload == "b4_forward") {
    r = run_b4_forward(opt, tracer);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (r.attempted == 0) r.fail("no operation was attempted");
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", e.c_str());
  }

  std::string meta = "{\"workload\": \"" + json_escape(opt.workload) +
                     "\", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + num(opt.seconds) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"smoke\": " + (opt.smoke ? "true" : "false") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpu_model\": \"" + json_escape(cpu_model()) +
                     "\", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
                     "\", \"cxx_flags\": \"" + json_escape(PERFBENCH_CXX_FLAGS) +
                     "\", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) +
                     "\", \"commit\": \"" + json_escape(commit) +
                     "\", \"timed_operations\": " + std::to_string(r.ops) +
                     ", \"setup_repeats\": " + std::to_string(r.setup_s.size()) +
                     "}";
  std::printf("{\"meta\": %s}\n", meta.c_str());

  std::string detail = "{\"error_rate\": " +
                       num(static_cast<double>(r.failed) /
                           static_cast<double>(std::max<std::uint64_t>(
                               r.attempted, 1)));
  for (const auto& [k, v] : r.detail) detail += ", \"" + k + "\": " + num(v);
  detail += ", \"op_p50_ms\": " + num(1e3 * r.op_p50_s) +
            ", \"op_p90_ms\": " + num(1e3 * r.op_p90_s);
  std::printf("{\"detail\": %s}\n", (detail + "}").c_str());

  std::string metrics;
  const auto add = [&](const std::string& name, double v, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + num(v) + ", \"unit\": \"" +
               unit + "\"}";
  };
  if (!opt.trace) {
    add("setup_s", median(r.setup_s), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("ops_per_s",
        r.busy_s > 0 ? static_cast<double>(r.ops) / r.busy_s : 0.0, "1/s");
  } else {
    for (const LayerMetric& m : kLayers) {
      double v = 0.0;
      for (const auto& [k, x] : r.layers) {
        if (k == m.name) v = x;
      }
      add(m.name, v, m.unit);
    }
    if (!opt.trace_path.empty() && !tracer.write(opt.trace_path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_path.c_str());
    }
  }
  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
