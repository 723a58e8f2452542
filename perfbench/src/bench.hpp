#pragma once

// Shared plumbing for the repository benchmark: options, the result a
// workload hands back, clocks and percentiles, the span recorder used by
// traced runs, and digests that let a workload check its own outputs.
//
// Every workload drives only public library APIs. Layers are timed from
// the outside, around the benchmark's calls into them; nothing here
// reaches into the library's internals.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/forwarder.hpp"
#include "te/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Abilene-scale inputs for the self-test: every workload finishes in
  // seconds and exercises the same code paths.
  bool smoke = false;
  // Where a traced run writes its spans (empty = nowhere).
  std::string trace_path;
};

// Number of independent set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // First few failure descriptions, printed to stderr.
  std::vector<std::string> errors;
  // Set-up wall time of each repeat (s).
  std::vector<double> setup_s;
  // The timed operations: how many, their summed wall time (s), and the
  // median and 90th percentile of one operation's wall time (s).
  std::uint64_t ops = 0;
  double busy_s = 0.0;
  double op_p50_s = 0.0;
  double op_p90_s = 0.0;
  // Workload-specific numbers under the names the documentation uses
  // (reconverge_p50_s, cold_solve_s, forward_mpps, ...), printed on the
  // detail line of every run.
  std::vector<std::pair<std::string, double>> detail;
  // Per-layer metrics (traced runs only): name -> value. Units come from
  // the per-layer table in main.cpp.
  std::vector<std::pair<std::string, double>> layers;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  void layer(const std::string& name, double v) { layers.emplace_back(name, v); }
  // Fills ops, busy_s and the percentiles from every operation's time.
  void set_ops(const std::vector<double>& op_s);
};

// Percentile by linear interpolation between closest ranks (q in [0,1]).
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// Peak resident set of this process so far (MB).
double peak_rss_mb();

// Order-sensitive digests of solver output and of one router's
// programmed tables: two runs that did the same work produce equal
// digests, bit for bit.
std::uint64_t solution_digest(const dsdn::te::Solution& s);
std::uint64_t dataplane_digest(const dsdn::topo::Topology& topo,
                               const dsdn::dataplane::RouterDataplane& hw);

// In-memory span recorder for traced runs. Every span is kept (no ring,
// nothing dropped) and also folded into a per-name aggregate: count,
// sum, and a log2 histogram of durations. write() dumps both as JSON at
// the end of the run.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  // Records a finished span. A disabled tracer records nothing.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint32_t parent,
              std::uint64_t event);
  // Opens a span whose end is filled in by close(); children recorded
  // in between can name it as their parent. Returns kNoParent when
  // disabled.
  std::uint32_t open(const std::string& name, std::uint32_t parent,
                     std::uint64_t event);
  void close(std::uint32_t span);

  // Writes {"meta": <meta_json>, "aggregates": {...}, "spans": [...]}.
  bool write(const std::string& path, const std::string& meta_json) const;

 private:
  struct Aggregate {
    std::uint64_t count = 0;
    double sum_s = 0.0;
    std::uint64_t hist[40] = {};  // bucket b: [2^b, 2^(b+1)) ns
  };
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t event = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::uint32_t name_id(const std::string& name);
  void fold(const Span& s);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Aggregate> aggs_;
  std::vector<Span> spans_;
};

// Seeded inputs. The B4-like fleet carries ~4,300 aggregated gravity
// demands (pair fraction 0.15, 60% max utilisation); the B2-like one
// ~27,000 (pair fraction 0.01). Smoke runs substitute Abilene for both.
// `salt` decorrelates matrices drawn from one workload seed.
struct Inputs {
  dsdn::topo::Topology topo;
  dsdn::traffic::TrafficMatrix tm;
};
Inputs b4_inputs(const Options& opt, std::uint64_t salt);
Inputs b2_inputs(const Options& opt, std::uint64_t salt);

// `count` seeded duplex fibers (one direction's link id each) whose loss
// alone keeps the network connected, cycling when there are fewer. One
// breadth-first search per candidate: sim::pick_failure_fibers checks
// strong connectivity of the whole graph per candidate, which takes
// tens of seconds at B2 scale.
std::vector<dsdn::topo::LinkId> safe_fibers(const dsdn::topo::Topology& topo,
                                            std::size_t count,
                                            std::uint64_t seed);

// Workload entry points (one translation unit each).
Result run_b4_churn(const Options& opt, Tracer& tracer);
Result run_te_solve(const Options& opt, Tracer& tracer);
Result run_b4_forward(const Options& opt, Tracer& tracer);

}  // namespace perfbench
