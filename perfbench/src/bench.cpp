#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Result::set_ops(const std::vector<double>& op_s) {
  ops = op_s.size();
  busy_s = 0.0;
  for (double s : op_s) busy_s += s;
  op_p50_s = percentile(op_s, 0.5);
  op_p90_s = percentile(op_s, 0.9);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

void add_stack(Fnv& f, const dsdn::dataplane::LabelStack& s) {
  f.add(static_cast<std::uint64_t>(s.depth()));
  for (auto l : s.labels()) f.add(static_cast<std::uint64_t>(l));
}

}  // namespace

std::uint64_t solution_digest(const dsdn::te::Solution& s) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(s.allocations.size()));
  for (const auto& a : s.allocations) {
    f.add(static_cast<std::uint64_t>(a.demand.src));
    f.add(static_cast<std::uint64_t>(a.demand.dst));
    f.add(a.allocated_gbps);
    f.add(static_cast<std::uint64_t>(a.paths.size()));
    for (const auto& wp : a.paths) {
      f.add(wp.weight);
      for (auto l : wp.path.links) f.add(static_cast<std::uint64_t>(l));
      for (auto n : wp.segments) f.add(static_cast<std::uint64_t>(n) << 32);
    }
  }
  return f.h;
}

std::uint64_t dataplane_digest(const dsdn::topo::Topology& topo,
                               const dsdn::dataplane::RouterDataplane& hw) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(hw.ingress.num_prefixes()));
  for (const auto& [key, entry] : hw.ingress.encap_table()) {
    f.add(static_cast<std::uint64_t>(key.first));
    f.add(static_cast<std::uint64_t>(key.second));
    for (const auto& r : entry.routes) {
      f.add(r.weight);
      add_stack(f, r.stack);
    }
  }
  // Bypass tables are hash maps: probe them in link order instead.
  f.add(static_cast<std::uint64_t>(hw.bypass.num_protected_links()));
  for (dsdn::topo::LinkId l = 0; l < topo.num_links(); ++l) {
    if (!hw.bypass.protects(l)) continue;
    f.add(static_cast<std::uint64_t>(l));
    for (std::uint64_t e = 0; e < 4; ++e) {
      if (const auto* s = hw.bypass.select_stack(l, e)) add_stack(f, *s);
    }
  }
  return f.h;
}

Inputs b4_inputs(const Options& opt, std::uint64_t salt) {
  Inputs in;
  dsdn::traffic::GravityParams gp;
  if (opt.smoke) {
    in.topo = dsdn::topo::make_abilene();
    gp.pair_fraction = 1.0;
  } else {
    in.topo = dsdn::topo::make_b4_like();
    gp.pair_fraction = 0.15;
  }
  gp.target_max_utilization = 0.6;
  gp.seed = dsdn::util::splitmix64(opt.seed ^ salt);
  in.tm = dsdn::traffic::generate_gravity(in.topo, gp).aggregated();
  return in;
}

Inputs b2_inputs(const Options& opt, std::uint64_t salt) {
  if (opt.smoke) return b4_inputs(opt, salt);
  Inputs in;
  in.topo = dsdn::topo::make_b2_like();
  dsdn::traffic::GravityParams gp;
  gp.pair_fraction = 0.01;
  gp.target_max_utilization = 0.6;
  gp.seed = dsdn::util::splitmix64(opt.seed ^ salt);
  in.tm = dsdn::traffic::generate_gravity(in.topo, gp).aggregated();
  return in;
}

std::vector<dsdn::topo::LinkId> safe_fibers(const dsdn::topo::Topology& topo,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<dsdn::topo::LinkId> fibers;
  for (const dsdn::topo::Link& l : topo.links()) {
    if (l.up && l.reverse != dsdn::topo::kInvalidLink && l.id < l.reverse)
      fibers.push_back(l.id);
  }
  dsdn::util::Rng rng(seed);
  rng.shuffle(fibers);
  // Does the far end stay reachable over up links without the fiber?
  std::vector<char> seen(topo.num_nodes());
  std::vector<dsdn::topo::NodeId> queue;
  const auto survives = [&](dsdn::topo::LinkId fiber) {
    const dsdn::topo::Link& cut = topo.link(fiber);
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(1, cut.src);
    seen[cut.src] = 1;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      for (dsdn::topo::LinkId lid : topo.node(queue[i]).out_links) {
        const dsdn::topo::Link& l = topo.link(lid);
        if (!l.up || lid == fiber || lid == cut.reverse || seen[l.dst]) continue;
        if (l.dst == cut.dst) return true;
        seen[l.dst] = 1;
        queue.push_back(l.dst);
      }
    }
    return false;
  };
  std::vector<dsdn::topo::LinkId> out;
  for (dsdn::topo::LinkId f : fibers) {
    if (out.size() >= count) break;
    if (survives(f)) out.push_back(f);
  }
  const std::size_t distinct = out.size();
  while (distinct > 0 && out.size() < count) out.push_back(out[out.size() % distinct]);
  return out;
}

// ---- Tracer ----

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  aggs_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::fold(const Span& s) {
  Aggregate& a = aggs_[s.name];
  const std::int64_t ns = std::max<std::int64_t>(s.end_ns - s.start_ns, 0);
  ++a.count;
  a.sum_s += static_cast<double>(ns) * 1e-9;
  const int b = ns > 0 ? std::bit_width(static_cast<std::uint64_t>(ns)) - 1 : 0;
  ++a.hist[std::min(b, 39)];
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent,
                    std::uint64_t event) {
  if (!enabled_) return;
  Span s;
  s.name = name_id(name);
  s.parent = parent;
  s.event = event;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - origin_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - origin_).count();
  spans_.push_back(s);
  fold(s);
}

std::uint32_t Tracer::open(const std::string& name, std::uint32_t parent,
                           std::uint64_t event) {
  if (!enabled_) return kNoParent;
  Span s;
  s.name = name_id(name);
  s.parent = parent;
  s.event = event;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_).count();
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t span) {
  if (!enabled_ || span >= spans_.size()) return;
  spans_[span].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - origin_).count();
  fold(spans_[span]);
}

bool Tracer::write(const std::string& path, const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"meta\": %s,\n\"aggregates\": {", meta_json.c_str());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Aggregate& a = aggs_[i];
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %llu, \"sum_s\": %.9g, "
                 "\"log2_ns_hist\": [", i ? "," : "", names_[i].c_str(),
                 static_cast<unsigned long long>(a.count), a.sum_s);
    for (int b = 0; b < 40; ++b) {
      std::fprintf(f, "%s%llu", b ? "," : "",
                   static_cast<unsigned long long>(a.hist[b]));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "},\n\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
               "\"parent\", \"event\"],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[\"%s\",%lld,%lld,%lld,%llu]", i ? "," : "",
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.event));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
