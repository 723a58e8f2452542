#include "te/solver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "te/batch_solver.hpp"
#include "te/thread_pool.hpp"

namespace dsdn::te {

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void record_solver_obs(const SolveStats& s) {
  auto& reg = obs::Registry::global();
  static obs::Counter& m_solves = reg.counter("te.solver.solves");
  static obs::Counter& m_rounds = reg.counter("te.solver.rounds");
  static obs::Counter& m_searches = reg.counter("te.solver.path_searches");
  static obs::Counter& m_frozen = reg.counter("te.solver.frozen_demands");
  static obs::Counter& m_frozen_np =
      reg.counter("te.solver.frozen_no_path");
  static obs::Counter& m_frozen_rc =
      reg.counter("te.solver.frozen_round_cap");
  static obs::Histogram& m_wall = reg.histogram("te.solver.wall_s");
  static obs::Histogram& m_search_t =
      reg.histogram("te.solver.path_search_s");
  static obs::Histogram& m_alloc_t = reg.histogram("te.solver.allocation_s");
  m_solves.inc();
  m_rounds.add(s.rounds);
  m_searches.add(s.path_searches);
  m_frozen.add(s.frozen_demands);
  m_frozen_np.add(s.frozen_no_path);
  m_frozen_rc.add(s.frozen_round_cap);
  m_wall.record(s.wall_time_s);
  m_search_t.record(s.path_search_time_s);
  m_alloc_t.record(s.allocation_time_s);
}

// A path stored as a run of links in a flat per-solve arena; len 0 means
// "no path". Runs are written once and never modified, so a run can be
// shared (round path, cross-class carry) without copying its links.
struct Run {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

// Appends the predecessor chain dst -> src to `out` in src -> dst order
// and returns its run (len 0, nothing appended, when dst is unreached).
// Only targets of the preceding sssp() call may be extracted: their
// chains consist of finalized nodes and are therefore stable even under
// early stop.
Run append_links(const BatchGraph& g, const SsspWorkspace& ws,
                 std::uint32_t src, std::uint32_t dst,
                 std::vector<topo::LinkId>& out) {
  const auto off = static_cast<std::uint32_t>(out.size());
  if (!ws.reached(dst)) return {off, 0};
  for (std::uint32_t at = dst; at != src;) {
    const std::uint32_t lid = ws.pred_link[at];
    if (lid == topo::kInvalidLink) {
      out.resize(off);
      return {off, 0};
    }
    out.push_back(lid);
    at = g.link_src[lid];
  }
  std::reverse(out.begin() + off, out.end());
  return {off, static_cast<std::uint32_t>(out.size() - off)};
}

// Mutex-guarded freelist: SSSP scratch scales with concurrency, not with
// the number of distinct sources.
class WorkspacePool {
 public:
  std::unique_ptr<SsspWorkspace> acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<SsspWorkspace>();
    auto ws = std::move(free_.back());
    free_.pop_back();
    return ws;
  }
  void release(std::unique_ptr<SsspWorkspace> ws) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(ws));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SsspWorkspace>> free_;
};

// One demand's grant history entry; per-allocation histories are
// singly-linked chains through one flat array (newest first).
struct GrantEntry {
  std::uint32_t path_id;
  std::uint32_t prev;  // previous entry for the same allocation
  double rate;
};
constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();

// A (source, residual-rank) search bucket: every member demand has the
// same usable-link set this round, so one multi-destination SSSP serves
// all of them exactly. Buckets are recycled across rounds, so their
// vectors keep their capacity.
struct Bucket {
  std::uint32_t src = 0;
  double min_residual = 0.0;  // any member's threshold (all equivalent)
  std::vector<std::uint32_t> slots;
  std::vector<std::uint32_t> targets;
  // The members' extracted paths, back to back (runs index `links`);
  // searched in parallel, then appended to the solve's arena serially.
  std::vector<topo::LinkId> links;
  std::vector<Run> runs;
};

}  // namespace

BatchGraph build_batch_graph(const topo::Topology& topo, CsrView view) {
  const bool reversed = view == CsrView::kUpLinksReversed;
  // The solver and SR exclude down links up front (they always require
  // up, and link state is immutable for the duration of a solve).
  const bool up_only = view != CsrView::kAllLinks;
  BatchGraph g;
  g.num_nodes = static_cast<std::uint32_t>(topo.num_nodes());
  g.link_src.resize(topo.num_links());
  for (const topo::Link& l : topo.links())
    g.link_src[l.id] = reversed ? l.dst : l.src;
  g.row_offsets.reserve(g.num_nodes + 1);
  g.row_offsets.push_back(0);
  for (std::uint32_t u = 0; u < g.num_nodes; ++u) {
    const topo::Node& node = topo.node(u);
    for (topo::LinkId lid : reversed ? node.in_links : node.out_links) {
      const topo::Link& l = topo.link(lid);
      if (up_only && !l.up) continue;
      g.edge_dst.push_back(reversed ? l.src : l.dst);
      g.edge_link.push_back(lid);
      g.edge_cost.push_back(l.igp_metric);
    }
    g.row_offsets.push_back(static_cast<std::uint32_t>(g.edge_dst.size()));
  }
  return g;
}

void SsspWorkspace::ensure(std::uint32_t num_nodes) {
  if (dist.size() < num_nodes) {
    dist.resize(num_nodes);
    pred_link.resize(num_nodes);
    stamp.resize(num_nodes, 0u);
    target_stamp.resize(num_nodes, 0u);
  }
}

void sssp(const BatchGraph& g, const std::vector<double>& residual,
          double min_residual, std::uint32_t src,
          const std::uint32_t* targets, std::size_t num_targets,
          SsspWorkspace& ws) {
  ws.ensure(g.num_nodes);
  if (++ws.epoch == 0) {  // stamp wrap: one full clear every 2^32 runs
    std::fill(ws.stamp.begin(), ws.stamp.end(), 0u);
    std::fill(ws.target_stamp.begin(), ws.target_stamp.end(), 0u);
    ws.epoch = 1;
  }
  const std::uint32_t epoch = ws.epoch;
  double* const dist = ws.dist.data();
  std::uint32_t* const pred_link = ws.pred_link.data();
  std::uint32_t* const stamp = ws.stamp.data();
  std::uint32_t* const target_stamp = ws.target_stamp.data();
  const double* const res = residual.data();
  const std::uint32_t* const row = g.row_offsets.data();
  const std::uint32_t* const edge_dst = g.edge_dst.data();
  const std::uint32_t* const edge_link = g.edge_link.data();
  const double* const edge_cost = g.edge_cost.data();
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < num_targets; ++i) {
    if (target_stamp[targets[i]] != epoch) {
      target_stamp[targets[i]] = epoch;
      ++remaining;
    }
  }
  RadixHeap& queue = ws.queue;
  queue.clear();
  stamp[src] = epoch;
  dist[src] = 0.0;
  pred_link[src] = topo::kInvalidLink;
  queue.push(0.0, src);
  while (!queue.empty() && remaining > 0) {
    // (dist, node) keys are unique -- relaxation requires strict
    // improvement -- and the radix heap pops them in the same total
    // order as te::shortest_path's std::priority_queue, stale entries
    // included; a node is finalized on its first non-stale pop.
    const auto [d, u] = queue.pop();
    if (d > dist[u]) continue;
    if (target_stamp[u] == epoch) {
      target_stamp[u] = epoch - 1;  // finalize each target once
      if (--remaining == 0) break;
    }
    for (std::uint32_t e = row[u]; e < row[u + 1]; ++e) {
      if (res[edge_link[e]] < min_residual) continue;
      const std::uint32_t v = edge_dst[e];
      const double nd = d + edge_cost[e];
      if (stamp[v] != epoch) {
        stamp[v] = epoch;
        dist[v] = kInf;
        pred_link[v] = topo::kInvalidLink;
      }
      if (nd < dist[v]) {
        dist[v] = nd;
        pred_link[v] = edge_link[e];
        queue.push(nd, v);
      }
    }
  }
}

Solver::HeldTable& Solver::HeldTable::operator=(const HeldTable& other) {
  if (this != &other) {
    PathTables held = other.get();
    std::lock_guard<std::mutex> lock(mu_);
    held_ = std::move(held);
  }
  return *this;
}

PathTables Solver::HeldTable::get() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

PathTables Solver::HeldTable::fetch(const topo::Topology& topo) {
  const PathTables held = get();
  PathTables now = held.fetch(topo);
  if (now.table != held.table || now.detours != held.detours) {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = now;
  }
  return now;
}

std::size_t Solver::path_table_bytes() const {
  const std::shared_ptr<const PathCache> table = table_.get().table;
  return table ? table->bytes() : 0;
}

Solution Solver::solve(const topo::Topology& topo,
                       const traffic::TrafficMatrix& tm, SolveStats* stats,
                       const std::vector<double>* residual_override) const {
  DSDN_TRACE_SPAN("te.batch.solve");
  auto& reg = obs::Registry::global();
  static obs::Counter& m_solves = reg.counter("te.batch.solves");
  static obs::Counter& m_batches = reg.counter("te.batch.sssp_batches");
  static obs::Counter& m_batched = reg.counter("te.batch.batched_searches");
  static obs::Counter& m_rechecks = reg.counter("te.batch.grant_rechecks");
  static obs::Counter& m_reused = reg.counter("te.batch.path_reuses");
  static obs::Counter& m_interned = reg.counter("te.batch.interned_paths");
  static obs::Counter& m_table = reg.counter("te.batch.table_paths");
  static obs::Histogram& m_fill = reg.histogram("te.batch.batch_fill");

  SolveStats local_stats;

  Solution solution;
  solution.allocations.reserve(tm.size());
  for (const traffic::Demand& d : tm.demands()) {
    Allocation a;
    a.demand = d;
    solution.allocations.push_back(std::move(a));
  }

  std::vector<double> residual;
  if (residual_override) {
    residual = *residual_override;
  } else {
    residual.resize(topo.num_links());
    for (std::size_t l = 0; l < topo.num_links(); ++l)
      residual[l] = topo.link(static_cast<topo::LinkId>(l)).capacity_gbps;
  }
  // A down link contributes no capacity -- also when the caller seeded
  // residuals (an override computed before the link failed may carry
  // leftover headroom the allocator must never hand out).
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    if (!topo.link(static_cast<topo::LinkId>(l)).up) residual[l] = 0.0;
  }

  // Held for the whole solve, so a concurrent solve of another topology
  // on this Solver cannot drop them. A build is its own layer
  // (te.underlay.build), outside wall_time_s; detour rows fill inside it.
  const PathTables tables =
      options_.path_table ? table_.fetch(topo) : PathTables{};

  const auto t_start = Clock::now();

  const BatchGraph graph = build_batch_graph(topo, CsrView::kUpLinks);

  WorkspacePool ws_pool;
  SsspWorkspace grant_ws;  // dedicated scratch for serialized re-searches

  // Dense ids for the distinct (src, dst) pairs among the demands. A
  // non-empty path determines its endpoints, so paths are interned per
  // pair and the cross-class carry below is one entry per pair.
  std::vector<std::uint32_t> pair_of(solution.allocations.size());
  std::uint32_t num_pairs = 0;
  {
    const auto endpoints = [&](std::uint32_t i) {
      const traffic::Demand& d = solution.allocations[i].demand;
      return std::pair(d.src, d.dst);
    };
    std::vector<std::uint32_t> order(pair_of.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return endpoints(a) < endpoints(b);
              });
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (k > 0 && endpoints(order[k]) != endpoints(order[k - 1]))
        ++num_pairs;
      pair_of[order[k]] = num_pairs;
    }
    if (!order.empty()) ++num_pairs;
  }

  // Interned paths: concatenated link sequences plus offsets; the id is
  // the insertion index. Each pair chains its paths newest first, and a
  // duplicate is found by comparing against that pair's few paths.
  std::vector<topo::LinkId> path_pool;
  std::vector<std::uint32_t> path_offsets{0};
  std::vector<std::uint32_t> pair_newest(num_pairs, kNoEntry);
  std::vector<std::uint32_t> older_path;  // by path id
  auto path_span = [&](std::uint32_t id) {
    return std::pair<const topo::LinkId*, const topo::LinkId*>{
        path_pool.data() + path_offsets[id],
        path_pool.data() + path_offsets[id + 1]};
  };
  auto intern_path = [&](std::uint32_t pair,
                         std::span<const topo::LinkId> links) {
    for (std::uint32_t id = pair_newest[pair]; id != kNoEntry;
         id = older_path[id]) {
      auto [b, e] = path_span(id);
      if (static_cast<std::size_t>(e - b) == links.size() &&
          std::equal(b, e, links.begin()))
        return id;
    }
    const auto id = static_cast<std::uint32_t>(path_offsets.size() - 1);
    path_pool.insert(path_pool.end(), links.begin(), links.end());
    path_offsets.push_back(static_cast<std::uint32_t>(path_pool.size()));
    older_path.push_back(pair_newest[pair]);
    pair_newest[pair] = id;
    m_interned.inc();
    return id;
  };

  // Flat grant log, chained per allocation: one (path_id, rate) entry per
  // distinct path, summed in grant order.
  std::vector<GrantEntry> grant_entries;
  std::vector<std::uint32_t> grant_head(solution.allocations.size(), kNoEntry);
  auto accumulate_grant = [&](std::size_t alloc, std::uint32_t path_id,
                              double grant) {
    for (std::uint32_t at = grant_head[alloc]; at != kNoEntry;
         at = grant_entries[at].prev) {
      if (grant_entries[at].path_id == path_id) {
        grant_entries[at].rate += grant;
        return;
      }
    }
    grant_entries.push_back({path_id, grant_head[alloc], grant});
    grant_head[alloc] = static_cast<std::uint32_t>(grant_entries.size() - 1);
  };

  // Every path searched during the solve, as runs of one arena: a search
  // appends a run, nothing is ever overwritten or freed before the solve
  // ends.
  std::vector<topo::LinkId> arena;
  auto links_of = [&](Run r) {
    return std::span<const topo::LinkId>(arena.data() + r.off, r.len);
  };
  auto bottleneck_of = [&](Run r) {
    double bn = kInf;
    for (topo::LinkId l : links_of(r)) bn = std::min(bn, residual[l]);
    return bn;
  };
  // The pair's table path (Fig 15), or its detour path when the table
  // path crosses a down link, appended to the arena; len 0 (nothing
  // appended) without a table or when the path falls below
  // `min_residual`. A path that clears it is what a fresh search at that
  // threshold would return, link for link (DESIGN.md, SoA solver).
  auto table_path = [&](std::uint32_t src, std::uint32_t dst,
                        double min_residual) {
    const auto off = static_cast<std::uint32_t>(arena.size());
    tables.walk(
        src, dst,
        [res = residual.data(), min_residual](topo::LinkId l) {
          return res[l] >= min_residual;
        },
        arena);
    return Run{off, static_cast<std::uint32_t>(arena.size() - off)};
  };

  // Per-class demand state, SoA keyed by slot.
  std::vector<std::size_t> alloc_index;
  std::vector<std::uint32_t> slot_src, slot_dst;
  std::vector<double> remaining, satisfied_below, threshold;
  std::vector<Run> round_path;
  // The sliver threshold round_path was last searched or validated at;
  // negative = no cached path yet.
  std::vector<double> cached_at;
  // 1 when round_path is the pair's table or detour path, which its
  // bottleneck alone revalidates; 0 when a search found it.
  std::vector<char> from_table;

  // Round-local scratch, reused across rounds.
  std::vector<std::uint32_t> active, next_active, search_list, rank_checks;
  std::vector<double> rank_values;
  std::vector<Bucket> buckets;  // [0, num_buckets) are this round's
  std::size_t num_buckets = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> bucket_of;

  // Cross-class path carry: residuals decrease monotonically across the
  // whole solve, so a path validated in an earlier class obeys the same
  // reuse invariant as one from an earlier round. Classes share (src,
  // dst) pairs, which turns class boundaries from cold restarts into
  // warm ones. Indexed by pair; carry_at < 0 = nothing carried.
  std::vector<Run> carry_path(num_pairs);
  std::vector<double> carry_at(num_pairs, -1.0);
  std::vector<char> carry_from_table(num_pairs, 0);

  for (int cls = 0; cls < metrics::kNumPriorityClasses; ++cls) {
    alloc_index.clear();
    slot_src.clear();
    slot_dst.clear();
    remaining.clear();
    satisfied_below.clear();
    threshold.clear();
    round_path.clear();
    cached_at.clear();
    from_table.clear();
    active.clear();
    for (std::size_t i = 0; i < solution.allocations.size(); ++i) {
      const auto& d = solution.allocations[i].demand;
      if (static_cast<int>(d.priority) == cls &&
          d.rate_gbps > detail::kEpsilonGbps) {
        active.push_back(static_cast<std::uint32_t>(alloc_index.size()));
        alloc_index.push_back(i);
        slot_src.push_back(d.src);
        slot_dst.push_back(d.dst);
        remaining.push_back(d.rate_gbps);
        satisfied_below.push_back(
            std::max(detail::kEpsilonGbps,
                     detail::kSatisfiedTolerance * d.rate_gbps));
        threshold.push_back(0.0);
        round_path.push_back({});
        cached_at.push_back(-1.0);
        from_table.push_back(0);
        if (carry_at[pair_of[i]] >= 0.0) {
          round_path.back() = carry_path[pair_of[i]];
          cached_at.back() = carry_at[pair_of[i]];
          from_table.back() = carry_from_table[pair_of[i]];
        }
      }
    }

    std::size_t round = 0;
    while (!active.empty() && round < detail::kMaxRounds) {
      ++round;
      ++local_stats.rounds;

      double max_remaining = 0.0;
      for (std::uint32_t slot : active)
        max_remaining = std::max(max_remaining, remaining[slot]);
      const double quantum = detail::round_quantum(options_, max_remaining);
      for (std::uint32_t slot : active)
        threshold[slot] = detail::sliver_threshold(quantum, remaining[slot]);

      // ---- Step 1: batched path search ----
      DSDN_TRACE_SPAN("te.batch.round");
      const auto t_search = Clock::now();
      {
        DSDN_TRACE_SPAN("te.batch.path_search");
        // A slot without a held path walks its table row; a miss
        // searches.
        const auto table_or_search = [&](std::uint32_t slot) {
          const Run r =
              table_path(slot_src[slot], slot_dst[slot], threshold[slot]);
          if (r.len == 0) {
            search_list.push_back(slot);
            return;
          }
          round_path[slot] = r;
          from_table[slot] = 1;
          cached_at[slot] = threshold[slot];
          ++local_stats.table_paths;
        };

        // A held table path is what a fresh search returns whenever its
        // bottleneck clears the threshold (any usable set containing the
        // shortest path over all links returns it); below it, a walk
        // would stop on the same link, so the slot searches. A held
        // searched path needs the rank check below.
        search_list.clear();
        rank_checks.clear();
        std::size_t reused = 0;
        for (std::uint32_t slot : active) {
          if (cached_at[slot] < 0.0) {
            table_or_search(slot);
          } else if (!from_table[slot]) {
            rank_checks.push_back(slot);
          } else if (bottleneck_of(round_path[slot]) >= threshold[slot]) {
            cached_at[slot] = threshold[slot];
            ++reused;
          } else {
            search_list.push_back(slot);
          }
        }

        // Residual-rank values: thresholds t1 <= t2 see the same
        // usable-link set iff no link residual lies in [t1, t2), so the
        // rank of a threshold among the sorted distinct sub-threshold
        // residuals is an exact equivalence key -- used both to bucket
        // fresh searches and to validate held searched paths. value_cap
        // bounds every threshold in play this round (current ones via the
        // largest remaining demand's, held ones explicitly). A round with
        // neither skips the sort.
        rank_values.clear();
        if (!rank_checks.empty() || !search_list.empty()) {
          double value_cap = detail::sliver_threshold(quantum, max_remaining);
          for (std::uint32_t slot : rank_checks)
            value_cap = std::max(value_cap, cached_at[slot]);
          for (std::size_t e = 0; e < graph.edge_link.size(); ++e) {
            const double r = residual[graph.edge_link[e]];
            if (r < value_cap) rank_values.push_back(r);
          }
          std::sort(rank_values.begin(), rank_values.end());
          rank_values.erase(
              std::unique(rank_values.begin(), rank_values.end()),
              rank_values.end());
        }

        // Searched-path reuse: within a class, residuals only decrease,
        // so the usable-link set for this demand can only have grown
        // through links whose residual now sits in [threshold,
        // cached_at). If none does and the held path still clears the
        // new threshold, a fresh Dijkstra would reproduce it bit-exactly
        // (shrinking the usable set can neither beat it on cost nor
        // steal its tie-breaks) -- skip the search. Failing that, the
        // table path is taken when it clears the threshold.
        for (std::uint32_t slot : rank_checks) {
          const double t_new = threshold[slot];
          const auto lo =
              std::lower_bound(rank_values.begin(), rank_values.end(), t_new);
          const auto hi =
              std::lower_bound(lo, rank_values.end(), cached_at[slot]);
          if (lo == hi && bottleneck_of(round_path[slot]) >= t_new) {
            cached_at[slot] = t_new;
            ++reused;
          } else {
            table_or_search(slot);
          }
        }
        m_reused.add(reused);

        num_buckets = 0;
        bucket_of.clear();
        for (std::uint32_t slot : search_list) {
          const auto rank = static_cast<std::uint64_t>(
              std::lower_bound(rank_values.begin(), rank_values.end(),
                               threshold[slot]) -
              rank_values.begin());
          const std::uint64_t key =
              (static_cast<std::uint64_t>(slot_src[slot]) << 32) | rank;
          auto [it, inserted] = bucket_of.try_emplace(
              key, static_cast<std::uint32_t>(num_buckets));
          if (inserted) {
            if (num_buckets == buckets.size()) buckets.emplace_back();
            Bucket& fresh = buckets[num_buckets++];
            fresh.src = slot_src[slot];
            fresh.min_residual = threshold[slot];
            fresh.slots.clear();
            fresh.targets.clear();
          }
          Bucket& b = buckets[it->second];
          b.slots.push_back(slot);
          b.targets.push_back(slot_dst[slot]);
        }

        // Buckets fan out on the caller's pool; without one they run
        // serially on the calling thread.
        const auto search_bucket = [&](std::size_t bi) {
          Bucket& b = buckets[bi];
          auto ws = ws_pool.acquire();
          sssp(graph, residual, b.min_residual, b.src, b.targets.data(),
               b.targets.size(), *ws);
          b.links.clear();
          b.runs.clear();
          for (std::uint32_t slot : b.slots) {
            b.runs.push_back(
                append_links(graph, *ws, b.src, slot_dst[slot], b.links));
          }
          ws_pool.release(std::move(ws));
        };
        if (options_.pool) {
          options_.pool->parallel_for(num_buckets, search_bucket);
        } else {
          for (std::size_t bi = 0; bi < num_buckets; ++bi) search_bucket(bi);
        }
        for (std::size_t bi = 0; bi < num_buckets; ++bi) {
          const Bucket& b = buckets[bi];
          const auto base = static_cast<std::uint32_t>(arena.size());
          arena.insert(arena.end(), b.links.begin(), b.links.end());
          for (std::size_t i = 0; i < b.slots.size(); ++i) {
            round_path[b.slots[i]] = {base + b.runs[i].off, b.runs[i].len};
            cached_at[b.slots[i]] = threshold[b.slots[i]];
            from_table[b.slots[i]] = 0;
          }
          m_fill.record(static_cast<double>(b.slots.size()));
        }
        m_batches.add(num_buckets);
        m_batched.add(search_list.size());
      }
      // Searches actually performed (reused and table paths are free, so
      // this can undercut one search per active demand per round).
      local_stats.path_searches += search_list.size();
      local_stats.path_search_time_s += seconds_since(t_search);

      // ---- Step 2: serialized grant kernel ----
      // Demands grant in slot order; paths are contiguous LinkId runs so
      // the bottleneck scan and the residual subtraction are flat-array
      // loops.
      DSDN_TRACE_SPAN("te.batch.waterfill");
      const auto t_alloc = Clock::now();
      next_active.clear();
      for (std::uint32_t slot : active) {
        Allocation& alloc = solution.allocations[alloc_index[slot]];
        Run& rp = round_path[slot];
        if (rp.len == 0) {
          ++local_stats.frozen_no_path;
          continue;
        }
        double bottleneck = bottleneck_of(rp);
        if (bottleneck < threshold[slot]) {
          // Earlier demands drained this round's path below the residual
          // floor it was searched with; re-search at current residuals
          // rather than granting a sub-sliver and spinning. A drained
          // table path is the walk's answer too, so it goes straight to
          // the search.
          m_rechecks.inc();
          rp = from_table[slot]
                   ? Run{}
                   : table_path(slot_src[slot], slot_dst[slot],
                                threshold[slot]);
          from_table[slot] = rp.len > 0;
          if (rp.len > 0) {
            ++local_stats.table_paths;
          } else {
            ++local_stats.path_searches;
            const std::uint32_t target = slot_dst[slot];
            sssp(graph, residual, threshold[slot], slot_src[slot], &target,
                 1, grant_ws);
            rp = append_links(graph, grant_ws, slot_src[slot], target, arena);
          }
          cached_at[slot] = threshold[slot];
          if (rp.len == 0) {
            ++local_stats.frozen_no_path;
            continue;
          }
          bottleneck = bottleneck_of(rp);
        }
        double grant = std::min({quantum, remaining[slot], bottleneck});
        if (remaining[slot] - grant <= satisfied_below[slot] &&
            bottleneck >= remaining[slot]) {
          grant = remaining[slot];
        }
        if (grant > detail::kEpsilonGbps) {
          for (topo::LinkId l : links_of(rp)) residual[l] -= grant;
          const std::size_t ai = alloc_index[slot];
          accumulate_grant(ai, intern_path(pair_of[ai], links_of(rp)), grant);
          alloc.allocated_gbps += grant;
          remaining[slot] -= grant;
        }
        if (remaining[slot] > satisfied_below[slot])
          next_active.push_back(slot);
      }
      std::swap(active, next_active);
      local_stats.allocation_time_s += seconds_since(t_alloc);
    }
    local_stats.frozen_round_cap += active.size();
    for (std::size_t slot = 0; slot < alloc_index.size(); ++slot) {
      // An empty path records "nothing found", which a later class at a
      // lower threshold must not inherit; keep the older positive entry
      // instead (still valid -- validation re-proves it).
      if (cached_at[slot] < 0.0 || round_path[slot].len == 0) continue;
      const std::uint32_t pair = pair_of[alloc_index[slot]];
      carry_path[pair] = round_path[slot];
      carry_at[pair] = cached_at[slot];
      carry_from_table[pair] = from_table[slot];
    }
  }
  local_stats.frozen_demands =
      local_stats.frozen_no_path + local_stats.frozen_round_cap;

  // Finalize: gather each allocation's grant chain, merge order already
  // guaranteed by accumulate_grant, and emit paths sorted by link
  // sequence.
  std::vector<std::pair<std::uint32_t, double>> entries;
  for (std::size_t i = 0; i < solution.allocations.size(); ++i) {
    Allocation& a = solution.allocations[i];
    if (a.allocated_gbps <= detail::kEpsilonGbps) {
      a.allocated_gbps = 0.0;
      continue;
    }
    entries.clear();
    for (std::uint32_t at = grant_head[i]; at != kNoEntry;
         at = grant_entries[at].prev)
      entries.emplace_back(grant_entries[at].path_id, grant_entries[at].rate);
    std::sort(entries.begin(), entries.end(),
              [&](const auto& lhs, const auto& rhs) {
                auto [lb, le] = path_span(lhs.first);
                auto [rb, re] = path_span(rhs.first);
                return std::lexicographical_compare(lb, le, rb, re);
              });
    a.paths.reserve(entries.size());
    for (const auto& [path_id, rate] : entries) {
      auto [b, e] = path_span(path_id);
      WeightedPath wp;
      wp.path.links.assign(b, e);
      wp.weight = rate / a.allocated_gbps;
      a.paths.push_back(std::move(wp));
    }
  }

  local_stats.wall_time_s = seconds_since(t_start);
  m_solves.inc();
  m_table.add(local_stats.table_paths);
  record_solver_obs(local_stats);
  if (stats) *stats = local_stats;
  return solution;
}

}  // namespace dsdn::te
