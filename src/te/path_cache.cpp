#include "te/path_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "te/batch_solver.hpp"

namespace dsdn::te {

namespace {

// Bucket hash of a topology's key (node count, every link's src, dst and
// metric bits). Only buckets the registry; matches() decides.
std::uint64_t key_hash(const topo::Topology& topo) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = topo.num_nodes() * kMul;
  for (const topo::Link& l : topo.links()) {
    h = (h ^ ((static_cast<std::uint64_t>(l.src) << 32) | l.dst)) * kMul;
    h = (h ^ std::bit_cast<std::uint64_t>(l.igp_metric)) * kMul;
  }
  return h ^ (h >> 29);
}

struct Registry {
  std::mutex mu;
  std::unordered_multimap<std::uint64_t, std::weak_ptr<const PathCache>>
      tables;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

PathCache::PathCache(const topo::Topology& topo) : n_(topo.num_nodes()) {
  DSDN_TRACE_SPAN("te.underlay.build");
  static obs::Counter& m_builds =
      obs::Registry::global().counter("te.table.builds");
  m_builds.inc();
  links_.reserve(topo.num_links());
  for (const topo::Link& l : topo.links())
    links_.push_back({l.src, l.dst, std::bit_cast<std::uint64_t>(l.igp_metric)});
  // One full run of the solver's SSSP kernel per source over a CSR of
  // every link; an all-zero residual vector at threshold 0 makes every
  // link usable, whatever its capacity or state.
  const BatchGraph g = build_batch_graph(topo, CsrView::kAllLinks);
  const std::vector<double> residual(topo.num_links(), 0.0);
  std::vector<std::uint32_t> targets(n_);
  std::iota(targets.begin(), targets.end(), 0u);
  pred_.assign(n_ * n_, topo::kInvalidLink);
  SsspWorkspace ws;
  for (std::uint32_t s = 0; s < n_; ++s) {
    sssp(g, residual, 0.0, s, targets.data(), targets.size(), ws);
    topo::LinkId* const out = pred_.data() + static_cast<std::size_t>(s) * n_;
    for (std::uint32_t d = 0; d < n_; ++d) {
      if (ws.reached(d)) out[d] = ws.pred_link[d];
    }
  }
}

std::shared_ptr<const PathCache> PathCache::of(const topo::Topology& topo) {
  const std::uint64_t h = key_hash(topo);
  Registry& r = registry();
  // Built under the lock: routers solving one topology at once wait for
  // the first build instead of each running their own.
  std::lock_guard<std::mutex> lock(r.mu);
  const auto [first, last] = r.tables.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (auto table = it->second.lock(); table && table->matches(topo))
      return table;
  }
  std::erase_if(r.tables,
                [](const auto& entry) { return entry.second.expired(); });
  auto table = std::make_shared<const PathCache>(topo);
  r.tables.emplace(h, table);
  return table;
}

std::size_t PathCache::interned() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.tables.size();
}

bool PathCache::matches(const topo::Topology& topo) const {
  if (topo.num_nodes() != n_ || topo.num_links() != links_.size())
    return false;
  const LinkKey* key = links_.data();
  for (const topo::Link& l : topo.links()) {
    if (key->src != l.src || key->dst != l.dst ||
        key->metric_bits != std::bit_cast<std::uint64_t>(l.igp_metric))
      return false;
    ++key;
  }
  return true;
}

std::shared_ptr<const DetourTable> PathCache::detours(
    const topo::Topology& topo) const {
  std::lock_guard<std::mutex> lock(detour_mu_);
  if (auto live = detour_.lock(); live && live->matches(*this, topo))
    return live;
  auto fresh = std::make_shared<const DetourTable>(shared_from_this(), topo);
  detour_ = fresh;
  return fresh;
}

DetourTable::DetourTable(std::shared_ptr<const PathCache> table,
                         const topo::Topology& topo)
    : table_(std::move(table)),
      up_(topo.num_links()),
      graph_(build_batch_graph(topo, CsrView::kUpLinks)),
      no_floor_(topo.num_links(), 0.0),
      all_nodes_(topo.num_nodes()),
      rows_(std::make_unique<Row[]>(topo.num_nodes())) {
  for (const topo::Link& l : topo.links()) up_[l.id] = l.up;
  std::iota(all_nodes_.begin(), all_nodes_.end(), 0u);
}

bool DetourTable::matches(const PathCache& table,
                          const topo::Topology& topo) const {
  if (table_.get() != &table || up_.size() != topo.num_links()) return false;
  for (const topo::Link& l : topo.links()) {
    if (up(l.id) != l.up) return false;
  }
  return true;
}

std::span<const topo::LinkId> DetourTable::row(topo::NodeId src) const {
  const std::size_t n = all_nodes_.size();
  Row& r = rows_[src];
  std::call_once(r.filled, [&] {
    static obs::Counter& m_rows =
        obs::Registry::global().counter("te.table.detour_rows");
    m_rows.inc();
    auto pred = std::make_unique<topo::LinkId[]>(n);
    SsspWorkspace ws;
    sssp(graph_, no_floor_, 0.0, src, all_nodes_.data(), n, ws);
    for (std::uint32_t d = 0; d < n; ++d) {
      pred[d] =
          d != src && ws.reached(d) ? ws.pred_link[d] : topo::kInvalidLink;
    }
    r.pred = std::move(pred);
  });
  return {r.pred.get(), n};
}

PathTables PathTables::fetch(const topo::Topology& topo) const {
  PathTables now;
  now.table = table && table->matches(topo) ? table : PathCache::of(topo);
  if (std::ranges::any_of(topo.links(),
                          [](const topo::Link& l) { return !l.up; })) {
    now.detours = detours && detours->matches(*now.table, topo)
                      ? detours
                      : now.table->detours(topo);
  }
  return now;
}

}  // namespace dsdn::te
