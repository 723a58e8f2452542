// Ablation: consensus-free forwarding (§3.1). Why strict source routing
// instead of per-hop destination forwarding?
//
// After a failure, routers converge at different times; until they all
// agree, per-hop forwarding (IS-IS style) can micro-loop or dead-end --
// the distributed-consensus pathology the paper cites. Source routing
// sidesteps it: the headend alone fixes the path, so a stale route at
// worst stops at the dead link (where FRR takes over).
//
// We sweep partial-convergence states on the B4-scale network: for each
// failed fiber and each fraction of already-reconverged routers, walk
// every (src, dst) pair under both forwarding models and classify the
// outcomes.

#include <set>

#include "bench_common.hpp"
#include "isis/per_hop.hpp"
#include "sim/convergence.hpp"
#include "te/dijkstra.hpp"

using namespace dsdn;

int main() {
  bench::banner("Ablation: per-hop forwarding vs source routing during "
                "convergence");

  auto topo = topo::make_b4_like();
  std::printf("network: %zu nodes, %zu links\n\n", topo.num_nodes(),
              topo.num_links());

  const std::size_t n_events = bench::full_scale() ? 12 : 5;
  const auto fibers = sim::pick_failure_fibers(topo, n_events, 0xC0C0);

  std::printf("%-10s | %28s | %28s\n", "", "per-hop forwarding",
              "strict source routing");
  std::printf("%-10s | %9s %9s %8s | %9s %9s %8s\n", "converged", "loops",
              "deadends", "ok", "loops", "dead-link", "ok");

  util::Rng rng(0xC0C1);
  // One path table for every view below; each link state adds its
  // detour rows.
  const te::PathTables intact = te::PathTables::of(topo);
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::size_t ph_loops = 0, ph_dead = 0, ph_ok = 0;
    std::size_t sr_loops = 0, sr_deadlink = 0, sr_ok = 0;
    for (const topo::LinkId fiber : fibers) {
      topo::Topology stale_view = topo;  // pre-failure
      topo.set_duplex_up(fiber, false);

      // Which routers have reconverged onto the fresh view?
      std::vector<char> fresh(topo.num_nodes(), 0);
      for (auto& f : fresh) f = rng.bernoulli(frac) ? 1 : 0;

      const te::PathTables fresh_paths = intact.fetch(topo);
      const te::PathTables stale_paths = intact.fetch(stale_view);
      std::vector<isis::NextHopTable> tables;
      for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
        tables.push_back(isis::compute_next_hops(
            fresh[n] ? fresh_paths : stale_paths, n));
      }

      // Sample pairs (all-pairs is 10k; sample for speed).
      for (int trial = 0; trial < 600; ++trial) {
        const auto s = static_cast<topo::NodeId>(rng.uniform_int(
            0, static_cast<std::int64_t>(topo.num_nodes()) - 1));
        const auto d = static_cast<topo::NodeId>(rng.uniform_int(
            0, static_cast<std::int64_t>(topo.num_nodes()) - 1));
        if (s == d) continue;

        const auto ph = isis::forward_per_hop(topo, tables, s, d);
        switch (ph.outcome) {
          case isis::PerHopOutcome::kLoop: ++ph_loops; break;
          case isis::PerHopOutcome::kDelivered: ++ph_ok; break;
          default: ++ph_dead; break;
        }

        // Source route from the headend's own view (stale or fresh).
        const auto route =
            te::shortest_path(fresh[s] ? topo : stale_view, s, d);
        if (!route) {
          ++sr_deadlink;
          continue;
        }
        bool looped = false, hit_dead = false;
        std::set<topo::NodeId> seen{s};
        for (topo::LinkId l : route->links) {
          if (!topo.link(l).up) {
            hit_dead = true;
            break;
          }
          if (!seen.insert(topo.link(l).dst).second) {
            looped = true;
            break;
          }
        }
        if (looped) {
          ++sr_loops;
        } else if (hit_dead) {
          ++sr_deadlink;
        } else {
          ++sr_ok;
        }
      }
      topo.set_duplex_up(fiber, true);
    }
    std::printf("%8.0f%% | %9zu %9zu %8zu | %9zu %9zu %8zu\n", frac * 100,
                ph_loops, ph_dead, ph_ok, sr_loops, sr_deadlink, sr_ok);
  }

  std::printf("\nshape check: per-hop forwarding loops at intermediate "
              "convergence fractions and is clean only at 0%%/100%%; "
              "source routing shows zero loops at every fraction -- its "
              "only transient failure is stopping at the dead link, which "
              "FRR repairs (§3.2).\n");
  return 0;
}
