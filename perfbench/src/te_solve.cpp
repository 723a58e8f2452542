// te_solve: router-local TE at scale, with no flooding, programming or
// forwarding. For each seeded connectivity-preserving fiber of the
// B2-like network the loop times four single-threaded solves:
//
//   1. cold   -- te::Solver on the post-cut view (what a router without
//                warm state runs);
//   2. warm   -- te::IncrementalSolver on the same view, warm from the
//                intact solution, with the cut as its view delta;
//   3. repair -- the IncrementalSolver solve of the repaired view, which
//                frees capacity, falls back to a full solve and restores
//                the warm baseline for the next fiber;
//   4. sr     -- te::SrSolver on a post-cut view of the B4-like inputs
//                (SR at B2 scale takes seconds per solve).
//
// These are the three waterfill loops one shared waterfill would
// replace, each at the scale where it differs. Fibers rotate over
// kB2Matrices B2 and kB4Matrices B4 gravity matrices drawn from the
// seed. One operation is one fiber's four timed solves, the same mix of
// solvers every time.
//
// Checks (untimed): every repair solve reproduces the intact solution's
// digest (repeats of one input agree bit for bit); every warm solve
// passes te::DiffChecker against the cold solve of the same view; every
// SR solve is repeated, must reproduce its digest, and passes
// DiffChecker::check_against that repeat.

#include "bench.hpp"
#include "te/incremental.hpp"
#include "te/segment_routing.hpp"
#include "te/solver.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace dt = dsdn::te;
namespace topo = dsdn::topo;

namespace {

// Several matrices per run, so one seed's draw of a single matrix does
// not decide the run: solve time varies from matrix to matrix by more
// than run-to-run noise.
constexpr std::size_t kB2Matrices = 2;
constexpr std::size_t kB4Matrices = 8;

// One B2-like matrix with its warm state: the intact solution's digest
// (the reference every repair solve must reproduce) and an
// IncrementalSolver primed on it.
struct B2Case {
  Inputs in;
  std::uint64_t intact_digest = 0;
  dt::IncrementalSolver warm;
};

struct Setup {
  std::vector<B2Case> b2;
  std::vector<Inputs> b4;
  std::vector<topo::LinkId> b2_fibers;
  std::vector<topo::LinkId> b4_fibers;
};

dt::ViewDelta cut_delta(const topo::Topology& t, topo::LinkId fiber) {
  dt::ViewDelta d;
  d.full = false;
  d.changed_links = {fiber, t.link(fiber).reverse};
  return d;
}

// Input generation plus the priming solves every later solve starts
// from. All B2 matrices share the topology, and so do the B4 ones.
void set_up(const Options& opt, Setup& s) {
  s.b2.clear();
  s.b4.clear();
  for (std::size_t m = 0; m < kB2Matrices; ++m) {
    B2Case c;
    c.in = b2_inputs(opt, 0xB2 + 0x100 * m);
    c.intact_digest = solution_digest(dt::Solver().solve(c.in.topo, c.in.tm));
    dt::ViewDelta full;  // full = true: the first solve is from scratch
    c.warm.solve(c.in.topo, c.in.tm, full);
    s.b2.push_back(std::move(c));
  }
  for (std::size_t m = 0; m < kB4Matrices; ++m)
    s.b4.push_back(b4_inputs(opt, 0xB4 + 0x100 * m));
  s.b2_fibers = safe_fibers(s.b2[0].in.topo, 256,
                            dsdn::util::splitmix64(opt.seed ^ 0xF1B2));
  s.b4_fibers = safe_fibers(s.b4[0].topo, 256,
                            dsdn::util::splitmix64(opt.seed ^ 0xF1B4));
}

}  // namespace

Result run_te_solve(const Options& opt, Tracer& tracer) {
  Result r;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    set_up(opt, s);
    r.setup_s.push_back(seconds_since(t0));
  }
  if (s.b2_fibers.empty() || s.b4_fibers.empty()) {
    r.fail("no connectivity-preserving fiber to cut");
    return r;
  }

  const dt::Solver cold_solver;
  const dt::SrSolver sr_solver;
  std::vector<double> op_s, cold_s, warm_s, repair_s, sr_s, underlay_s;
  std::vector<double> path_search_s, allocation_s, affected, reuse;
  std::uint64_t fallbacks = 0, warm_incremental = 0;
  topo::Topology b2_view = s.b2[0].in.topo;
  topo::Topology b4_view = s.b4[0].topo;

  double fiber_s = 0;  // the four timed solves of the current fiber
  const auto timed = [&](const char* name, std::vector<double>& into,
                         std::uint32_t parent, std::uint64_t fiber,
                         auto&& solve) {
    const auto t0 = Clock::now();
    auto out = solve();
    const auto t1 = Clock::now();
    const double dt = seconds_between(t0, t1);
    into.push_back(dt);
    fiber_s += dt;
    r.attempted += 1;
    tracer.record(name, t0, t1, parent, fiber);
    return out;
  };

  const auto start = Clock::now();
  std::uint64_t fiber_index = 0;
  while (seconds_since(start) < opt.seconds) {
    const std::uint64_t ev = fiber_index++;
    fiber_s = 0;
    const topo::LinkId f2 = s.b2_fibers[ev % s.b2_fibers.size()];
    const topo::LinkId f4 = s.b4_fibers[ev % s.b4_fibers.size()];
    B2Case& b2 = s.b2[ev % s.b2.size()];
    const dsdn::traffic::TrafficMatrix& tm4 = s.b4[ev % s.b4.size()].tm;
    const std::uint32_t span = tracer.open("fiber", Tracer::kNoParent, ev);
    const dt::ViewDelta delta = cut_delta(b2_view, f2);

    b2_view.set_duplex_up(f2, false);
    dt::SolveStats cs;
    const dt::Solution cold = timed("te.cold", cold_s, span, ev, [&] {
      return cold_solver.solve(b2_view, b2.in.tm, &cs);
    });
    path_search_s.push_back(cs.path_search_time_s);
    allocation_s.push_back(cs.allocation_time_s);

    dt::IncrementalStats ws;
    const dt::Solution warm = timed("te.warm", warm_s, span, ev, [&] {
      return b2.warm.solve(b2_view, b2.in.tm, delta, &ws);
    });
    affected.push_back(static_cast<double>(ws.affected_demands));
    reuse.push_back(ws.reuse_fraction);
    if (ws.fallback) ++fallbacks;
    if (ws.incremental) ++warm_incremental;
    const auto warm_report = dt::DiffChecker::check_against(
        b2_view, b2.in.tm, warm, cold, dt::DiffChecker::Options{});
    if (!warm_report.ok())
      r.fail("warm solve, fiber " + std::to_string(f2) + ": " +
             warm_report.violations.front());

    b2_view.set_duplex_up(f2, true);
    const dt::Solution repaired = timed("te.repair", repair_s, span, ev, [&] {
      return b2.warm.solve(b2_view, b2.in.tm, delta);
    });
    if (solution_digest(repaired) != b2.intact_digest)
      r.fail("repair solve of fiber " + std::to_string(f2) +
             " differs from the intact solve");

    b4_view.set_duplex_up(f4, false);
    const dt::Solution sr = timed("te.sr", sr_s, span, ev, [&] {
      return sr_solver.solve(b4_view, tm4);
    });
    const dt::Solution sr_again = sr_solver.solve(b4_view, tm4);
    if (solution_digest(sr) != solution_digest(sr_again))
      r.fail("SR solve of fiber " + std::to_string(f4) + " is not repeatable");
    const auto sr_report = dt::DiffChecker::check_against(
        b4_view, tm4, sr, sr_again, dt::DiffChecker::Options{});
    if (!sr_report.ok())
      r.fail("SR solve, fiber " + std::to_string(f4) + ": " +
             sr_report.violations.front());
    if (tracer.enabled()) {
      // The part of every SR solve that rebuilds the all-pairs underlay
      // and ranks middlepoints, timed from outside on the same view.
      const auto t0 = Clock::now();
      const auto underlay = dt::SrUnderlay::build(b4_view);
      const auto mids =
          dt::rank_middlepoints(underlay, dt::SrOptions{}.num_middlepoints);
      const auto t1 = Clock::now();
      if (mids.empty()) r.fail("no SR middlepoints");
      underlay_s.push_back(seconds_between(t0, t1));
      tracer.record("te.sr_underlay", t0, t1, span, ev);
    }
    b4_view.set_duplex_up(f4, true);
    tracer.close(span);
    op_s.push_back(fiber_s);
  }

  r.set_ops(op_s);
  r.detail = {{"fibers", static_cast<double>(fiber_index)},
              {"solves", static_cast<double>(r.attempted)},
              {"cold_solve_s", median(cold_s)},
              {"warm_solve_s", median(warm_s)},
              {"repair_solve_s", median(repair_s)},
              {"sr_solve_s", median(sr_s)},
              {"warm_incremental_fraction",
               fiber_index ? static_cast<double>(warm_incremental) /
                                 static_cast<double>(fiber_index)
                           : 0.0}};
  if (tracer.enabled()) {
    r.layer("te.cold_solve_s", median(cold_s));
    r.layer("te.warm_solve_s", median(warm_s));
    r.layer("te.sr_solve_s", median(sr_s));
    r.layer("te.path_search_s", median(path_search_s));
    r.layer("te.allocation_s", median(allocation_s));
    r.layer("te.warm_affected_demands", mean(affected));
    r.layer("te.warm_reuse_fraction", mean(reuse));
    r.layer("te.warm_fallbacks", static_cast<double>(fallbacks));
    r.layer("te.sr_underlay_s", median(underlay_s));
  }
  return r;
}

}  // namespace perfbench
