// Concurrency suite for the persistent TE thread pool (and the hot-path
// fixes that ride on it): worker reuse, dynamic balancing, exception
// propagation, nesting, EventQueue move semantics, one PathCache table
// shared by concurrent solves, and one Solver solving two topologies
// from two threads. Written TSan-friendly -- shared
// state is atomics or per-index slots -- and run under
// -DDSDN_SANITIZE=thread by scripts/tier1.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "core/introspection.hpp"
#include "sim/event_queue.hpp"
#include "solver_golden.hpp"
#include "te/incremental.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"
#include "te/thread_pool.hpp"
#include "topo/topology.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn {
namespace {

// ---- persistent pool ----

std::set<std::thread::id> participant_ids(te::ThreadPool& pool,
                                          std::size_t width) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<std::size_t> arrived{0};
  // One index per participant; each invocation blocks until all `width`
  // have been entered, so every pool worker (and the caller) must show
  // up -- no participant can grab a second index early.
  pool.parallel_for(width, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    while (arrived.load() < width) std::this_thread::yield();
  });
  return ids;
}

TEST(ThreadPoolPersistent, WorkerThreadIdsStableAcrossCalls) {
  te::ThreadPool pool(4);
  const auto first = participant_ids(pool, 4);
  ASSERT_EQ(first.size(), 4u);  // 3 pool workers + the caller
  EXPECT_EQ(first.count(std::this_thread::get_id()), 1u);
  // Workers are started at most once per pool lifetime: later calls run
  // on exactly the same threads.
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(participant_ids(pool, 4), first) << "call " << call;
  }
}

TEST(ThreadPoolPersistent, DynamicSchedulingRebalancesSkewedWork) {
  te::ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  std::vector<std::thread::id> owner(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    owner[i] = std::this_thread::get_id();
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  // With dynamic block grabbing, the thread stuck on the expensive index
  // holds only its small block while the others drain the rest. Static
  // contiguous chunking would pin kN/4 = 16 indices on that thread.
  const std::size_t on_slow_thread =
      static_cast<std::size_t>(std::count(owner.begin(), owner.end(),
                                          owner[0]));
  EXPECT_LE(on_slow_thread, 8u);
}

TEST(ThreadPoolPersistent, ExceptionPropagatesAndPoolSurvives) {
  te::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool is fully usable afterward.
  std::atomic<int> ran{0};
  pool.parallel_for(50, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolPersistent, ExceptionPropagatesFromInlinePath) {
  te::ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(3, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
}

TEST(ThreadPoolPersistent, NestedParallelForRunsInline) {
  te::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Re-entering the same pool from a worker must neither deadlock nor
    // lose indices.
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolPersistent, ZeroOneAndFewerItemsThanWorkers) {
  te::ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPoolPersistent, StressManySmallCalls) {
  te::ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  for (int rep = 0; rep < 500; ++rep) {
    pool.parallel_for(
        16, [&](std::size_t i) {
          sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
  }
  EXPECT_EQ(sum.load(), 500u * (16u * 17u / 2u));
}

TEST(ThreadPoolPersistent, StatsCountTasksCallsAndBalance) {
  te::ThreadPool pool(2);
  std::atomic<int> sink{0};
  pool.parallel_for(10, [&](std::size_t) { sink.fetch_add(1); });
  pool.parallel_for(1, [&](std::size_t) { sink.fetch_add(1); });
  const auto s = pool.stats();
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.parallel_calls, 2u);
  EXPECT_EQ(s.inline_calls, 1u);  // the n == 1 call
  EXPECT_EQ(s.tasks_executed, 11u);
  std::uint64_t per_worker_total = 0;
  for (const auto& w : s.per_worker) per_worker_total += w.tasks;
  EXPECT_EQ(per_worker_total, s.tasks_executed);
  EXPECT_GE(s.imbalance(), 1.0);

  const std::string rendered = core::render_pool_stats(s);
  EXPECT_NE(rendered.find("2 workers"), std::string::npos);
  EXPECT_NE(rendered.find("(caller)"), std::string::npos);

  pool.reset_stats();
  EXPECT_EQ(pool.stats().tasks_executed, 0u);
}

// ---- pinned slots ----

TEST(ThreadPoolSlots, EachSlotRunsOncePerCallOnItsOwnThread) {
  te::ThreadPool pool(4);
  std::vector<std::thread::id> home(pool.n_threads());
  for (int call = 0; call < 50; ++call) {
    std::vector<std::thread::id> ran_on(pool.n_threads());
    std::vector<std::atomic<int>> runs(pool.n_threads());
    pool.for_each_slot([&](std::size_t slot) {
      ran_on[slot] = std::this_thread::get_id();
      runs[slot].fetch_add(1);
    });
    for (std::size_t s = 0; s < pool.n_threads(); ++s)
      EXPECT_EQ(runs[s].load(), 1) << "call " << call << " slot " << s;
    if (call == 0) home = ran_on;
    EXPECT_EQ(ran_on, home) << "call " << call;
  }
  // Four distinct threads, and the last slot is the caller's.
  EXPECT_EQ(std::set<std::thread::id>(home.begin(), home.end()).size(), 4u);
  EXPECT_EQ(home.back(), std::this_thread::get_id());
}

TEST(ThreadPoolSlots, ExceptionRethrownAfterEveryOtherSlotFinished) {
  te::ThreadPool pool(4);
  std::vector<std::atomic<int>> finished(pool.n_threads());
  EXPECT_THROW(pool.for_each_slot([&](std::size_t slot) {
    if (slot == 0) throw std::runtime_error("slot 0");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished[slot].store(1);
  }),
               std::runtime_error);
  for (std::size_t s = 1; s < pool.n_threads(); ++s)
    EXPECT_EQ(finished[s].load(), 1) << "slot " << s;
  // The pool is fully usable afterward.
  std::atomic<int> ran{0};
  pool.for_each_slot([&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolSlots, NestedCallFromAWorkerRunsInline) {
  te::ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_runs(pool.n_threads());
  std::atomic<int> off_thread{0};
  pool.for_each_slot([&](std::size_t outer) {
    const std::thread::id self = std::this_thread::get_id();
    pool.for_each_slot([&](std::size_t) {
      if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
      inner_runs[outer].fetch_add(1);
    });
  });
  for (std::size_t s = 0; s < pool.n_threads(); ++s)
    EXPECT_EQ(inner_runs[s].load(), 4) << "outer slot " << s;
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPoolSlots, ConcurrentExternalCallersAreSerialized) {
  // Two threads share one pool (as planes bootstrapping concurrently
  // would): every call must still see each of its slots exactly once,
  // and two calls never overlap on the workers.
  te::ThreadPool pool(4);
  std::atomic<int> in_flight{0}, max_in_flight{0}, bad_calls{0};
  auto caller = [&] {
    for (int call = 0; call < 50; ++call) {
      std::vector<std::atomic<int>> runs(pool.n_threads());
      pool.for_each_slot([&](std::size_t slot) {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        runs[slot].fetch_add(1);
        std::this_thread::yield();
        in_flight.fetch_sub(1);
      });
      for (const auto& r : runs)
        if (r.load() != 1) bad_calls.fetch_add(1);
    }
  };
  std::thread a(caller), b(caller);
  a.join();
  b.join();
  EXPECT_EQ(bad_calls.load(), 0);
  EXPECT_LE(max_in_flight.load(), 4);
}

// ---- solver on a shared pool ----

// Gravity at 130% load: some table paths saturate, so solves run both
// table walks and batched searches (the parallel step).
traffic::TrafficMatrix overloaded_gravity(const topo::Topology& t) {
  traffic::GravityParams gp;
  gp.target_max_utilization = 1.3;
  return traffic::generate_gravity(t, gp);
}

TEST(SolverPool, ExternalPoolSharedAcrossSolvesMatchesSerial) {
  const auto t = topo::make_geant();
  const auto tm = overloaded_gravity(t);

  const auto a = te::Solver().solve(t, tm);

  te::ThreadPool shared(4);
  te::SolverOptions external;
  external.pool = &shared;
  const auto b = te::Solver(external).solve(t, tm);
  const auto c = te::Solver(external).solve(t, tm);  // pool reused

  EXPECT_GT(shared.stats().parallel_calls, 0u);
  EXPECT_GT(shared.stats().tasks_executed, 0u);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
    EXPECT_DOUBLE_EQ(b.allocations[i].allocated_gbps,
                     c.allocations[i].allocated_gbps);
  }
}

TEST(SolverPool, CachedParallelMatchesCachedSerial) {
  // One immutable table serves the serial and the 4-thread solve, run
  // concurrently. At 130% load some table paths saturate, so both the
  // table and the batched search run.
  const auto t = topo::make_geant();
  const auto tm = overloaded_gravity(t);

  const auto table = te::PathCache::of(t);
  te::ThreadPool pool(4);
  te::SolverOptions parallel;
  parallel.pool = &pool;
  te::SolveStats serial_stats, parallel_stats;
  te::Solution a;
  std::thread serial_solve(
      [&] { a = te::Solver().solve(t, tm, &serial_stats); });
  const auto b = te::Solver(parallel).solve(t, tm, &parallel_stats);
  serial_solve.join();
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
  }
  EXPECT_GT(parallel_stats.table_paths, 0u);
  EXPECT_GT(parallel_stats.path_searches, 0u);
  EXPECT_EQ(parallel_stats.table_paths, serial_stats.table_paths);
  EXPECT_EQ(parallel_stats.path_searches, serial_stats.path_searches);
}

// One const Solver shared by two threads, each alternating between two
// topologies (so the held table changes under the other thread's
// solve), while a third thread runs temporaries -- fresh Solvers and
// DiffChecker::check -- on both. Every solve reproduces the serial
// digest of its topology.
TEST(SolverPool, SharedSolverAlternatingTopologiesMatchesSerial) {
  const topo::Topology topos[] = {topo::make_geant(), topo::make_abilene()};
  const traffic::TrafficMatrix tms[] = {overloaded_gravity(topos[0]),
                                        overloaded_gravity(topos[1])};
  const auto digest = [](const te::Solution& s) {
    golden::Fnv f;
    f.add(s);
    return f.h;
  };
  std::uint64_t serial[2];
  for (int k = 0; k < 2; ++k) {
    te::SolverOptions search_only;
    search_only.path_table = false;
    serial[k] = digest(te::Solver(search_only).solve(topos[k], tms[k]));
  }

  constexpr int kSolves = 8;
  const te::Solver shared;
  std::atomic<int> mismatches{0};
  const auto alternate = [&](int phase) {
    for (int i = 0; i < kSolves; ++i) {
      const int k = (i + phase) % 2;
      if (digest(shared.solve(topos[k], tms[k])) != serial[k])
        mismatches.fetch_add(1);
    }
  };
  std::thread a(alternate, 0), b(alternate, 1);
  std::thread temporaries([&] {
    for (int i = 0; i < kSolves; ++i) {
      const int k = i % 2;
      const te::Solution sol = te::Solver().solve(topos[k], tms[k]);
      if (digest(sol) != serial[k]) mismatches.fetch_add(1);
      if (!te::DiffChecker::check(topos[k], tms[k], sol).ok())
        mismatches.fetch_add(1);
    }
  });
  a.join();
  b.join();
  temporaries.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(shared.path_table_bytes(), 0u);
}

// Four router-like Solvers, one per thread, solve the same two degraded
// link states of GEANT in alternation, so detour rows are filled by
// whichever thread needs them first while the others wait or read them,
// and the table's detour slot flips between the states. Every solve
// reproduces the serial search-only digest of its state.
TEST(SolverPool, RoutersSharingDetourRowsMatchSerial) {
  topo::Topology states[] = {topo::make_geant(), topo::make_geant()};
  states[0].set_duplex_up(1, false);
  states[1].set_duplex_up(1, false);
  states[1].set_duplex_up(9, false);
  const traffic::TrafficMatrix tm = overloaded_gravity(states[0]);
  const auto digest = [](const te::Solution& s) {
    golden::Fnv f;
    f.add(s);
    return f.h;
  };
  std::uint64_t serial[2];
  for (int k = 0; k < 2; ++k) {
    te::SolverOptions search_only;
    search_only.path_table = false;
    serial[k] = digest(te::Solver(search_only).solve(states[k], tm));
  }

  constexpr int kRouters = 4, kSolves = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> routers;
  for (int r = 0; r < kRouters; ++r) {
    routers.emplace_back([&, r] {
      const te::Solver solver;
      for (int i = 0; i < kSolves; ++i) {
        const int k = (i + r) % 2;
        if (digest(solver.solve(states[k], tm)) != serial[k])
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : routers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- EventQueue move semantics ----

std::atomic<int> g_copies{0};

struct CopyCounter {
  std::vector<int> payload = std::vector<int>(64, 7);
  CopyCounter() = default;
  CopyCounter(const CopyCounter& o) : payload(o.payload) {
    g_copies.fetch_add(1);
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = default;
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
};

TEST(EventQueueMove, StepMovesCallbackOutInsteadOfCopying) {
  sim::EventQueue q;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q.schedule(static_cast<double>(i), [cc = CopyCounter{}, &fired] {
      ++fired;
      (void)cc;
    });
  }
  const int copies_after_scheduling = g_copies.load();
  EXPECT_EQ(q.run(), 100u);
  EXPECT_EQ(fired, 100);
  // The hot loop must not copy captured state: schedule moves the
  // callback into the heap entry and step() moves it back out.
  EXPECT_EQ(g_copies.load(), copies_after_scheduling);
}

TEST(EventQueueMove, CallbackMayStillScheduleDuringStep) {
  // Regression guard for the pop-before-invoke invariant.
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(1);
    q.schedule_in(0.0, [&] { order.push_back(2); });
    q.schedule_in(1.0, [&] { order.push_back(3); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

}  // namespace
}  // namespace dsdn
