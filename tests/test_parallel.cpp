// Concurrency suite for the persistent TE thread pool (and the hot-path
// fixes that ride on it): worker reuse, dynamic balancing, exception
// propagation, nesting, EventQueue move semantics, and PathCache miss
// memoization / invalidation. Written TSan-friendly -- shared state is
// atomics or per-index slots -- and run under -DDSDN_SANITIZE=thread by
// scripts/tier1.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "core/introspection.hpp"
#include "sim/event_queue.hpp"
#include "te/parallel_solver.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"
#include "topo/topology.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn {
namespace {

topo::Topology diamond(double b_metric = 1.0, double c_metric = 2.0) {
  // a -> {b, c} -> d; by default the b branch is cheaper.
  topo::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, 10, b_metric);
  t.add_duplex(b, d, 10, b_metric);
  t.add_duplex(a, c, 10, c_metric);
  t.add_duplex(c, d, 10, c_metric);
  return t;
}

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

TEST(SolverPool, ExternalPoolSharedAcrossSolvesMatchesSerial) {
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);

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
  // Determinism across thread counts must survive the cache's miss
  // memoization: each (src, dst, class) demand owns its repair slot, so
  // the memo state seen at every get is interleaving-independent.
  const auto t = topo::make_geant();
  traffic::GravityParams gp;
  gp.target_max_utilization = 1.3;  // force saturation -> misses/repairs
  const auto tm = traffic::generate_gravity(t, gp);

  te::PathCache c1(t), c2(t);
  te::ThreadPool pool(4);
  te::SolverOptions serial;
  serial.cache = &c1;
  te::SolverOptions parallel;
  parallel.pool = &pool;
  parallel.cache = &c2;
  const auto a = te::Solver(serial).solve(t, tm);
  const auto b = te::Solver(parallel).solve(t, tm);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.allocations[i].allocated_gbps,
                     b.allocations[i].allocated_gbps);
  }
  EXPECT_GT(c2.repair_hits() + c2.misses(), 0u);
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

// ---- PathCache miss memoization & invalidation ----

TEST(PathCacheRepair, MissMemoizedForRepeatedSaturation) {
  const auto t = diamond();
  te::PathCache cache(t);
  std::vector<double> residual(t.num_links(), 100.0);
  residual[t.find_link(0, 1)] = 0.0;  // primary path saturated
  te::SpConstraints c;
  c.residual_gbps = &residual;
  c.min_residual = 1.0;

  const auto first = cache.get(t, 0, 3, c);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->node_sequence(t).at(1), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.repair_hits(), 0u);

  // Same saturation on the next round: served from the memo, no second
  // Dijkstra.
  const auto second = cache.get(t, 0, 3, c);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.repair_hits(), 1u);
}

TEST(PathCacheRepair, MemoRevalidatedNeverReturnsInfeasible) {
  const auto t = diamond();
  te::PathCache cache(t);
  std::vector<double> residual(t.num_links(), 100.0);
  te::SpConstraints c;
  c.residual_gbps = &residual;
  c.min_residual = 1.0;

  residual[t.find_link(0, 1)] = 0.0;
  ASSERT_TRUE(cache.get(t, 0, 3, c).has_value());  // memoizes via c-branch

  residual[t.find_link(0, 2)] = 0.0;  // now the memoized path is dead too
  EXPECT_FALSE(cache.get(t, 0, 3, c).has_value());
  EXPECT_EQ(cache.misses(), 2u);  // recomputed, did not trust the memo

  residual[t.find_link(0, 2)] = 100.0;  // memo becomes feasible again
  const auto back = cache.get(t, 0, 3, c);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_sequence(t).at(1), 2u);
  EXPECT_EQ(cache.repair_hits(), 1u);
}

TEST(PathCacheInvalidate, GetRacesInvalidateSafely) {
  // Regression (TSan): get() used to read paths_[idx] without holding
  // the lock invalidate() rebuilt it under, so a concurrent epoch flip
  // could hand a reader a half-written Path. The table is now an
  // immutable snapshot swapped atomically; readers pin one snapshot per
  // lookup and every returned path must still be feasible for the
  // topology the reader passed in.
  const auto a = diamond(/*b_metric=*/1.0, /*c_metric=*/2.0);
  const auto b = diamond(/*b_metric=*/5.0, /*c_metric=*/1.0);
  te::PathCache cache(a);

  constexpr int kReaders = 4;
  constexpr int kFlips = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Half the readers exercise the repair branch too.
      std::vector<double> residual(a.num_links(), 100.0);
      te::SpConstraints c;
      if (r % 2 == 1) {
        residual[a.find_link(0, 1)] = 0.0;
        c.residual_gbps = &residual;
        c.min_residual = 1.0;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        for (topo::NodeId s = 0; s < a.num_nodes(); ++s) {
          for (topo::NodeId d = 0; d < a.num_nodes(); ++d) {
            if (s == d) continue;
            const auto p = cache.get(a, s, d, c);
            // The diamond is connected, so a path must always come back,
            // and it must be valid *for the reader's topology* no matter
            // which table snapshot served it.
            if (!p.has_value() || !p->is_valid(a) || p->src(a) != s ||
                p->dst(a) != d) {
              bad.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (int i = 0; i < kFlips; ++i) {
    cache.invalidate(i % 2 == 0 ? b : a);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(cache.epoch(), static_cast<std::uint64_t>(kFlips));
}

TEST(PathCacheInvalidate, MetricChangeRebuildsPrimaryAndDropsMemo) {
  const auto before = diamond(/*b_metric=*/1.0, /*c_metric=*/2.0);
  te::PathCache cache(before);
  EXPECT_EQ(cache.epoch(), 0u);

  // Warm a repair memo under saturation.
  std::vector<double> residual(before.num_links(), 100.0);
  residual[before.find_link(0, 1)] = 0.0;
  te::SpConstraints constrained;
  constrained.residual_gbps = &residual;
  constrained.min_residual = 1.0;
  ASSERT_TRUE(cache.get(before, 0, 3, constrained).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  // Metrics flip: the c branch becomes the shortest path. The stale
  // primary entries would keep steering traffic over the b branch
  // forever; invalidate() rebuilds them and starts a new epoch.
  const auto after = diamond(/*b_metric=*/5.0, /*c_metric=*/1.0);
  cache.invalidate(after);
  EXPECT_EQ(cache.epoch(), 1u);
  cache.reset_counters();

  const auto p = cache.get(after, 0, 3, te::SpConstraints{});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->node_sequence(after).at(1), 2u);  // rebuilt primary
  EXPECT_EQ(cache.hits(), 1u);

  // Repair memos did not survive the epoch: saturating the new primary
  // forces a fresh Dijkstra, not a repair hit.
  std::vector<double> residual2(after.num_links(), 100.0);
  residual2[after.find_link(0, 2)] = 0.0;
  te::SpConstraints constrained2;
  constrained2.residual_gbps = &residual2;
  constrained2.min_residual = 1.0;
  const auto q = cache.get(after, 0, 3, constrained2);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->node_sequence(after).at(1), 1u);
  EXPECT_EQ(cache.repair_hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace dsdn
