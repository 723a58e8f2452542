#pragma once

// A persistent blocking thread pool used for the solver's data-parallel
// path-search step. Workers are started once, at construction, and live
// for the pool's lifetime; parallel_for hands them dynamically scheduled
// index blocks (atomic grab of small chunks, so a skewed per-index cost
// does not strand work on one worker the way static contiguous chunking
// does). The solver's correctness never depends on scheduling: every
// index runs exactly once and parallel_for does not return before all of
// them have.
//
// Exceptions thrown by fn are captured on the worker, the remaining index
// space is abandoned (already-started chunks still finish), and the first
// exception is rethrown on the calling thread.
//
// A parallel_for issued from inside a pool worker (nested use) runs
// inline on that worker -- never deadlocks, never oversubscribes.
//
// for_each_slot is the pinned counterpart: one call per slot, slot s
// always on the same thread, for callers that keep per-slot state (the
// emulation pins each router to one worker so its long-lived heap
// objects stay in that worker's malloc arena).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsdn::te {

class ThreadPool {
 public:
  // Lifetime counters, exposed through core::render_pool_stats so benches
  // can report scheduling overhead and balance (Fig 13 methodology).
  struct WorkerStats {
    std::uint64_t tasks = 0;  // fn invocations executed by this worker
    double busy_s = 0.0;      // wall time spent inside fn
  };
  struct Stats {
    std::size_t workers = 1;            // parallelism incl. the caller
    std::uint64_t parallel_calls = 0;   // parallel_for + for_each_slot
    std::uint64_t inline_calls = 0;     // ... of which ran inline
    std::uint64_t tasks_executed = 0;   // total fn invocations
    std::vector<WorkerStats> per_worker;  // [0..workers-2] pool threads,
                                          // [workers-1] the caller's slot
    // max / mean per-worker busy time; 1.0 = perfectly balanced. Returns
    // 1.0 when nothing has run in parallel yet.
    double imbalance() const;
  };

  // n_threads == 0 or 1 means "run inline on the caller" (no workers are
  // started). Otherwise n_threads-1 persistent workers are spawned once,
  // here, and the calling thread participates as the n_threads-th worker.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t n_threads() const { return n_threads_ == 0 ? 1 : n_threads_; }

  // Invokes fn(i) for i in [0, n), dynamically partitioned across the
  // persistent workers plus the calling thread. Blocks until every
  // invocation completes. fn must be safe to call concurrently for
  // distinct i. Concurrent parallel_for calls from different external
  // threads are serialized; calls from inside a worker run inline.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

  // Invokes fn(slot) exactly once for each slot in [0, n_threads()). Slot
  // s < n_threads()-1 always runs on persistent worker s and the last
  // slot on the calling thread, so state keyed by slot stays on one
  // thread across calls. Blocks until every slot has returned; the first
  // exception is rethrown on the caller only after all other slots have
  // finished. External callers are serialized like parallel_for's; a call
  // from inside one of this pool's workers runs every slot inline.
  void for_each_slot(const std::function<void(std::size_t)>& fn) const;

  Stats stats() const;
  void reset_stats();

 private:
  void worker_main(std::size_t slot);
  // Posts fn to every worker, runs the caller's share as the last slot,
  // waits for the workers and rethrows the first exception. `pinned`
  // selects for_each_slot's one-call-per-slot job over parallel_for's
  // dynamically chunked index space [0, n).
  void dispatch(std::size_t n, const std::function<void(std::size_t)>& fn,
                bool pinned) const;
  // Runs this slot's share of the posted job and accumulates its busy
  // time. A parallel_for share grabs chunks until the index space is
  // exhausted; on exception it records the error and drains the
  // remaining indices.
  void run_share(std::size_t slot);
  void run_inline(std::size_t n, const std::function<void(std::size_t)>& fn)
      const;

  std::size_t n_threads_;
  std::vector<std::thread> workers_;

  // Serializes whole parallel_for invocations from external threads.
  mutable std::mutex submit_mu_;

  // Job handoff state, guarded by mu_.
  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;  // workers: "a job is posted"
  mutable std::condition_variable done_cv_;  // caller: "all workers idle"
  bool stop_ = false;
  std::uint64_t job_epoch_ = 0;  // bumped once per posted job
  std::size_t workers_active_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunk_ = 1;
  bool job_pinned_ = false;  // for_each_slot: slot s runs index s only
  mutable std::atomic<std::size_t> next_index_{0};
  mutable std::exception_ptr first_error_;

  // Stats, guarded by stats_mu_ (separate so stats() never contends with
  // the job-handoff path more than briefly).
  mutable std::mutex stats_mu_;
  mutable Stats stats_;
};

}  // namespace dsdn::te
