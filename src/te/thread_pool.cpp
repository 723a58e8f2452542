#include "te/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"

namespace dsdn::te {

namespace {

using Clock = std::chrono::steady_clock;

// Process-wide scheduling counters across every pool instance; the
// per-worker breakdown (tasks, busy, imbalance) stays on the instance
// Stats that core::render_pool_stats renders.
struct PoolMetrics {
  obs::Counter& parallel_calls;
  obs::Counter& inline_calls;
  obs::Counter& tasks;
  obs::Counter& busy_us;  // integrated worker busy time, microseconds

  static PoolMetrics& get() {
    auto& reg = obs::Registry::global();
    static PoolMetrics m{reg.counter("te.pool.parallel_calls"),
                         reg.counter("te.pool.inline_calls"),
                         reg.counter("te.pool.tasks"),
                         reg.counter("te.pool.busy_us")};
    return m;
  }
};

// Pool whose job share the current thread is executing (nullptr outside
// the pool). Used to run nested calls inline instead of deadlocking on
// the pool's own idle workers.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

double ThreadPool::Stats::imbalance() const {
  double max_busy = 0.0, total_busy = 0.0;
  for (const WorkerStats& w : per_worker) {
    max_busy = std::max(max_busy, w.busy_s);
    total_busy += w.busy_s;
  }
  if (per_worker.empty() || total_busy <= 0.0) return 1.0;
  return max_busy / (total_busy / static_cast<double>(per_worker.size()));
}

ThreadPool::ThreadPool(std::size_t n_threads) : n_threads_(n_threads) {
  stats_.workers = this->n_threads();
  stats_.per_worker.resize(this->n_threads());
  if (this->n_threads() <= 1) return;
  workers_.reserve(this->n_threads() - 1);
  for (std::size_t slot = 0; slot + 1 < this->n_threads(); ++slot) {
    workers_.emplace_back([this, slot] { worker_main(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_main(std::size_t slot) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk,
                    [&] { return stop_ || job_epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = job_epoch_;
    }
    run_share(slot);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--workers_active_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_share(std::size_t slot) {
  const ThreadPool* outer = t_current_pool;
  t_current_pool = this;
  std::uint64_t tasks = 0;
  const auto t0 = Clock::now();
  const auto record_error = [&] {
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  };
  if (job_pinned_) {
    try {
      (*job_fn_)(slot);
    } catch (...) {
      record_error();
    }
    tasks = 1;
  } else {
    while (true) {
      const std::size_t lo =
          next_index_.fetch_add(job_chunk_, std::memory_order_relaxed);
      if (lo >= job_n_) break;
      const std::size_t hi = std::min(job_n_, lo + job_chunk_);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          (*job_fn_)(i);
          ++tasks;
        }
      } catch (...) {
        record_error();
        // Abandon the untouched remainder of the index space; chunks
        // already claimed by other workers still run to completion.
        next_index_.store(job_n_, std::memory_order_relaxed);
      }
    }
  }
  const double busy = std::chrono::duration<double>(Clock::now() - t0).count();
  t_current_pool = outer;
  PoolMetrics::get().busy_us.add(static_cast<std::uint64_t>(busy * 1e6));
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.per_worker[slot].tasks += tasks;
  stats_.per_worker[slot].busy_s += busy;
}

void ThreadPool::run_inline(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  const double busy = std::chrono::duration<double>(Clock::now() - t0).count();
  PoolMetrics& pm = PoolMetrics::get();
  pm.parallel_calls.inc();
  pm.inline_calls.inc();
  pm.tasks.add(n);
  pm.busy_us.add(static_cast<std::uint64_t>(busy * 1e6));
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.parallel_calls;
  ++stats_.inline_calls;
  stats_.tasks_executed += n;
  WorkerStats& caller = stats_.per_worker.back();
  caller.tasks += n;
  caller.busy_s += busy;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  // Nested use from inside one of our own workers: the pool's threads are
  // all busy on the outer job, so the only deadlock-free option is to run
  // on the current thread.
  if (t_current_pool == this || workers_.empty() || n == 1) {
    run_inline(n, fn);
    return;
  }
  dispatch(n, fn, /*pinned=*/false);
}

void ThreadPool::for_each_slot(
    const std::function<void(std::size_t)>& fn) const {
  if (t_current_pool != this && !workers_.empty()) {
    dispatch(n_threads(), fn, /*pinned=*/true);
    return;
  }
  // Nested (or single-slot) use: every slot inline, still each exactly
  // once even when an earlier one throws.
  std::exception_ptr first;
  run_inline(n_threads(), [&](std::size_t slot) {
    try {
      fn(slot);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  });
  if (first) std::rethrow_exception(first);
}

void ThreadPool::dispatch(std::size_t n,
                          const std::function<void(std::size_t)>& fn,
                          bool pinned) const {
  auto* self = const_cast<ThreadPool*>(this);
  // One job at a time: external callers queue up here.
  std::lock_guard<std::mutex> submit(self->submit_mu_);
  {
    std::lock_guard<std::mutex> lk(self->mu_);
    self->job_fn_ = &fn;
    self->job_n_ = n;
    self->job_pinned_ = pinned;
    // Small dynamic blocks (several per worker) so a skewed per-index
    // cost rebalances instead of stranding one static chunk per worker.
    self->job_chunk_ = std::max<std::size_t>(1, n / (n_threads() * 8));
    self->next_index_.store(0, std::memory_order_relaxed);
    self->first_error_ = nullptr;
    self->workers_active_ = workers_.size();
    ++self->job_epoch_;
  }
  self->work_cv_.notify_all();
  self->run_share(n_threads() - 1);  // the caller takes the last slot
  {
    std::unique_lock<std::mutex> lk(self->mu_);
    self->done_cv_.wait(lk, [&] { return self->workers_active_ == 0; });
    self->job_fn_ = nullptr;
  }
  {
    PoolMetrics& pm = PoolMetrics::get();
    pm.parallel_calls.inc();
    pm.tasks.add(n);
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++self->stats_.parallel_calls;
    self->stats_.tasks_executed += n;
  }
  if (self->first_error_) {
    std::exception_ptr e = self->first_error_;
    self->first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void ThreadPool::reset_stats() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.parallel_calls = 0;
  stats_.inline_calls = 0;
  stats_.tasks_executed = 0;
  for (WorkerStats& w : stats_.per_worker) w = WorkerStats{};
}

}  // namespace dsdn::te
