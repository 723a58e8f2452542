#pragma once

// When should a controller re-run TE as demand estimates drift?
//
// "Near-optimal Online Traffic Engineering" frames the online problem:
// recomputing every epoch chases estimator noise and burns solver time;
// recomputing too rarely accumulates regret against the moving optimum.
// RecomputePolicy is the pluggable decision: every controller ticks its
// policy once per measurement epoch with its current (converged) demand
// view, and recomputes only when the policy fires.
//
// Fleet consistency (§3.1) rests on determinism: the policy's decision
// is a pure function of its options and the sequence of views it was
// shown. Because the emulation quiesces flooding before ticking, every
// controller sees the identical view sequence and fires on the same
// epochs -- identical views, identical solutions, no consensus round.
// Crash/restart barriers must reset the policy fleet-wide (alongside
// the warm-start TE reset) or the survivors' baselines would diverge
// from the restarted router's.

#include <cstdint>

#include "traffic/matrix.hpp"

namespace dsdn::te {

enum class RecomputeTrigger {
  kEvery,      // recompute on every demand epoch (the implicit old behavior)
  kPeriodic,   // every `period_epochs` epochs, drift-blind
  kThreshold,  // when demand drift vs. the last-solved view crosses a bar
  kHybrid,     // threshold, with `period_epochs` as a staleness cap
};

struct RecomputePolicyOptions {
  RecomputeTrigger kind = RecomputeTrigger::kEvery;
  // kPeriodic: the recompute period. kHybrid: max epochs without a
  // recompute regardless of drift.
  std::uint32_t period_epochs = 8;
  // kThreshold/kHybrid: recompute when
  //   sum |rate_now - rate_solved| / sum rate_solved >= drift_threshold
  // over the union of (src, dst, class) keys.
  double drift_threshold = 0.10;
};

class RecomputePolicy {
 public:
  explicit RecomputePolicy(RecomputePolicyOptions options);

  // One measurement epoch elapsed; `view` is this controller's current
  // converged demand view. Returns true when TE should run now.
  // Always true until the first note_recompute (something must be
  // programmed before there is anything to defer to).
  bool on_epoch(const traffic::TrafficMatrix& view);

  // TE ran: `solved_view` becomes the drift baseline.
  void note_recompute(const traffic::TrafficMatrix& solved_view);

  // Forget baseline and staleness (fleet-wide crash barrier): the next
  // on_epoch fires unconditionally, mirroring the warm-state TE reset.
  void reset();

  const RecomputePolicyOptions& options() const { return options_; }

  // L1 demand drift of `now` vs. `solved`, normalized by the solved
  // total (union of keys: appearing and vanishing rows both count).
  static double drift_fraction(const traffic::TrafficMatrix& solved,
                               const traffic::TrafficMatrix& now);

 private:
  RecomputePolicyOptions options_;
  traffic::TrafficMatrix solved_;
  bool has_baseline_ = false;
  std::uint32_t epochs_since_ = 0;
};

}  // namespace dsdn::te
