#pragma once

// Empirical distributions: the workhorse of the evaluation.
//
// The paper's transient-impact simulator (§5.2) samples component latencies
// (Tprop, Tcomp, Tprog, per-router programming times) from *measured
// distributions*. EmpiricalDistribution plays that role here: it collects
// samples (from real solver runs or calibrated synthetic models), answers
// percentile/CDF queries for reporting, and can be re-sampled inside the
// simulator.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dsdn::metrics {

class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<double> samples);

  void add(double sample);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;

  // Percentile in [0, 100] with linear interpolation between order
  // statistics. Requires a non-empty distribution.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  // Batch percentile sweep: one sorted-cache validation for the whole
  // query set (the fast path behind dist_row / run-artifact series,
  // benchmark-visible as BM_PercentileSweep). Returns one value per
  // entry of `ps`, each as percentile() would.
  std::vector<double> percentiles(std::span<const double> ps) const;

  // Fraction of samples <= x.
  double cdf(double x) const;

  // Draws one sample uniformly from the collected data (bootstrap).
  double sample(util::Rng& rng) const;

  // Returns a copy with every sample multiplied by `factor` (used to model
  // CPU-speed scaling between router and server cores).
  EmpiricalDistribution scaled(double factor) const;

  const std::vector<double>& samples() const { return samples_; }

  // One-line summary "n=... mean=... p50=... p90=... p99=..." for logs.
  std::string summary() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  // Sorted cache, maintained incrementally: samples_[0..sorted_merged_)
  // are already merged into sorted_; a query sorts only the appended
  // tail and merges it in, so interleaved add()/percentile() sequences
  // (the simulators' per-event reporting pattern) cost
  // O(tail log tail + n) per query instead of a full re-sort.
  mutable std::vector<double> sorted_;
  mutable std::size_t sorted_merged_ = 0;
};

}  // namespace dsdn::metrics
