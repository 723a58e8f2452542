#include "metrics/distribution.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/format.hpp"

namespace dsdn::metrics {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : samples_(std::move(samples)) {}

void EmpiricalDistribution::add(double sample) {
  samples_.push_back(sample);
}

void EmpiricalDistribution::ensure_sorted() const {
  // Samples are append-only, so the cache only ever needs the new tail:
  // sort it and merge it into the already-sorted prefix.
  if (sorted_merged_ == samples_.size()) return;
  const auto merged = static_cast<std::ptrdiff_t>(sorted_.size());
  sorted_.insert(sorted_.end(), samples_.begin() + merged, samples_.end());
  std::sort(sorted_.begin() + merged, sorted_.end());
  std::inplace_merge(sorted_.begin(), sorted_.begin() + merged, sorted_.end());
  sorted_merged_ = samples_.size();
}

double EmpiricalDistribution::min() const {
  if (empty()) throw std::logic_error("min of empty distribution");
  ensure_sorted();
  return sorted_.front();
}

double EmpiricalDistribution::max() const {
  if (empty()) throw std::logic_error("max of empty distribution");
  ensure_sorted();
  return sorted_.back();
}

double EmpiricalDistribution::mean() const {
  if (empty()) throw std::logic_error("mean of empty distribution");
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double EmpiricalDistribution::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double EmpiricalDistribution::percentile(double p) const {
  if (empty()) throw std::logic_error("percentile of empty distribution");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile out of [0,100]");
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::vector<double> EmpiricalDistribution::percentiles(
    std::span<const double> ps) const {
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(percentile(p));
  return out;
}

double EmpiricalDistribution::cdf(double x) const {
  if (empty()) throw std::logic_error("cdf of empty distribution");
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::sample(util::Rng& rng) const {
  if (empty()) throw std::logic_error("sample of empty distribution");
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(samples_.size()) - 1));
  return samples_[i];
}

EmpiricalDistribution EmpiricalDistribution::scaled(double factor) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (double s : samples_) out.push_back(s * factor);
  return EmpiricalDistribution(std::move(out));
}

std::string EmpiricalDistribution::summary() const {
  if (empty()) return "n=0";
  std::ostringstream os;
  os << "n=" << size() << " mean=" << util::format_duration(mean())
     << " p50=" << util::format_duration(percentile(50))
     << " p90=" << util::format_duration(percentile(90))
     << " p99=" << util::format_duration(percentile(99));
  return os.str();
}

}  // namespace dsdn::metrics
