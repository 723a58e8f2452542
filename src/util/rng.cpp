#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dsdn::util {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng Rng::split() {
  ++split_counter_;
  return Rng(splitmix64(seed_ ^ splitmix64(split_counter_)));
}

Rng Rng::split(std::uint64_t stream_index) const {
  return Rng(splitmix64(seed_ ^ splitmix64(stream_index + 0x1234567ULL)));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution d(std::clamp(p, 0.0, 1.0));
  return d(engine_);
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean <= 0");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Rng::lognormal_median(double median, double sigma) {
  if (median <= 0) throw std::invalid_argument("lognormal: median <= 0");
  std::lognormal_distribution<double> d(std::log(median), sigma);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::pareto(double x_m, double alpha) {
  if (x_m <= 0 || alpha <= 0) throw std::invalid_argument("pareto: bad params");
  const double u = uniform(std::numeric_limits<double>::min(), 1.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weighted_pick(std::span<const double> weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0) throw std::invalid_argument("weighted_pick: no positive weight");
  double target = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace dsdn::util
