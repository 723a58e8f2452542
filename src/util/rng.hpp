#pragma once

// Deterministic, splittable random number generation.
//
// Every stochastic component in this repository (traffic generation,
// failure injection, latency sampling) draws from an explicitly-seeded
// Rng so that simulations are reproducible bit-for-bit. Rng::split()
// derives an independent child stream, letting parallel components
// consume randomness without perturbing each other.

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace dsdn::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Derives an independent stream. Children of distinct indices (or
  // successive calls) are decorrelated via splitmix64 of the parent seed.
  Rng split();
  Rng split(std::uint64_t stream_index) const;

  std::uint64_t seed() const { return seed_; }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  bool bernoulli(double p);

  // Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean);

  // Lognormal parameterized by the *median* and the shape sigma of the
  // underlying normal, which is the natural way to read values off a
  // log-scaled CDF plot.
  double lognormal_median(double median, double sigma);

  double normal(double mean, double stddev);

  // Pareto with scale x_m > 0 and shape alpha > 0 (heavy tail for
  // alpha <= 2); used for programming-latency tails.
  double pareto(double x_m, double alpha);

  // Picks an index in [0, weights.size()) proportionally to weights.
  // Requires at least one strictly positive weight.
  std::size_t weighted_pick(std::span<const double> weights);

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    if (items.empty()) throw std::invalid_argument("pick from empty vector");
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t split_counter_ = 0;
};

// splitmix64: the standard seed-scrambling finalizer.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace dsdn::util
