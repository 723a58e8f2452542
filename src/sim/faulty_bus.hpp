#pragma once

// Fault injection for the NSU flooding plane (§4-5, Figs 8-12: the
// paper's failure experiments only mean something if flooding itself can
// misbehave). A FaultyBus sits between a flooder and the wire: every
// transmit attempt over a link rolls that link's fault profile and yields
// zero or more copies to actually deliver -- dropped, duplicated,
// corrupted, reordered (extra delay), or jittered.
//
// Determinism: each link gets its own RNG stream derived from the bus
// seed via splitmix64 (NOT seed + link_id, which correlates neighboring
// streams), and streams are consumed in event order, so a fixed seed
// reproduces a lossy run bit-for-bit.

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace dsdn::sim {

// Per-link fault probabilities, rolled once per transmit attempt.
struct LinkFaultProfile {
  double drop = 0.0;       // copy never reaches the far end
  double duplicate = 0.0;  // a second copy is delivered
  double corrupt = 0.0;    // payload bytes are garbled in flight
  double reorder = 0.0;    // copy is held back by an extra random delay
  // Maximum hold-back applied to reordered copies, seconds (uniform).
  double reorder_delay_s = 0.050;
  // Uniform extra latency on every copy, seconds (0 = none).
  double jitter_s = 0.0;

  bool quiet() const {
    return drop == 0.0 && duplicate == 0.0 && corrupt == 0.0 &&
           reorder == 0.0 && jitter_s == 0.0;
  }
};

// The one NSU flood-retransmit policy, used by DsdnEmulation's flooder
// and by the statistical flood model (sim/convergence.hpp). A transfer
// that gets no intact copy to the far end times out at the sender (gRPC
// would surface a deadline-exceeded RPC) and is retried after
// exponential backoff plus jitter. After kMaxRetransmits retries the
// sender gives up on that link; the NSU can still arrive via other
// flooding paths, or with the next originated sequence number.
namespace flood_retransmit {

inline constexpr int kMaxRetransmits = 5;
// Each retry draws exactly one u uniform in [0, kJitter).
inline constexpr double kJitter = 0.2;

// Wait before resending once attempt `attempt` (0 = the first try) is
// lost; `u` is that retry's jitter draw.
inline double backoff(int attempt, double u) {
  return 0.050 * std::pow(2.0, attempt) * (1.0 + u);
}

}  // namespace flood_retransmit

class FaultyBus {
 public:
  explicit FaultyBus(std::uint64_t seed) : seed_(seed) {}

  void set_default_profile(const LinkFaultProfile& p) { default_ = p; }
  void set_link_profile(topo::LinkId link, const LinkFaultProfile& p) {
    per_link_[link] = p;
  }
  const LinkFaultProfile& profile(topo::LinkId link) const;

  // One copy placed on the wire.
  struct Copy {
    double extra_delay_s = 0.0;
    bool corrupted = false;
  };

  // One transmit attempt over `link`: rolls the link's profile and
  // returns the copies that actually go out (empty = dropped).
  std::vector<Copy> transmit(topo::LinkId link);

  // Deterministically garbles 1-4 bytes of the payload using the link's
  // stream (no-op on an empty payload).
  void corrupt_payload(topo::LinkId link, std::vector<std::uint8_t>& bytes);

  // Uniform draw from the link's stream (for retransmit backoff jitter,
  // so the whole lossy run stays on seeded randomness).
  double uniform(topo::LinkId link, double lo, double hi);

  struct Stats {
    std::size_t attempts = 0;
    std::size_t dropped = 0;
    std::size_t duplicated = 0;
    std::size_t corrupted = 0;
    std::size_t reordered = 0;

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }

 private:
  util::Rng& rng_for(topo::LinkId link);

  std::uint64_t seed_;
  LinkFaultProfile default_;
  std::unordered_map<topo::LinkId, LinkFaultProfile> per_link_;
  std::unordered_map<topo::LinkId, util::Rng> rngs_;
  Stats stats_;
};

}  // namespace dsdn::sim
