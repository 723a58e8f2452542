#pragma once

// The controller-internal pub-sub bus (§3.3, Fig 6): standalone modules
// (NodeStateExchange, StateDB, LocalState, Pathing, Programmer)
// communicate by publishing typed messages to topics rather than calling
// each other directly, keeping them independently replaceable.
//
// Delivery is synchronous and in subscription order -- the controller is
// single-threaded by design (the heavy lifting happens in the separately
// containerized TE solver).

#include <any>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace dsdn::core {

class Bus {
 public:
  using Handler = std::function<void(const std::any&)>;

  // Subscribes to a topic; returns a token usable with unsubscribe().
  std::size_t subscribe(const std::string& topic, Handler handler);
  void unsubscribe(const std::string& topic, std::size_t token);

  // Synchronously delivers to all current subscribers of the topic.
  void publish(const std::string& topic, const std::any& message) const;

  // Typed convenience: publishes T and lets subscribers any_cast it. The
  // message is copied into a std::any only when the topic has a
  // subscriber.
  template <typename T>
  void publish_as(const std::string& topic, const T& message) const {
    if (num_subscribers(topic) > 0) publish(topic, std::any(message));
  }

  std::size_t num_subscribers(const std::string& topic) const;

 private:
  struct Sub {
    std::size_t token;
    Handler handler;
  };
  std::map<std::string, std::vector<Sub>> subs_;
  std::size_t next_token_ = 1;
};

// Well-known topics used by the stock controller wiring.
namespace topics {
inline constexpr const char* kNsuReceived = "nsu.received";     // NodeStateUpdate
inline constexpr const char* kStateChanged = "state.changed";   // uint64 digest
inline constexpr const char* kSolutionReady = "solution.ready"; // te::Solution
}  // namespace topics

}  // namespace dsdn::core
