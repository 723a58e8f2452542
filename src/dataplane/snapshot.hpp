#pragma once

// RCU-style immutable FIB snapshots for the batched dataplane (§3.2).
//
// The scalar Forwarder reads router tables through a DataplaneProvider
// that may be backed by *live* controller FIBs -- fine single-threaded,
// but a reprogram concurrent with forwarding would tear a table mid-walk.
// Real forwarding ASICs avoid this with all-or-nothing table banks; we
// model the same property in software with whole-snapshot swaps:
//
//  - A FibSnapshot is a deeply immutable view of every router's tables
//    (shared_ptr<const RouterDataplane> per router) tagged with a
//    monotonically increasing epoch.
//  - A SnapshotHub holds one published snapshot per forwarding core in a
//    cache-line-padded, mutex-guarded shared_ptr slot. acquire(core) pins
//    the current snapshot (two refcount ops under the slot mutex -- a
//    plain mutex rather than std::atomic<shared_ptr>, whose libstdc++
//    lock-bit protocol is opaque to TSan). publish_*() builds the new
//    snapshot off to the side and swaps it into every slot, so a batch
//    either runs entirely on the old epoch or entirely on the new one --
//    never a torn mix.
//  - Publication is copy-on-write at router granularity: publish_router()
//    copies the one changed router plus the pointer vector; the other
//    routers' tables are shared with the previous epoch.
//
// core::Controller::recompute() publishes one epoch per reprogram, after
// *all* tables (prefixes, encap, bypasses) for its router are installed;
// in-flight batches finish on the epoch they pinned.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dataplane/forwarder.hpp"

namespace dsdn::dataplane {

// One immutable epoch of the whole fabric's forwarding state: per-router
// tables plus the link up/down flags as the dataplane saw them when the
// epoch was published. Forwarding cores must read liveness from here, not
// from a live Topology a churn driver may be flipping concurrently.
struct FibSnapshot {
  std::uint64_t epoch = 0;
  std::vector<std::shared_ptr<const RouterDataplane>> routers;
  std::vector<char> link_up;

  const RouterDataplane& at(topo::NodeId node) const {
    return *routers.at(node);
  }
  bool up(topo::LinkId link) const { return link_up[link] != 0; }
  std::size_t size() const { return routers.size(); }
};

class SnapshotHub {
 public:
  // Sizes the fabric (routers, links) and seeds the link flags from
  // `topo`'s current state; `num_cores` is the number of forwarding
  // cores (>= 1). Epoch 0 is published immediately with empty tables.
  SnapshotHub(const topo::Topology& topo, std::size_t num_cores);

  // Read side: pin the snapshot currently published to `core`. The
  // returned snapshot is immutable and valid for as long as the caller
  // holds the pointer, regardless of concurrent publishes.
  std::shared_ptr<const FibSnapshot> acquire(std::size_t core) const;

  // Write side (serialized internally). publish_router swaps in a new
  // epoch where `node`'s tables are replaced by a copy of `tables` and
  // every other router is shared with the previous epoch. publish_all
  // replaces every router at once (bulk install / test setup).
  std::uint64_t publish_router(topo::NodeId node,
                               const RouterDataplane& tables);
  std::uint64_t publish_all(
      std::vector<std::shared_ptr<const RouterDataplane>> routers);
  // Publishes `topo`'s current link up/down flags as a new epoch (tables
  // shared with the previous one) -- the dataplane-local port-state
  // detection that fires before the control plane reconverges.
  std::uint64_t publish_link_state(const topo::Topology& topo);

  std::uint64_t epoch() const;
  std::size_t num_cores() const { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    mutable std::mutex mu;
    std::shared_ptr<const FibSnapshot> snap;
  };

  void install(std::shared_ptr<const FibSnapshot> next);

  std::size_t num_routers_;
  // Serializes publishers; slot mutexes only guard the pointer swap so
  // readers are never blocked behind a snapshot build.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const FibSnapshot> latest_;  // guarded by publish_mu_
  std::vector<std::unique_ptr<Slot>> slots_;
};

// Adapts one pinned FibSnapshot to the scalar Forwarder's provider
// interface, tables and link state both -- the differential tests and the
// pipeline's rare slow path run the scalar walk against the exact
// snapshot a batch pinned.
class SnapshotView final : public DataplaneProvider {
 public:
  explicit SnapshotView(std::shared_ptr<const FibSnapshot> snap)
      : snap_(std::move(snap)) {}

  const RouterDataplane& at(topo::NodeId node) const override {
    return snap_->at(node);
  }
  const std::vector<char>* link_up() const override {
    return &snap_->link_up;
  }
  const FibSnapshot& snapshot() const { return *snap_; }

 private:
  std::shared_ptr<const FibSnapshot> snap_;
};

}  // namespace dsdn::dataplane
