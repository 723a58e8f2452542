#pragma once

// Batched per-core dataplane pipeline (§3.2, BESS-style run-to-completion).
//
// Packets flow through the forwarding stages in fixed-size batches of
// kBatchSize: one ingress stage performs the two-stage lookup for the
// whole batch, then transit rounds advance every still-live packet one
// scalar-loop step (label decode -> down-link check -> FRR bypass splice
// -> advance) until the batch drains. Working state lives in a flat
// array of BatchPacket records with an inline label array, so a round
// touches contiguous memory instead of chasing per-packet heap stacks;
// a round compacts a byte list of live slots, never the records.
//
// Snapshot discipline: each batch pins one immutable FibSnapshot from the
// core's SnapshotHub slot at batch start (the RCU read side) and runs to
// completion on it; a reprogram publishing a new epoch never affects a
// batch already in flight.
//
// Parity contract: for the same (snapshot, packet) this pipeline returns
// bit-for-bit the verdict the scalar Forwarder computes -- same weighted
// route and bypass picks, same ttl accounting (an FRR splice consumes a
// ttl tick, exactly like the scalar loop's `continue`), same hop bound.
// The one divergence risk -- repeated FRR splices overflowing the inline
// label array -- is handled by rerunning that packet from scratch through
// the scalar Forwarder on the *same pinned snapshot* (deterministic, so
// the verdict is identical); such packets are counted as slow path. The
// differential test in tests/test_batch_pipeline.cpp enforces the
// contract across seeds and churn.

#include <array>
#include <atomic>
#include <span>

#include "dataplane/snapshot.hpp"

namespace dsdn::dataplane {

inline constexpr std::size_t kBatchSize = 32;
// Inline label capacity per packet; deeper stacks (repeated FRR splices)
// take the scalar slow path.
inline constexpr std::size_t kInlineLabels = 64;

// What the bench / traffic generator injects: a packet before the headend
// lookup, at its ingress router.
struct PacketSpec {
  std::uint32_t dst_ip = 0;
  metrics::PriorityClass priority = metrics::PriorityClass::kHigh;
  std::uint64_t entropy = 0;
  int ttl = 64;
  topo::NodeId ingress = 0;
};

// Per-packet result, mirroring ForwardResult minus the trace (traces are
// opt-in via PipelineOptions::record_traces; the hot path skips them).
struct PacketVerdict {
  ForwardOutcome outcome = ForwardOutcome::kDroppedNoIngressRoute;
  topo::NodeId final_node = topo::kInvalidNode;
  double latency_s = 0.0;
  std::uint32_t hops = 0;
  std::uint32_t frr_activations = 0;
};

struct PipelineOptions {
  std::size_t core = 0;          // SnapshotHub slot this pipeline reads
  bool record_traces = false;    // per-packet node traces (tests)
};

// Aggregate counters, safe to read from another thread while the
// pipeline's owner is forwarding (relaxed atomics; exact once the owner
// is quiescent). The bench's churn thread reads these live.
struct PipelineStats {
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t frr_activations = 0;
  std::uint64_t slow_path_packets = 0;
  std::uint64_t last_epoch = 0;  // epoch of the most recent batch
  // Drops by ForwardOutcome enum value (kDelivered slot unused).
  std::array<std::uint64_t, 8> by_outcome{};
};

class BatchPipeline {
 public:
  // `hub` must outlive the pipeline; opts.core must be < hub->num_cores().
  BatchPipeline(const topo::Topology& topo, const SnapshotHub* hub,
                PipelineOptions opts = {});

  // Runs every spec to completion in kBatchSize batches; verdicts land in
  // `out` (resized) in spec order. One snapshot acquire per batch.
  void process(std::span<const PacketSpec> specs,
               std::vector<PacketVerdict>& out);
  std::vector<PacketVerdict> process(std::span<const PacketSpec> specs);

  PipelineStats stats() const;

  // Node traces of the packets from the most recent process() call, in
  // spec order (empty unless opts.record_traces).
  const std::vector<std::vector<topo::NodeId>>& traces() const {
    return traces_;
  }

 private:
  struct BatchPacket;

  void run_batch(const PacketSpec* specs, std::size_t n, PacketVerdict* out,
                 std::size_t trace_base);
  // Headend two-stage lookup for the whole batch: fills pkts[i] from
  // specs[i], lists the slots still in flight in `live` and returns
  // their count.
  std::size_t stage_ingress(const PacketSpec* specs, BatchPacket* pkts,
                            std::size_t n, std::uint8_t* live,
                            PacketVerdict* out, std::size_t trace_base);
  // One scalar-loop step for every slot in `live`; compacts the list in
  // place (the records never move) and returns the still-live count.
  std::size_t stage_round(BatchPacket* pkts, std::uint8_t* live,
                          std::size_t n_live, PacketVerdict* out,
                          std::size_t trace_base);
  void finish(const BatchPacket& p, ForwardOutcome o, PacketVerdict& v);
  void account(const PacketVerdict& v);
  // Deterministic scalar rerun of slot i on the pinned snapshot (inline
  // overflow).
  void slow_path(const BatchPacket& p, std::size_t i, PacketVerdict* out,
                 std::size_t trace_base);

  const topo::Topology& topo_;
  const SnapshotHub* hub_;
  PipelineOptions opts_;
  std::size_t max_hops_;
  // Snapshot pinned by the batch currently in flight (run_batch only; the
  // pipeline has a single owning thread).
  std::shared_ptr<const FibSnapshot> pinned_;

  std::vector<std::vector<topo::NodeId>> traces_;

  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> frr_{0};
  std::atomic<std::uint64_t> slow_path_{0};
  std::atomic<std::uint64_t> last_epoch_{0};
  std::array<std::atomic<std::uint64_t>, 8> by_outcome_{};
};

}  // namespace dsdn::dataplane
