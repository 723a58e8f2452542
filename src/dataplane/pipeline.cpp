#include "dataplane/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace dsdn::dataplane {
namespace {

// Same counter the scalar forwarder bumps, so packet-level down-link
// drops aggregate regardless of which path forwarded the packet.
obs::Counter& down_link_drops() {
  static obs::Counter& c =
      obs::Registry::global().counter("dataplane.down_link_drops");
  return c;
}

}  // namespace

// Flat working record for one in-flight packet; record i is spec i of
// the batch. Labels are stored bottom-first (top of stack =
// labels[depth - 1]) so a transit pop is a decrement and an FRR splice
// appends -- no memmove on the hot path.
struct BatchPipeline::BatchPacket {
  std::uint32_t dst_ip;
  metrics::PriorityClass priority;
  std::uint64_t entropy;
  int ttl;
  topo::NodeId at;
  topo::NodeId ingress;   // original injection point (slow-path rerun)
  int orig_ttl;           // original ttl budget (slow-path rerun)
  std::uint16_t depth;
  std::uint32_t hops;
  std::uint32_t frr;
  double latency_s;
  Label labels[kInlineLabels];
};

static_assert(kBatchSize <= 256, "live slots are listed as bytes");

BatchPipeline::BatchPipeline(const topo::Topology& topo,
                             const SnapshotHub* hub, PipelineOptions opts)
    : topo_(topo), hub_(hub), opts_(std::move(opts)),
      max_hops_(forward_hop_bound(topo)) {
  if (!hub_) throw std::invalid_argument("BatchPipeline: null hub");
  if (opts_.core >= hub_->num_cores())
    throw std::invalid_argument("BatchPipeline: core out of range");
}

void BatchPipeline::process(std::span<const PacketSpec> specs,
                            std::vector<PacketVerdict>& out) {
  out.resize(specs.size());
  traces_.clear();
  if (opts_.record_traces) traces_.resize(specs.size());
  for (std::size_t off = 0; off < specs.size(); off += kBatchSize) {
    const std::size_t n = std::min(kBatchSize, specs.size() - off);
    run_batch(specs.data() + off, n, out.data() + off, off);
  }
}

std::vector<PacketVerdict> BatchPipeline::process(
    std::span<const PacketSpec> specs) {
  std::vector<PacketVerdict> out;
  process(specs, out);
  return out;
}

void BatchPipeline::run_batch(const PacketSpec* specs, std::size_t n,
                              PacketVerdict* out, std::size_t trace_base) {
  // RCU read side: pin one immutable epoch for the whole batch. A
  // reprogram that publishes mid-batch is observed only by later batches.
  pinned_ = hub_->acquire(opts_.core);
  last_epoch_.store(pinned_->epoch, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);

  BatchPacket pkts[kBatchSize];
  std::uint8_t live[kBatchSize];
  std::size_t n_live = stage_ingress(specs, pkts, n, live, out, trace_base);
  while (n_live > 0) n_live = stage_round(pkts, live, n_live, out, trace_base);
  pinned_.reset();
}

std::size_t BatchPipeline::stage_ingress(const PacketSpec* specs,
                                         BatchPacket* pkts, std::size_t n,
                                         std::uint8_t* live,
                                         PacketVerdict* out,
                                         std::size_t trace_base) {
  const FibSnapshot& snap = *pinned_;
  std::size_t n_live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PacketSpec& s = specs[i];
    BatchPacket& p = pkts[i];
    p.dst_ip = s.dst_ip;
    p.priority = s.priority;
    p.entropy = s.entropy;
    p.ttl = s.ttl;
    p.at = s.ingress;
    p.ingress = s.ingress;
    p.orig_ttl = s.ttl;
    p.depth = 0;
    p.hops = 0;
    p.frr = 0;
    p.latency_s = 0.0;
    if (opts_.record_traces) traces_[trace_base + i].push_back(p.at);

    const RouterDataplane& rd = snap.at(p.at);
    const LabelStack* stack =
        rd.ingress.lookup_stack(p.dst_ip, p.priority, p.entropy);
    if (!stack) {
      const auto egress = rd.ingress.egress_for(p.dst_ip);
      finish(p, egress && *egress == p.at
                    ? ForwardOutcome::kDelivered
                    : ForwardOutcome::kDroppedNoIngressRoute,
             out[i]);
      continue;
    }
    const auto& labels = stack->labels();  // top-first
    if (labels.size() > kInlineLabels) {
      slow_path(p, i, out, trace_base);
      continue;
    }
    p.depth = static_cast<std::uint16_t>(labels.size());
    for (std::size_t j = 0; j < labels.size(); ++j)
      p.labels[labels.size() - 1 - j] = labels[j];
    live[n_live++] = static_cast<std::uint8_t>(i);
  }
  return n_live;
}

std::size_t BatchPipeline::stage_round(BatchPacket* pkts, std::uint8_t* live,
                                       std::size_t n_live,
                                       PacketVerdict* out,
                                       std::size_t trace_base) {
  const FibSnapshot& snap = *pinned_;
  std::size_t keep = 0;
  for (std::size_t k = 0; k < n_live; ++k) {
    const std::size_t i = live[k];
    BatchPacket& p = pkts[i];
    // Exactly one iteration of the scalar forward loop (see
    // Forwarder::forward) -- an FRR splice consumes a ttl tick without
    // advancing, matching the scalar `continue`.
    if (--p.ttl <= 0) {
      finish(p, ForwardOutcome::kDroppedTtlExpired, out[i]);
      continue;
    }
    if (p.depth == 0) {
      const auto egress = snap.at(p.at).ingress.egress_for(p.dst_ip);
      finish(p, egress && *egress == p.at ? ForwardOutcome::kDelivered
                                          : ForwardOutcome::kDroppedNotLocal,
             out[i]);
      continue;
    }

    const Label outer = p.labels[p.depth - 1];
    if (is_node_segment_label(outer)) {
      const topo::NodeId target = segment_node(outer);
      if (target == p.at) {
        --p.depth;  // segment complete: pop, consuming this ttl tick
        live[keep++] = static_cast<std::uint8_t>(i);
        continue;
      }
      const std::vector<SrNextHop>* members =
          snap.at(p.at).sr.members(target);
      if (!members) {
        finish(p, ForwardOutcome::kDroppedUnknownLabel, out[i]);
        continue;
      }
      // ECMP re-pick among up members (snapshot liveness) IS the local
      // repair for segment routing; no FRR splice.
      std::size_t n_up = 0;
      for (const SrNextHop& m : *members) {
        if (snap.up(m.link)) ++n_up;
      }
      if (n_up == 0) {
        down_link_drops().inc();
        finish(p, ForwardOutcome::kDroppedLinkDownNoBypass, out[i]);
        continue;
      }
      std::size_t pick = sr_ecmp_pick(p.entropy, p.at, n_up);
      const SrNextHop* chosen = nullptr;
      for (const SrNextHop& m : *members) {
        if (!snap.up(m.link)) continue;
        if (pick-- == 0) {
          chosen = &m;
          break;
        }
      }
      const topo::Link& link = topo_.link(chosen->link);
      p.at = link.dst;  // keep the label: consumed only at the target
      p.latency_s += link.delay_s;
      ++p.hops;
      if (opts_.record_traces) traces_[trace_base + i].push_back(p.at);
      if (p.hops > max_hops_) {
        finish(p, ForwardOutcome::kDroppedLoop, out[i]);
        continue;
      }
      live[keep++] = static_cast<std::uint8_t>(i);
      continue;
    }
    // Transit reads only the topology and the snapshot's link flags --
    // never this hop's router tables -- until a dead link needs FRR.
    const topo::Link* link = transit_link(topo_, p.at, outer);
    if (!link) {
      finish(p, ForwardOutcome::kDroppedUnknownLabel, out[i]);
      continue;
    }

    if (!snap.up(link->id)) {
      --p.depth;  // pop the invalid label
      const LabelStack* bypass =
          snap.at(p.at).bypass.select_stack(link->id, p.entropy);
      if (!bypass) {
        down_link_drops().inc();
        finish(p, ForwardOutcome::kDroppedLinkDownNoBypass, out[i]);
        continue;
      }
      const auto& bl = bypass->labels();  // top-first
      if (p.depth + bl.size() > kInlineLabels) {
        slow_path(p, i, out, trace_base);
        continue;
      }
      for (std::size_t j = 0; j < bl.size(); ++j)
        p.labels[p.depth + j] = bl[bl.size() - 1 - j];
      p.depth = static_cast<std::uint16_t>(p.depth + bl.size());
      ++p.frr;
      live[keep++] = static_cast<std::uint8_t>(i);
      continue;
    }

    // Normal transit: pop the outer label and forward.
    --p.depth;
    p.at = link->dst;
    p.latency_s += link->delay_s;
    ++p.hops;
    if (opts_.record_traces) traces_[trace_base + i].push_back(p.at);
    if (p.hops > max_hops_) {
      finish(p, ForwardOutcome::kDroppedLoop, out[i]);
      continue;
    }
    live[keep++] = static_cast<std::uint8_t>(i);
  }
  return keep;
}

void BatchPipeline::finish(const BatchPacket& p, ForwardOutcome o,
                           PacketVerdict& v) {
  v.outcome = o;
  v.final_node = p.at;
  v.latency_s = p.latency_s;
  v.hops = p.hops;
  v.frr_activations = p.frr;
  account(v);
}

void BatchPipeline::account(const PacketVerdict& v) {
  packets_.fetch_add(1, std::memory_order_relaxed);
  if (v.outcome == ForwardOutcome::kDelivered)
    delivered_.fetch_add(1, std::memory_order_relaxed);
  else
    dropped_.fetch_add(1, std::memory_order_relaxed);
  if (v.frr_activations)
    frr_.fetch_add(v.frr_activations, std::memory_order_relaxed);
  by_outcome_[static_cast<std::size_t>(v.outcome)].fetch_add(
      1, std::memory_order_relaxed);
}

void BatchPipeline::slow_path(const BatchPacket& p, std::size_t i,
                              PacketVerdict* out, std::size_t trace_base) {
  // Rerun the whole packet from scratch through the scalar Forwarder on
  // the snapshot this batch pinned -- its tables and its link state. The
  // walk is deterministic, so the verdict is identical to what the fast
  // path would have produced with an unlimited inline array. Reads only
  // snapshot + immutable topology fields: safe under concurrent churn.
  const SnapshotView view(pinned_);
  const Forwarder forwarder(topo_, &view);
  Packet pkt;
  pkt.dst_ip = p.dst_ip;
  pkt.priority = p.priority;
  pkt.entropy = p.entropy;
  pkt.ttl = p.orig_ttl;
  ForwardResult r = forwarder.forward(std::move(pkt), p.ingress);

  PacketVerdict& v = out[i];
  v.outcome = r.outcome;
  v.final_node = r.final_node;
  v.latency_s = r.latency_s;
  v.hops = static_cast<std::uint32_t>(r.hops);
  v.frr_activations = static_cast<std::uint32_t>(r.frr_activations);
  if (opts_.record_traces) traces_[trace_base + i] = std::move(r.trace);
  slow_path_.fetch_add(1, std::memory_order_relaxed);
  account(v);
}

PipelineStats BatchPipeline::stats() const {
  PipelineStats s;
  s.packets = packets_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.frr_activations = frr_.load(std::memory_order_relaxed);
  s.slow_path_packets = slow_path_.load(std::memory_order_relaxed);
  s.last_epoch = last_epoch_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.by_outcome.size(); ++i)
    s.by_outcome[i] = by_outcome_[i].load(std::memory_order_relaxed);
  return s;
}

}  // namespace dsdn::dataplane
