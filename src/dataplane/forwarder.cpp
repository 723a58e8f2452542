#include "dataplane/forwarder.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace dsdn::dataplane {
namespace {

// Packets dropped at a transit router because the out-link was down and
// the router's BypassFib had no bypass around it. The packet-level
// counterpart of flow_eval's structural loss scoring.
obs::Counter& down_link_drops() {
  static obs::Counter& c =
      obs::Registry::global().counter("dataplane.down_link_drops");
  return c;
}

}  // namespace

const char* forward_outcome_name(ForwardOutcome o) {
  switch (o) {
    case ForwardOutcome::kDelivered: return "delivered";
    case ForwardOutcome::kDroppedNoIngressRoute: return "no-ingress-route";
    case ForwardOutcome::kDroppedUnknownLabel: return "unknown-label";
    case ForwardOutcome::kDroppedLinkDownNoBypass: return "link-down-no-bypass";
    case ForwardOutcome::kDroppedTtlExpired: return "ttl-expired";
    case ForwardOutcome::kDroppedNotLocal: return "not-local";
    case ForwardOutcome::kDroppedLoop: return "loop";
  }
  return "?";
}

Forwarder::Forwarder(const topo::Topology& topo,
                     const DataplaneProvider* provider)
    : topo_(topo), provider_(provider) {
  if (!provider) throw std::invalid_argument("Forwarder: null provider");
}

ForwardResult Forwarder::forward(Packet packet,
                                 topo::NodeId ingress_node) const {
  ForwardResult r;
  topo::NodeId at = ingress_node;
  r.trace.push_back(at);
  const std::size_t max_hops = forward_hop_bound(topo_);
  const std::vector<char>* link_up = provider_->link_up();
  const auto up = [&](topo::LinkId l) {
    return link_up ? (*link_up)[l] != 0 : topo_.link(l).up;
  };

  // Headend: two-stage lookup to build the source route.
  if (packet.stack.empty()) {
    const RouterDataplane& rd = provider_->at(at);
    const LabelStack* stack = rd.ingress.lookup_stack(
        packet.dst_ip, packet.priority, packet.entropy);
    if (!stack) {
      // Destination may be attached locally (no WAN hop needed).
      const auto egress = rd.ingress.egress_for(packet.dst_ip);
      if (egress && *egress == at) {
        r.outcome = ForwardOutcome::kDelivered;
        r.final_node = at;
        return r;
      }
      r.outcome = ForwardOutcome::kDroppedNoIngressRoute;
      r.final_node = at;
      return r;
    }
    packet.stack = *stack;
  }

  while (true) {
    if (--packet.ttl <= 0) {
      r.outcome = ForwardOutcome::kDroppedTtlExpired;
      r.final_node = at;
      return r;
    }
    if (packet.stack.empty()) {
      // Source route consumed: the packet must be at its egress router.
      const auto egress = provider_->at(at).ingress.egress_for(packet.dst_ip);
      r.final_node = at;
      r.outcome = (egress && *egress == at)
                      ? ForwardOutcome::kDelivered
                      : ForwardOutcome::kDroppedNotLocal;
      return r;
    }

    const Label outer = packet.stack.top();
    if (is_node_segment_label(outer)) {
      const topo::NodeId target = segment_node(outer);
      if (target == at) {
        // Segment complete: pop and re-examine (consumes a ttl tick, like
        // an FRR splice in the strict walk).
        packet.stack.pop();
        continue;
      }
      const std::vector<SrNextHop>* members =
          provider_->at(at).sr.members(target);
      if (!members) {
        r.outcome = ForwardOutcome::kDroppedUnknownLabel;
        r.final_node = at;
        return r;
      }
      // Segment routing's local repair is the ECMP re-pick itself: choose
      // among the members whose links are still up. All dead -> drop (no
      // FRR splice for node segments; the next recompute reprograms).
      std::size_t n_up = 0;
      for (const SrNextHop& m : *members) {
        if (up(m.link)) ++n_up;
      }
      if (n_up == 0) {
        down_link_drops().inc();
        r.outcome = ForwardOutcome::kDroppedLinkDownNoBypass;
        r.final_node = at;
        return r;
      }
      std::size_t pick = sr_ecmp_pick(packet.entropy, at, n_up);
      const SrNextHop* chosen = nullptr;
      for (const SrNextHop& m : *members) {
        if (!up(m.link)) continue;
        if (pick-- == 0) {
          chosen = &m;
          break;
        }
      }
      // Forward toward the segment target WITHOUT popping: the label is
      // consumed only at the target itself.
      const topo::Link& link = topo_.link(chosen->link);
      at = link.dst;
      r.latency_s += link.delay_s;
      ++r.hops;
      r.trace.push_back(at);
      if (r.hops > max_hops) {
        // Transiently divergent segment FIBs can micro-loop; the hop
        // bound converts that into an explicit loop drop.
        r.outcome = ForwardOutcome::kDroppedLoop;
        r.final_node = at;
        return r;
      }
      continue;
    }
    const topo::Link* out_link = transit_link(topo_, at, outer);
    if (!out_link) {
      r.outcome = ForwardOutcome::kDroppedUnknownLabel;
      r.final_node = at;
      return r;
    }
    const topo::Link& link = *out_link;

    if (!up(link.id)) {
      // Local repair: pop the invalid label, prepend a bypass route to the
      // link's far end, continue as the headend intended (§3.2). Only the
      // router's own pre-installed BypassFib can repair.
      packet.stack.pop();
      const LabelStack* bypass_stack =
          provider_->at(at).bypass.select_stack(link.id, packet.entropy);
      if (!bypass_stack) {
        down_link_drops().inc();
        r.outcome = ForwardOutcome::kDroppedLinkDownNoBypass;
        r.final_node = at;
        return r;
      }
      packet.stack.push_all_on_top(*bypass_stack);
      ++r.frr_activations;
      continue;
    }

    // Normal transit: pop the outer label and forward.
    packet.stack.pop();
    at = link.dst;
    r.latency_s += link.delay_s;
    ++r.hops;
    r.trace.push_back(at);
    if (r.hops > max_hops) {
      // Even a generous caller ttl cannot save a cycling FIB; report it
      // as what it is rather than a ttl artifact.
      r.outcome = ForwardOutcome::kDroppedLoop;
      r.final_node = at;
      return r;
    }
  }
}

}  // namespace dsdn::dataplane
