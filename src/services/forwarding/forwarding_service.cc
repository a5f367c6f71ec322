#include "services/forwarding/forwarding_service.h"

#include "common/logging.h"

namespace jqos::services {

void ForwardingService::set_multicast_group(NodeId group, std::vector<NodeId> members) {
  groups_[group] = std::move(members);
}

bool ForwardingService::handle(overlay::DataCenter& dc, const PacketPtr& pkt) {
  const NodeId final_dst = pkt->final_dst;
  // Only packets still in transit concern forwarding: a packet whose final
  // destination is this DC (or which has none) belongs to a local service.
  if (final_dst == kInvalidNode || final_dst == dc.id()) return false;

  if (is_multicast(final_dst)) {
    auto it = groups_.find(final_dst);
    if (it == groups_.end()) {
      ++stats_.no_route;
      JQOS_WARN(dc.name() << ": unknown multicast group " << final_dst);
      return true;
    }
    for (NodeId member : it->second) {
      auto copy = dc.network().pool().acquire_copy(*pkt);
      copy->dst = member;
      copy->final_dst = member;
      ++stats_.multicast_copies;
      dc.send(copy);
    }
    return true;
  }

  forward_unicast(dc, pkt, final_dst);
  return true;
}

void ForwardingService::forward_unicast(overlay::DataCenter& dc, const PacketPtr& pkt,
                                        NodeId final_dst) {
  auto it = routes_.find(final_dst);
  const NodeId next_hop = it == routes_.end() ? final_dst : it->second;
  auto copy = dc.network().pool().acquire_copy(*pkt);
  copy->dst = next_hop;
  ++stats_.forwarded;
  dc.send(copy);
}

}  // namespace jqos::services
