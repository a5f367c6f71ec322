#include "services/coding/encoder_dc.h"

#include <algorithm>

#include "common/logging.h"
#include "fec/coded_batch.h"

namespace jqos::services {

CodingEncoderService::CodingEncoderService(overlay::DataCenter& dc, const CodingParams& params,
                                           FlowRegistryPtr registry)
    : dc_(dc),
      params_(params),
      registry_(std::move(registry)),
      next_batch_id_(static_cast<std::uint32_t>(dc.dc_id()) << 20) {}

bool CodingEncoderService::handle(overlay::DataCenter& dc, const PacketPtr& pkt) {
  (void)dc;  // Bound to dc_ at construction; DataCenter passes itself back.
  if (pkt->type != PacketType::kData || pkt->service != ServiceType::kCode) return false;
  const FlowInfo* info = registry_->find(pkt->flow);
  if (info == nullptr) {
    ++stats_.unknown_flow;
    JQOS_DEBUG(dc_.name() << ": coded data for unregistered flow " << pkt->flow);
    return true;
  }
  ++stats_.data_packets;

  // (1) In-stream coding (Algorithm 1 lines 1-5).
  if (params_.in_coded > 0 && params_.in_block > 0) enqueue_in_stream(pkt);

  // (2) Cross-stream coding (Algorithm 1 lines 6-23). The destination DC is
  // derived from the flow (extract_dc2_id in the paper's pseudocode).
  if (params_.cross_coded > 0 && params_.k > 0) enqueue_cross_stream(pkt, info->dc2);
  return true;
}

void CodingEncoderService::enqueue_in_stream(const PacketPtr& pkt) {
  Queue& q = in_qs_[pkt->flow];
  q.pkts.push_back(pkt);
  if (q.pkts.size() >= params_.in_block) {
    const FlowInfo* info = registry_->find(pkt->flow);
    ++stats_.in_batches;
    encode_queue(q, params_.in_coded, PacketType::kInCoded, info->dc2);
  } else if (!dc_.network().sim().pending(q.timer)) {
    arm_timer_in(pkt->flow);
  }
}

void CodingEncoderService::enqueue_cross_stream(const PacketPtr& pkt, NodeId dc2) {
  auto& queues = cross_qs_[dc2];
  if (queues.empty()) queues.resize(std::max<std::size_t>(1, params_.queues_per_group));
  group_flows_[dc2].insert(pkt->flow);
  // Batches can hold at most one packet per flow, so a group with fewer
  // flows than k closes batches at the group size (>= 2; single-flow groups
  // fall back to the queue timer).
  const std::size_t effective_k =
      std::min(params_.k, std::max<std::size_t>(2, group_flows_[dc2].size()));

  // Round-robin queue choice for this flow (line 7).
  std::size_t& cursor = rr_cursor_[pkt->flow];
  std::size_t idx = cursor % queues.size();
  cursor = (cursor + 1) % queues.size();

  // Find a queue without a packet from this flow (lines 9-12).
  const std::size_t initial = idx;
  while (queue_contains_flow(queues[idx], pkt->flow)) {
    idx = (idx + 1) % queues.size();
    if (idx == initial) {
      // Every queue holds one of our packets (lines 13-19): flush the
      // current queue if it has company, else evict our stale packet --
      // a single-flow "cross"-coded packet is just duplication and wastes
      // inter-DC bandwidth.
      Queue& q = queues[idx];
      if (q.pkts.size() > 1) {
        ++stats_.cross_batches;
        ++stats_.full_scan_flushes;
        encode_queue(q, params_.cross_coded, PacketType::kCrossCoded, dc2);
      } else {
        ++stats_.single_packet_evictions;
        q.pkts.clear();
        disarm(q);
      }
      break;
    }
  }

  Queue& q = queues[idx];
  q.pkts.push_back(pkt);  // Line 20.
  if (q.pkts.size() >= effective_k) {
    ++stats_.cross_batches;
    encode_queue(q, params_.cross_coded, PacketType::kCrossCoded, dc2);  // Lines 21-23.
  } else if (!dc_.network().sim().pending(q.timer)) {
    arm_timer_cross(dc2, idx);
  }
}

bool CodingEncoderService::peer_sendable(NodeId dc2) {
  if (!peer_health_) return true;
  PeerState& peer = peers_[dc2];
  if (!peer.suspended) {
    if (peer_health_(dc2)) return true;
    // First flush to find the DC dead: suspend and start the backoff clock.
    peer.suspended = true;
    peer.backoff = params_.peer_backoff_base;
    peer.retry_at = dc_.now() + peer.backoff;
    ++stats_.peer_suspends;
    return false;
  }
  if (dc_.now() < peer.retry_at) return false;  // Still backing off.
  // Probe flush: one batch gets through the gate to test the peer. A healthy
  // answer re-engages immediately; a dead one doubles the backoff (capped).
  ++stats_.peer_probes;
  if (peer_health_(dc2)) {
    peer.suspended = false;
    peer.backoff = 0;
    ++stats_.peer_reengages;
    return true;
  }
  peer.backoff = std::min(peer.backoff * 2, params_.peer_backoff_cap);
  peer.retry_at = dc_.now() + peer.backoff;
  return false;
}

void CodingEncoderService::encode_queue(Queue& q, std::size_t coded, PacketType type,
                                        NodeId dc2) {
  if (q.pkts.empty() || dc2 == kInvalidNode) {
    q.pkts.clear();
    disarm(q);
    return;
  }
  if (!peer_sendable(dc2)) {
    // The staged packets still reached their receivers on the direct path;
    // only the coded protection is lost while DC2 is out.
    ++stats_.flushes_suppressed;
    q.pkts.clear();
    disarm(q);
    return;
  }
  const std::uint32_t batch_id = next_batch_id_++;
  coded_scratch_.clear();
  encoder_.encode_into(q.pkts, coded, type, batch_id, dc_.id(), dc2, dc_.now(),
                       coded_scratch_, dc_.network().pool());
  for (auto& cp : coded_scratch_) {
    // Coded packets ride the inter-DC path with the coding service tag so
    // the recovery DC claims them on arrival.
    auto mutable_cp = std::const_pointer_cast<Packet>(cp);
    mutable_cp->service = ServiceType::kCode;
    mutable_cp->final_dst = dc2;
    ++stats_.coded_sent;
    dc_.send(cp);
  }
  q.pkts.clear();
  disarm(q);
}

// Every path that empties or erases a queue disarms it first, so a firing
// queue timer always finds its queue present and non-empty.
void CodingEncoderService::arm_timer_in(FlowId flow) {
  Queue& q = in_qs_[flow];
  disarm(q);
  q.timer = dc_.network().sim().after(params_.queue_timeout, [this, flow] {
    Queue& queue = in_qs_.at(flow);
    const FlowInfo* info = registry_->find(flow);
    if (info == nullptr) {
      queue.pkts.clear();
      return;
    }
    ++stats_.timer_flushes;
    ++stats_.in_batches;
    encode_queue(queue, params_.in_coded, PacketType::kInCoded, info->dc2);
  });
}

void CodingEncoderService::arm_timer_cross(NodeId dc2, std::size_t index) {
  Queue& q = cross_qs_.at(dc2)[index];
  disarm(q);
  q.timer = dc_.network().sim().after(params_.queue_timeout, [this, dc2, index] {
    ++stats_.timer_flushes;
    ++stats_.cross_batches;
    encode_queue(cross_qs_.at(dc2)[index], params_.cross_coded, PacketType::kCrossCoded, dc2);
  });
}

void CodingEncoderService::disarm(Queue& q) { dc_.network().sim().cancel(q.timer); }

bool CodingEncoderService::queue_contains_flow(const Queue& q, FlowId flow) const {
  return std::any_of(q.pkts.begin(), q.pkts.end(),
                     [flow](const PacketPtr& p) { return p->flow == flow; });
}

void CodingEncoderService::flow_departed(FlowId flow, NodeId dc2) {
  ++stats_.flow_departures;
  auto in_it = in_qs_.find(flow);
  if (in_it != in_qs_.end()) {
    if (!in_it->second.pkts.empty()) {
      const FlowInfo* info = registry_->find(flow);
      if (info != nullptr) {
        ++stats_.in_batches;
        encode_queue(in_it->second, params_.in_coded, PacketType::kInCoded, info->dc2);
      } else {
        disarm(in_it->second);
      }
    } else {
      disarm(in_it->second);
    }
    in_qs_.erase(flow);
  }
  rr_cursor_.erase(flow);
  auto grp = group_flows_.find(dc2);
  if (grp != group_flows_.end()) {
    grp->second.erase(flow);
    if (grp->second.empty()) group_flows_.erase(grp);
  }
}

void CodingEncoderService::on_dc_crash() {
  ++stats_.crash_wipes;
  // Everything staged in process memory is gone, and so are the queue
  // timers: disarm() cancels each one before its queue is erased.
  for (auto& [flow, q] : in_qs_) disarm(q);
  in_qs_.clear();
  for (auto& [dc2, queues] : cross_qs_) {
    for (Queue& q : queues) disarm(q);
  }
  cross_qs_.clear();
  rr_cursor_.clear();
  group_flows_.clear();
  // A restarted process has no memory of suspended peers either.
  peers_.clear();
  // next_batch_id_ deliberately survives: it models the id namespace, not
  // state -- reusing ids would alias live batches at the recovery DC.
}

void CodingEncoderService::flush_all() {
  // Flush in ascending FlowId order, not hash order: flows are numbered in
  // path-registration order, so the flush sequence -- and therefore the
  // send order on shared inter-DC links -- is identical whether this
  // encoder serves one experiment shard or the monolithic run.
  std::vector<FlowId>& flows = flush_scratch_;
  flows.clear();
  flows.reserve(in_qs_.size());
  for (const auto& [flow, q] : in_qs_) flows.push_back(flow);
  std::sort(flows.begin(), flows.end());
  for (FlowId flow : flows) {
    Queue& q = in_qs_[flow];
    if (q.pkts.empty()) continue;
    const FlowInfo* info = registry_->find(flow);
    if (info == nullptr) {
      q.pkts.clear();
      disarm(q);
      continue;
    }
    ++stats_.in_batches;
    encode_queue(q, params_.in_coded, PacketType::kInCoded, info->dc2);
  }
  for (auto& [dc2, queues] : cross_qs_) {
    for (Queue& q : queues) {
      if (q.pkts.empty()) continue;
      ++stats_.cross_batches;
      encode_queue(q, params_.cross_coded, PacketType::kCrossCoded, dc2);
    }
  }
}

}  // namespace jqos::services
