#include "services/caching/caching_service.h"

namespace jqos::services {

bool CachingService::handle(overlay::DataCenter& dc, const PacketPtr& pkt) {
  switch (pkt->type) {
    case PacketType::kData: {
      if (pkt->service != ServiceType::kCache) return false;
      store_.put(pkt, dc.now(), ttl_);
      ++service_stats_.cached;
      return true;
    }
    case PacketType::kPull: {
      if (pkt->service != ServiceType::kCache) return false;
      // Pull key travels in (flow, seq) of the request itself.
      ++service_stats_.pulls;
      serve(dc, pkt->key(), pkt->src);
      return true;
    }
    case PacketType::kNack: {
      if (pkt->service != ServiceType::kCache) return false;
      // The receiver-driven recovery protocol: each explicitly missing
      // packet is served from the cache. Tail NACKs ask for everything at
      // or beyond `expected` -- served by probing forward while hits last
      // (sequence numbers are contiguous per flow).
      auto info = NackInfo::parse(pkt->payload);
      if (!info) return false;
      for (SeqNo s : info->missing) {
        ++service_stats_.pulls;
        serve(dc, PacketKey{pkt->flow, s}, pkt->src);
      }
      if (info->tail) {
        // Serve the contiguous cached run starting at `expected`; the first
        // miss ends the outage-recovery burst.
        SeqNo s = info->expected;
        while (true) {
          PacketPtr cached = store_.get(PacketKey{pkt->flow, s}, dc.now());
          if (cached == nullptr) break;
          ++service_stats_.pulls;
          ++service_stats_.pull_hits;
          auto out = dc.network().pool().acquire_copy(*cached);
          out->type = PacketType::kRecovered;
          out->dst = pkt->src;
          out->final_dst = pkt->src;
          dc.send(out);
          ++s;
        }
      }
      ++service_stats_.nack_recoveries;
      return true;
    }
    default:
      return false;
  }
}

void CachingService::serve(overlay::DataCenter& dc, const PacketKey& key, NodeId requester) {
  PacketPtr cached = store_.get(key, dc.now());
  if (cached == nullptr) {
    ++service_stats_.pull_misses;
    return;  // Recovery falls back to the transport (fails silently).
  }
  ++service_stats_.pull_hits;
  auto out = dc.network().pool().acquire_copy(*cached);
  out->type = PacketType::kRecovered;
  out->dst = requester;
  out->final_dst = requester;
  dc.send(out);
}

}  // namespace jqos::services
