#include "common/packet_pool.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

#include "common/knobs.h"

namespace jqos {

struct PacketPoolCore {
  ~PacketPoolCore() {
    for (Packet* p : free_packets) delete p;
  }

  // Frees the core once the facade is gone and nothing is checked out. The
  // caller must not touch the core afterwards.
  void maybe_die() {
    if (orphaned && outstanding == 0) delete this;
  }

  Packet* take_packet() {
    ++outstanding;
    high_water = std::max(high_water, outstanding);
    if (free_packets.empty()) {
      ++fresh;
      auto* p = new Packet();
      p->anchor_.home = this;
      return p;
    }
    Packet* p = free_packets.back();
    free_packets.pop_back();
    pooled_bytes -= sizeof(Packet) + p->payload.capacity();
    ++reused;
    return p;
  }

  // A packet's last handle lands here. Scrub the packet back to the
  // acquire() contract, salvage the covered-key vector's capacity, and pool
  // what the byte budget allows.
  void release_packet(Packet* p) {
    std::vector<PacketKey> keys;
    if (p->meta) keys = std::move(p->meta->covered);
    p->meta.reset();
    p->type = PacketType::kData;
    p->service = ServiceType::kNone;
    p->flow = 0;
    p->seq = 0;
    p->src = kInvalidNode;
    p->dst = kInvalidNode;
    p->final_dst = kInvalidNode;
    p->sent_at = 0;
    p->ecn_capable = false;
    p->ecn_ce = false;
    p->payload.clear();
    if (p->payload.capacity() > PacketPool::kMaxPacketBytes) p->payload.shrink_to_fit();
    --outstanding;
    const std::size_t pb = sizeof(Packet) + p->payload.capacity();
    if (pooled_bytes + pb <= PacketPool::kMaxRetainedBytes) {
      pooled_bytes += pb;
      free_packets.push_back(p);
    } else {
      delete p;
    }
    const std::size_t kb = keys.capacity() * sizeof(PacketKey);
    if (kb > 0 && pooled_bytes + kb <= PacketPool::kMaxRetainedBytes) {
      keys.clear();
      pooled_bytes += kb;
      spare_keys.push_back(std::move(keys));
    }
    maybe_die();
  }

  // Lifetime: a packet references its home core by RAW pointer, and
  // `outstanding` counts the packets currently checked out. When the facade
  // dies it sets `orphaned`, and whichever return drains `outstanding` to
  // zero (or the facade dtor itself) deletes the core.
  bool orphaned = false;
  std::vector<Packet*> free_packets;
  std::vector<std::vector<PacketKey>> spare_keys;
  std::size_t pooled_bytes = 0;
  std::size_t outstanding = 0;
  std::size_t high_water = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
};

void release_packet(Packet* p) noexcept {
  if (p->anchor_.home != nullptr) {
    p->anchor_.home->release_packet(p);
  } else {
    delete p;
  }
}

PacketPool::PacketPool() : enabled_(env_enabled()), core_(new PacketPoolCore) {}

PacketPool::~PacketPool() {
  core_->orphaned = true;
  core_->maybe_die();
}

PacketMut PacketPool::acquire() {
  if (!enabled_) return new_packet();
  return PacketMut(core_->take_packet());
}

PacketMut PacketPool::acquire_copy(const Packet& src) {
  if (!enabled_) return new_packet(src);
  auto p = acquire();
  // Engaging meta first hands it salvaged covered-key capacity, which the
  // copy then reuses, as it reuses the recycled payload's.
  if (src.meta) engage_meta(*p);
  *p = src;
  return p;
}

CodedMeta& PacketPool::engage_meta(Packet& pkt) {
  if (!pkt.meta) pkt.meta.emplace();
  CodedMeta& m = *pkt.meta;
  m.covered.clear();
  if (enabled_ && m.covered.capacity() == 0 && !core_->spare_keys.empty()) {
    core_->pooled_bytes -= core_->spare_keys.back().capacity() * sizeof(PacketKey);
    m.covered = std::move(core_->spare_keys.back());
    core_->spare_keys.pop_back();
  }
  m.batch_id = 0;
  m.index = 0;
  m.k = 0;
  m.r = 0;
  return m;
}

std::size_t PacketPool::pooled_bytes() const { return core_->pooled_bytes; }
std::size_t PacketPool::high_water() const { return core_->high_water; }
std::size_t PacketPool::outstanding() const { return core_->outstanding; }
std::uint64_t PacketPool::reused() const { return core_->reused; }
std::uint64_t PacketPool::fresh() const { return core_->fresh; }

bool PacketPool::env_enabled() {
  return knobs::read(knobs::kPacketPool, true, [](std::string_view v) -> std::optional<bool> {
    if (v == "1") return true;
    if (v == "0") return false;
    return std::nullopt;
  });
}

}  // namespace jqos
