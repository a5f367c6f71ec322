#include "common/packet_pool.h"

#include <algorithm>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

#include "common/knobs.h"

namespace jqos {

struct PacketPool::Core {
  ~Core() {
    for (Packet* p : free_packets) delete p;
    for (void* b : free_blocks) ::operator delete(b);
  }

  // Frees the core once the facade is gone and nothing is checked out. The
  // caller must not touch the core afterwards.
  void maybe_die() {
    if (orphaned && live == 0) delete this;
  }

  Packet* take_packet() {
    ++outstanding;
    ++live;
    high_water = std::max(high_water, outstanding);
    if (free_packets.empty()) {
      ++fresh;
      return new Packet();
    }
    Packet* p = free_packets.back();
    free_packets.pop_back();
    pooled_bytes -= sizeof(Packet) + p->payload.capacity();
    ++reused;
    return p;
  }

  // The shared_ptr deleter lands here. Scrub the packet back to the
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
    if (p->payload.capacity() > kMaxPacketBytes) p->payload.shrink_to_fit();
    --outstanding;
    --live;
    const std::size_t pb = sizeof(Packet) + p->payload.capacity();
    if (pooled_bytes + pb <= kMaxRetainedBytes) {
      pooled_bytes += pb;
      free_packets.push_back(p);
    } else {
      delete p;
    }
    const std::size_t kb = keys.capacity() * sizeof(PacketKey);
    if (kb > 0 && pooled_bytes + kb <= kMaxRetainedBytes) {
      keys.clear();
      pooled_bytes += kb;
      spare_keys.push_back(std::move(keys));
    }
    maybe_die();
  }

  // Control blocks are all the same size for a given shared_ptr shape; the
  // first allocation records it, and only that size is pooled (anything else
  // -- e.g. a weak_ptr-extended layout from a future libstdc++ -- falls back
  // to the heap, discriminated again at deallocate time).
  void* take_block(std::size_t bytes) {
    if (block_size == 0) block_size = bytes;
    void* b;
    if (bytes != block_size || free_blocks.empty()) {
      b = ::operator new(bytes);
    } else {
      b = free_blocks.back();
      free_blocks.pop_back();
      pooled_bytes -= bytes;
    }
    ++live;
    return b;
  }

  void give_block(void* b, std::size_t bytes) {
    --live;
    if (bytes == block_size && pooled_bytes + bytes <= kMaxRetainedBytes) {
      pooled_bytes += bytes;
      free_blocks.push_back(b);
    } else {
      ::operator delete(b);
    }
    maybe_die();
  }

  // Lifetime: the deleter/allocator reference the core by RAW pointer (a
  // shared_ptr would cost atomic refcount ops per packet). `live` counts
  // every packet and control block currently checked out; when the facade
  // dies it sets `orphaned`, and whichever return drains `live` to zero
  // (or the facade dtor itself) deletes the core.
  bool orphaned = false;
  std::size_t live = 0;
  std::vector<Packet*> free_packets;
  std::vector<void*> free_blocks;
  std::vector<std::vector<PacketKey>> spare_keys;
  std::size_t block_size = 0;
  std::size_t pooled_bytes = 0;
  std::size_t outstanding = 0;
  std::size_t high_water = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
};

namespace {

struct Recycle {
  PacketPool::Core* core;
  void operator()(Packet* p) const { core->release_packet(p); }
};

template <typename T>
struct CtrlAlloc {
  using value_type = T;

  explicit CtrlAlloc(PacketPool::Core* c) : core(c) {}
  template <typename U>
  CtrlAlloc(const CtrlAlloc<U>& o) : core(o.core) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) { return static_cast<T*>(core->take_block(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) { core->give_block(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const CtrlAlloc<U>& o) const {
    return core == o.core;
  }

  PacketPool::Core* core;
};

}  // namespace

PacketPool::PacketPool() : enabled_(env_enabled()), core_(new Core) {}

PacketPool::~PacketPool() {
  core_->orphaned = true;
  core_->maybe_die();
}

std::shared_ptr<Packet> PacketPool::acquire() {
  if (!enabled_) return std::make_shared<Packet>();
  return std::shared_ptr<Packet>(core_->take_packet(), Recycle{core_},
                                 CtrlAlloc<Packet>(core_));
}

std::shared_ptr<Packet> PacketPool::acquire_copy(const Packet& src) {
  if (!enabled_) return std::make_shared<Packet>(src);
  auto p = acquire();
  p->type = src.type;
  p->service = src.service;
  p->flow = src.flow;
  p->seq = src.seq;
  p->src = src.src;
  p->dst = src.dst;
  p->final_dst = src.final_dst;
  p->sent_at = src.sent_at;
  p->ecn_capable = src.ecn_capable;
  p->ecn_ce = src.ecn_ce;
  p->payload = src.payload;
  if (src.meta) {
    CodedMeta& m = engage_meta(*p);
    m.batch_id = src.meta->batch_id;
    m.index = src.meta->index;
    m.k = src.meta->k;
    m.r = src.meta->r;
    m.covered = src.meta->covered;
  }
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
