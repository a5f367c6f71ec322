// The pooled Packet recycler behind the packet.h factories.
//
// A PacketPtr is an intrusive handle (packet.h): the count and the packet's
// home pool live in the Packet itself, so the only per-packet heap cost is
// the Packet and its payload / covered-key vectors. PacketPool recycles
// them:
//
//  * acquire() pops a scrubbed Packet off a freelist -- payload capacity and
//    (via engage_meta) covered-key capacity are retained across checkouts.
//    The packet's home is this pool's core, so its last handle hands it back
//    here instead of freeing it.
//  * A disabled pool (JQOS_OBJ_POOL=0) hands out heap packets with no home
//    (new_packet()), which their last handle deletes.
//
// A pooled packet is indistinguishable from a heap one to every call site.
//
// A pool is single-threaded: each netsim::Network owns one (one Network per
// shard), and only the thread running that shard acquires from it or
// releases into it, so the freelists and the packet counts are plain
// integers and vectors with no lock and no atomic. Packets may outlive the
// pool facade (a shard's simulator dies after its Network with packets
// still captured in queued events): a packet's home is a raw pointer to the
// pool core, which counts its checked-out packets and deletes itself once
// the facade is gone AND the last packet has come home.
//
// Retained memory is bounded by total bytes (never by object count: a count
// bound lets a few huge buffers pin unbounded memory); see docs/MEMORY.md
// for the ownership contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/packet.h"

namespace jqos {

class PacketPool {
 public:
  // Retained memory bound per pool, across packets and salvaged key
  // vectors.
  static constexpr std::size_t kMaxRetainedBytes = 16u << 20;
  // A returned packet whose payload capacity outgrew this has that capacity
  // dropped before pooling (bursts must not fatten the pool).
  static constexpr std::size_t kMaxPacketBytes = 256u << 10;

  // Reads JQOS_OBJ_POOL at construction (not a static cache) so one process
  // can compare both modes; see env_enabled().
  PacketPool();
  // Marks the core orphaned; the core frees itself once the last
  // outstanding packet has come home.
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  bool enabled() const { return enabled_; }

  // A blank mutable packet: header fields default-initialized, payload
  // empty (capacity retained), meta disengaged. Fill it, then hand it off
  // as PacketPtr. Disabled pool -> new_packet().
  PacketMut acquire();

  // A mutable deep copy of `src` into recycled storage.
  PacketMut acquire_copy(const Packet& src);

  // Engages pkt.meta (batch/index/k/r zeroed, covered cleared). An enabled
  // pool hands the covered vector salvaged capacity from previously
  // recycled coded packets so filling it allocates nothing in steady state.
  CodedMeta& engage_meta(Packet& pkt);

  // Byte-bounded retained-memory accounting.
  std::size_t pooled_bytes() const;
  std::size_t high_water() const;  // max simultaneously outstanding packets
  std::size_t outstanding() const;
  std::uint64_t reused() const;  // freelist hits
  std::uint64_t fresh() const;   // global-allocator constructions

  // JQOS_OBJ_POOL: unset or "1" -> pooling on, "0" -> off; see the knob
  // table in docs/BENCHMARKING.md for the bad-value policy.
  static bool env_enabled();

 private:
  bool enabled_;
  PacketPoolCore* core_;  // Self-deleting once orphaned and drained; see ~PacketPool.
};

}  // namespace jqos
