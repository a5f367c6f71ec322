// The pooled Packet recycler behind the packet.h factories.
//
// A PacketPtr is a shared_ptr<const Packet>, so a per-packet heap cost hides
// in two places: the Packet itself (plus its payload / covered-key vectors)
// and the shared_ptr CONTROL BLOCK. PacketPool recycles both:
//
//  * acquire() pops a scrubbed Packet off a freelist -- payload capacity and
//    (via engage_meta) covered-key capacity are retained across checkouts --
//    and wraps it in a shared_ptr whose custom deleter returns the storage
//    here instead of freeing it.
//  * The shared_ptr is built with a pooling allocator, so the control block
//    comes from a freelist of fixed-size blocks rather than operator new.
//
// Call sites keep the existing PacketPtr type: a pooled packet is
// indistinguishable from a heap one, and a disabled pool is plain
// make_shared (the JQOS_OBJ_POOL=0 passthrough).
//
// A pool is single-threaded: each netsim::Network owns one (one Network per
// shard), and only the thread running that shard acquires from it or
// releases into it, so the freelists are plain vectors with no lock.
// Packets may outlive the pool facade (a shard's simulator dies after its
// Network with packets still captured in queued events): the deleter and
// allocator hold a raw pointer to the pool core, which counts its
// checked-out storage and deletes itself once the facade is gone AND the
// last piece of storage has come home.
//
// Retained memory is bounded by total bytes (never by object count: a count
// bound lets a few huge buffers pin unbounded memory); see docs/MEMORY.md
// for the ownership contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/packet.h"

namespace jqos {

class PacketPool {
 public:
  // Retained memory bound per pool, across packets, control blocks and
  // salvaged key vectors.
  static constexpr std::size_t kMaxRetainedBytes = 16u << 20;
  // A returned packet whose payload capacity outgrew this has that capacity
  // dropped before pooling (bursts must not fatten the pool).
  static constexpr std::size_t kMaxPacketBytes = 256u << 10;

  // Reads JQOS_OBJ_POOL at construction (not a static cache) so one process
  // can compare both modes; see env_enabled().
  PacketPool();
  // Marks the core orphaned; the core frees itself once the last
  // outstanding packet and control block have come home.
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  bool enabled() const { return enabled_; }

  // A blank mutable packet: header fields default-initialized, payload
  // empty (capacity retained), meta disengaged. Fill it, then hand it off
  // as PacketPtr. Disabled pool -> plain make_shared.
  std::shared_ptr<Packet> acquire();

  // A mutable deep copy of `src` into recycled storage.
  std::shared_ptr<Packet> acquire_copy(const Packet& src);

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

  // Opaque freelist state (defined in packet_pool.cc); public only so the
  // file-local deleter and control-block allocator can name it.
  struct Core;

 private:
  bool enabled_;
  Core* core_;  // Self-deleting once orphaned and drained; see ~PacketPool.
};

}  // namespace jqos
