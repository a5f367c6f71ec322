// The J-QoS packet: the single message type exchanged between end points and
// data-center services, in both the discrete-event simulator and the live
// UDP runtime.
//
// The paper's prototype encapsulates transport segments in a "J-QoS header"
// (Section 5). We model that header explicitly: a packet carries its type,
// the flow it belongs to, a per-flow sequence number (the cache/recovery
// identifier, Section 3.2), routing endpoints, and - for coded packets - the
// metadata CR-WAN needs for cooperative recovery: which flows and sequence
// numbers are represented in the batch (Section 4.2: "DC1 must also include
// information in the coded packets about which flows and sequence numbers
// are represented").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace jqos {

enum class PacketType : std::uint8_t {
  kData = 0,          // Application payload (direct path, duplicate, or forwarded).
  kInCoded = 1,       // In-stream FEC packet (protects one flow).
  kCrossCoded = 2,    // Cross-stream coded packet (protects a batch of flows).
  kNack = 3,          // Receiver -> DC2: a packet was declared lost.
  kNackCheck = 4,     // DC2 -> receiver: confirm loss before recovery (burst
                      // boundary guard, Section 3.4).
  kNackConfirm = 5,   // Receiver -> DC2: yes, still missing.
  kPull = 6,          // Receiver -> DC2 cache: retrieve a stored packet.
  kCoopRequest = 7,   // DC2 -> peer receiver: send back your data packet.
  kCoopResponse = 8,  // Peer receiver -> DC2: here is my data packet.
  kRecovered = 9,     // DC2 -> receiver: the decoded / cached packet.
  kControl = 10,      // Control channel (registration, ON-interval sync).
};

const char* to_string(PacketType t);

// Which J-QoS service should process a packet when it reaches a data
// center. Set by the sender according to the service-selection decision
// (Section 3.5); carried in the J-QoS header.
enum class ServiceType : std::uint8_t {
  kNone = 0,     // Plain Internet delivery; DCs never see these.
  kForward = 1,  // Forwarding service (Section 3.1).
  kCache = 2,    // Caching service (Section 3.2).
  kCode = 3,     // Coding service / CR-WAN (Sections 3.3, 4).
};

const char* to_string(ServiceType s);

// Metadata attached to kCrossCoded (and kInCoded) packets: enough for DC2 to
// know which data packets the coded symbol spans and which receivers to
// solicit during cooperative recovery.
struct CodedMeta {
  std::uint32_t batch_id = 0;  // Unique per (encoding DC, batch).
  std::uint8_t index = 0;      // Index of this coded symbol within the batch
                               // (0..k+r-1 in RS codeword space; coded symbols
                               // use indices >= k).
  std::uint8_t k = 0;          // Number of data packets in the batch.
  std::uint8_t r = 0;          // Number of coded packets generated.
  std::vector<PacketKey> covered;  // The k data packets, in codeword order.

  friend bool operator==(const CodedMeta&, const CodedMeta&) = default;
};

// The pool core a pooled packet goes home to (common/packet_pool.cc).
struct PacketPoolCore;

template <typename T>
class PacketRef;

struct Packet {
  PacketType type = PacketType::kData;
  ServiceType service = ServiceType::kNone;
  FlowId flow = 0;
  SeqNo seq = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  // Final destination when the packet is being relayed through the overlay
  // (dst is then the next hop). kInvalidNode means dst is final. The
  // forwarding service routes on this field (Section 3.1).
  NodeId final_dst = kInvalidNode;
  // Origin timestamp (set by the first sender); used for one-way-delay and
  // recovery-latency accounting, mirroring the probe timestamps the paper's
  // deployment logged.
  SimTime sent_at = 0;
  // ECN codepoints. ecn_capable (ECT) says the sending transport understands
  // congestion marks; an AQM queue disc may then set ecn_ce (CE) instead of
  // dropping. Both travel in spare bits of the wire header's flags byte, so
  // wire_size() — and therefore every bandwidth/egress charge — is unchanged.
  bool ecn_capable = false;
  bool ecn_ce = false;
  std::optional<CodedMeta> meta;
  std::vector<std::uint8_t> payload;

  // Size this packet would occupy on the wire (header + metadata + payload);
  // the simulator charges bandwidth and the cost model charges egress by
  // this size.
  std::size_t wire_size() const;

  // Wire encoding (used verbatim by the live runtime; the simulator
  // round-trips packets through it in debug tests to keep the two paths in
  // sync).
  std::vector<std::uint8_t> serialize() const;
  static std::optional<Packet> parse(std::span<const std::uint8_t> data);

  PacketKey key() const { return PacketKey{flow, seq}; }
  bool is_coded() const {
    return type == PacketType::kInCoded || type == PacketType::kCrossCoded;
  }

 private:
  template <typename T>
  friend class PacketRef;
  friend struct PacketPoolCore;
  friend void release_packet(Packet* p) noexcept;

  // Who holds this packet: the count of PacketRef handles and the pool it
  // returns to (null: a heap packet, deleted by its last handle). Copying a
  // Packet copies neither: a copy is a new packet that nobody holds yet.
  struct Anchor {
    Anchor() = default;
    Anchor(const Anchor&) noexcept {}
    Anchor& operator=(const Anchor&) noexcept { return *this; }
    mutable std::uint32_t refs = 0;
    PacketPoolCore* home = nullptr;
  };
  Anchor anchor_;
};

// Hands a packet whose last PacketRef just went to its home pool, or
// deletes it if it has none (common/packet_pool.cc).
void release_packet(Packet* p) noexcept;

// Packets are passed by counted handle inside the simulator, so a packet is
// never copied after it is sent. The sender's duplication is two packets,
// because each path writes its own header fields (service, dst, final_dst):
// it deep-copies the app packet once for the direct path and sends the
// original to the cloud.
//
// PacketRef is an intrusive handle, one pointer wide: the count lives in
// the Packet itself, so there is no separate control block to allocate or
// miss in cache. The count is a plain integer, not an atomic, because a
// packet never crosses a thread: each shard owns its Network, its pool and
// every packet drawn from it, and runs on one worker thread (the TSan CI
// job checks this across the sharded and churn runners). The last handle
// to go returns the packet to its home pool, or deletes a heap packet.
//
// PacketMut is the mutable handle a factory returns while the packet is
// being filled in; it converts to PacketPtr, the const handle everything
// downstream passes around.
template <typename T>
class PacketRef {
  static_assert(std::is_same_v<std::remove_const_t<T>, Packet>);

 public:
  PacketRef() noexcept = default;
  PacketRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  // Takes a new reference to `p`, which may be new or already held.
  explicit PacketRef(T* p) noexcept : p_(p) { retain(); }
  PacketRef(const PacketRef& o) noexcept : p_(o.p_) { retain(); }
  PacketRef(PacketRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  // PacketMut -> PacketPtr.
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  PacketRef(const PacketRef<U>& o) noexcept : p_(o.p_) {  // NOLINT(google-explicit-constructor)
    retain();
  }
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  PacketRef(PacketRef<U>&& o) noexcept  // NOLINT(google-explicit-constructor)
      : p_(std::exchange(o.p_, nullptr)) {}
  ~PacketRef() { reset(); }

  // Copy-and-swap: self-assignment and assignment from a handle to the same
  // packet leave the count unchanged.
  PacketRef& operator=(PacketRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  PacketRef& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  void reset() noexcept {
    T* p = std::exchange(p_, nullptr);
    if (p != nullptr && --p->anchor_.refs == 0) release_packet(const_cast<Packet*>(p));
  }

  T* get() const noexcept { return p_; }
  T& operator*() const noexcept { return *p_; }
  T* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  std::uint32_t use_count() const noexcept { return p_ != nullptr ? p_->anchor_.refs : 0; }

  friend bool operator==(const PacketRef& a, std::nullptr_t) noexcept { return a.p_ == nullptr; }
  template <typename U>
  bool operator==(const PacketRef<U>& o) const noexcept {
    return p_ == o.get();
  }

 private:
  template <typename U>
  friend class PacketRef;

  void retain() const noexcept {
    if (p_ != nullptr) ++p_->anchor_.refs;
  }

  T* p_ = nullptr;
};

using PacketPtr = PacketRef<const Packet>;
using PacketMut = PacketRef<Packet>;
static_assert(sizeof(PacketPtr) == sizeof(void*));

// A blank heap packet, or a heap copy of `src`, with no home pool: its last
// handle deletes it. The packet path draws from a PacketPool instead; these
// serve tests, tools and the live runtime.
inline PacketMut new_packet() { return PacketMut(new Packet()); }
inline PacketMut new_packet(const Packet& src) { return PacketMut(new Packet(src)); }

// Convenience factories -------------------------------------------------
//
// Every factory draws from a PacketPool (common/packet_pool.h; on the packet
// path, the owning netsim::Network's pool()). Raw blank packets, deep copies
// and recycled coded metadata come from the pool's own acquire(),
// acquire_copy() and engage_meta(). The returned values are identical with
// pooling on or off, so pooling can never perturb simulation results.

class PacketPool;

// A blank packet with the J-QoS header fields set in one call; payload and
// meta are left for the caller.
PacketMut make_packet(PacketPool& pool, PacketType type, ServiceType service,
                      FlowId flow, SeqNo seq, NodeId src, NodeId dst, SimTime now);

// A data packet with a zero-filled payload of `payload_bytes`.
PacketPtr make_data_packet(PacketPool& pool, FlowId flow, SeqNo seq, NodeId src,
                           NodeId dst, SimTime now, std::size_t payload_bytes);

// Fixed per-packet header overhead in bytes (version, type, ids, timestamp,
// lengths). Exposed so tests and the cost model can reason about overhead.
std::size_t packet_header_bytes();

// Payload of kNack / kNackConfirm packets: the explicitly detected missing
// sequence numbers plus, when `tail` is set, a request to recover everything
// the DC holds for the flow from `expected` onward (timer-driven tail-loss
// NACKs during bursts/outages, Section 3.4).
struct NackInfo {
  bool tail = false;
  SeqNo expected = 0;
  std::vector<SeqNo> missing;

  std::vector<std::uint8_t> serialize() const;
  // Serializes into `out` (cleared first, capacity reused) so pooled packet
  // payloads don't reallocate per NACK in steady state.
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<NackInfo> parse(std::span<const std::uint8_t> data);
  // Parses into `out` (missing cleared, capacity reused); false on malformed
  // input, with `out` left in an unspecified-but-valid state.
  static bool parse_into(std::span<const std::uint8_t> data, NackInfo& out);

  friend bool operator==(const NackInfo&, const NackInfo&) = default;
};

}  // namespace jqos
