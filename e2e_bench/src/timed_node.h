// Timing wrapper for the traced run: stands in for a sender, receiver or
// DataCenter in its Network's node table, forwards every delivery to the
// real node and records calls and host time per packet class.
//
// The wrapper adds no simulation-visible work: it schedules nothing, draws
// no random numbers and hands the same PacketPtr on, so a traced run is
// bit-identical to an untraced one (checked by the self test and by every
// traced benchmark run).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "common/packet.h"
#include "netsim/network.h"

namespace jqos::e2e {

// Packet classes the per-layer metrics are split by.
enum class HandlerClass : std::uint8_t {
  kData,         // Application data (encoder/forwarding ingress, receiver data).
  kCoded,        // In-stream and cross-stream coded packets.
  kNack,         // NACK, NACK confirm and pull (receiver -> DC2).
  kCoop,         // Cooperative responses (peer receiver -> DC2).
  kRecovered,    // Recovered packets (DC2 -> receiver).
  kCoopRequest,  // Cooperative requests (DC2 -> peer receiver).
  kNackCheck,    // NACK checks (DC2 -> receiver).
  kOther,        // Control traffic.
  kCount,
};

inline HandlerClass classify(PacketType t) {
  switch (t) {
    case PacketType::kData: return HandlerClass::kData;
    case PacketType::kInCoded:
    case PacketType::kCrossCoded: return HandlerClass::kCoded;
    case PacketType::kNack:
    case PacketType::kNackConfirm:
    case PacketType::kPull: return HandlerClass::kNack;
    case PacketType::kCoopResponse: return HandlerClass::kCoop;
    case PacketType::kRecovered: return HandlerClass::kRecovered;
    case PacketType::kCoopRequest: return HandlerClass::kCoopRequest;
    case PacketType::kNackCheck: return HandlerClass::kNackCheck;
    case PacketType::kControl: return HandlerClass::kOther;
  }
  return HandlerClass::kOther;
}

struct HandlerTally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

  HandlerTally& operator+=(const HandlerTally& o) {
    calls += o.calls;
    ns += o.ns;
    return *this;
  }
};

using ClassTallies = std::array<HandlerTally, static_cast<std::size_t>(HandlerClass::kCount)>;

// Forwards handle_packet to `inner` and adds the call to `tallies`, which is
// shared by every wrapper of one node kind in one shard (single-threaded).
class TimedNode final : public netsim::Node {
 public:
  TimedNode(netsim::Node& inner, ClassTallies& tallies) : inner_(inner), tallies_(tallies) {}

  NodeId id() const override { return inner_.id(); }

  void handle_packet(const PacketPtr& pkt) override {
    HandlerTally& t = tallies_[static_cast<std::size_t>(classify(pkt->type))];
    const auto start = std::chrono::steady_clock::now();
    inner_.handle_packet(pkt);
    const auto end = std::chrono::steady_clock::now();
    ++t.calls;
    t.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  }

 private:
  netsim::Node& inner_;
  ClassTallies& tallies_;
};

}  // namespace jqos::e2e
