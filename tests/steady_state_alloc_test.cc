// The enforcement arm of the object-pool subsystem: with pools enabled, the
// steady-state packet path must touch the global allocator ZERO times per
// packet. This binary links jqos_alloc_probe, which replaces global operator
// new/delete with counting wrappers; after a warmup that fills every pool
// and amortized buffer, a measured window asserts the allocation delta is
// exactly zero. Under ASan/TSan the probe is stubbed out (the sanitizer owns
// the heap) and these tests skip -- the Release leg of CI is the guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/alloc_probe.h"
#include "common/packet.h"
#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "netsim/latency_model.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "test_guards.h"

namespace jqos {
namespace {

// The ladder event-queue backend spreads rungs into buckets on an amortized
// schedule, so even in steady state it allocates O(1) per drain; that churn
// is bounded and pinned by its own memory-regression test. Pin the heap
// backend here so this suite measures the PACKET path alone.
using jqos::testing::EnvVarGuard;
using jqos::testing::EvqBackendGuard;

struct Sink final : netsim::Node {
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
  NodeId id_;
  std::vector<PacketPtr> received;
};

TEST(SteadyStateAlloc, SenderDuplicationPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EvqBackendGuard evq(netsim::EvqBackend::kHeap);
  // The Network's pool reads JQOS_OBJ_POOL when the Network is built; this
  // suite asserts the pooled path, so pin pooling on whatever the caller set.
  const EnvVarGuard pool_on("JQOS_OBJ_POOL", std::string("1"));
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sink receiver(net);
  Sink dc1(net);
  endpoint::Sender sender(net);
  net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(msec(20)),
               netsim::make_no_loss());
  net.add_link(sender.id(), dc1.id(), netsim::make_fixed_latency(msec(5)),
               netsim::make_no_loss());

  endpoint::SenderPolicy policy;
  policy.service = ServiceType::kCode;
  policy.dc1 = dc1.id();
  policy.receiver = receiver.id();
  sender.register_flow(1, policy);

  constexpr int kBurst = 32;
  auto pump = [&] {
    receiver.received.clear();
    dc1.received.clear();
    for (int i = 0; i < kBurst; ++i) sender.send(1, 256);
    sim.run();
  };

  // Warmup: fill the packet freelists, the sinks' vectors,
  // and the event-queue backing store to their steady footprint.
  for (int round = 0; round < 16; ++round) pump();

  alloc_probe::reset();
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) pump();
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "sender duplication path hit the global allocator "
                        << allocs << " times over "
                        << (kRounds * kBurst * 2) << " packets";
  EXPECT_GT(net.pool().reused(), 0u);
}

TEST(SteadyStateAlloc, ReceiverInOrderPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EnvVarGuard pool_on("JQOS_OBJ_POOL", std::string("1"));
  netsim::Simulator sim;
  netsim::Network net(sim);
  endpoint::ReceiverConfig rc;
  rc.record_delay_samples = false;  // Per-packet Samples grow unboundedly.
  endpoint::Receiver receiver(net, rc);
  receiver.expect_flow(1);

  SeqNo seq = 0;
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      receiver.handle_packet(
          make_data_packet(net.pool(), 1, seq++, /*src=*/1, /*dst=*/receiver.id(),
                           /*now=*/0, /*payload_bytes=*/256));
    }
  };

  // Warmup must exceed Receiver::kHistory (1024): the flow's window ring
  // reaches its steady capacity only once history slots start leaving it.
  feed(2048);

  alloc_probe::reset();
  constexpr int kPackets = 1024;
  feed(kPackets);
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "receiver in-order path hit the global allocator "
                        << allocs << " times over " << kPackets << " packets";
  EXPECT_GT(net.pool().reused(), 0u);
}

TEST(SteadyStateAlloc, ReceiverOutOfOrderPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EnvVarGuard pool_on("JQOS_OBJ_POOL", std::string("1"));
  netsim::Simulator sim;
  netsim::Network net(sim);
  endpoint::ReceiverConfig rc;
  rc.record_delay_samples = false;  // Per-packet Samples grow unboundedly.
  endpoint::Receiver receiver(net, rc);
  receiver.expect_flow(1);

  auto arrive = [&](SeqNo seq, PacketType type) {
    auto pkt = make_packet(net.pool(), type, ServiceType::kCode, 1, seq, /*src=*/1,
                           /*dst=*/receiver.id(), /*now=*/0);
    pkt->payload.assign(256, 0);
    receiver.handle_packet(pkt);
  };
  // Per block of 8 seqs: two swapped pairs (seq + 1 before seq), then a
  // hole at seq + 4 that a recovered copy fills after seq + 5..7 arrived.
  SeqNo seq = 0;
  auto feed = [&](int blocks) {
    for (int b = 0; b < blocks; ++b, seq += 8) {
      for (SeqNo pair : {seq, seq + 2}) {
        arrive(pair + 1, PacketType::kData);
        arrive(pair, PacketType::kData);
      }
      for (SeqNo s = seq + 5; s < seq + 8; ++s) arrive(s, PacketType::kData);
      arrive(seq + 4, PacketType::kRecovered);
    }
  };

  feed(256);  // 2048 seqs: past kHistory, as in the in-order case.
  const std::uint64_t recovered_before = receiver.stats().delivered_recovered;

  alloc_probe::reset();
  constexpr int kBlocks = 128;
  feed(kBlocks);
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(receiver.stats().delivered_recovered - recovered_before, std::uint64_t{kBlocks});
  EXPECT_EQ(receiver.stats().duplicates, 0u);
  EXPECT_EQ(allocs, 0u) << "receiver out-of-order path hit the global allocator " << allocs
                        << " times over " << kBlocks * 8 << " packets";
}

TEST(SteadyStateAlloc, RecoveryDcStoreAndExpireIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EvqBackendGuard evq(netsim::EvqBackend::kHeap);
  const EnvVarGuard pool_on("JQOS_OBJ_POOL", std::string("1"));
  netsim::Simulator sim;
  netsim::Network net(sim);
  overlay::DataCenter dc2(net, 2, "dc2");
  services::RecoveryParams params;
  params.batch_ttl = sec(1);
  auto recovery = std::make_shared<services::RecoveryService>(
      dc2, params, std::make_shared<services::FlowRegistry>());
  dc2.install(recovery);

  // DC1's output as DC2 sees it: per 10 ms, one in-stream batch (5 seqs of
  // flow 1) and one cross-stream batch (one seq of flows 2..7), one coded
  // packet each, from the shard's pool.
  std::uint32_t batch_id = 0;
  SeqNo seq = 0;
  auto store = [&](PacketType type, FlowId first_flow, std::size_t flows, std::size_t seqs) {
    auto pkt = net.pool().acquire();
    pkt->type = type;
    pkt->service = ServiceType::kCode;
    pkt->payload.assign(64, 0x5a);
    CodedMeta& meta = net.pool().engage_meta(*pkt);
    meta.batch_id = ++batch_id;
    meta.k = static_cast<std::uint8_t>(flows * seqs);
    meta.r = 1;
    meta.index = meta.k;
    for (FlowId f = first_flow; f < first_flow + flows; ++f) {
      for (SeqNo s = seq; s < seq + seqs; ++s) meta.covered.push_back(PacketKey{f, s});
    }
    dc2.handle_packet(pkt);
  };
  auto one_second = [&] {
    const SimTime start = sim.now();
    for (int i = 0; i < 100; ++i) {
      sim.run_until(start + i * msec(10));
      store(PacketType::kInCoded, 1, 1, 5);
      store(PacketType::kCrossCoded, 2, 6, 1);
      seq += 5;
    }
    sim.run_until(start + sec(1));
  };

  // Warmup: the records, the key index and the pool reach their high water
  // (one TTL of batches plus one sweep interval) and the sweep is expiring.
  for (int s = 0; s < 4; ++s) one_second();
  ASSERT_GT(recovery->stats().batches_expired, 0u);

  alloc_probe::reset();
  const std::uint64_t stored_before = recovery->stats().batches_stored;
  const std::uint64_t expired_before = recovery->stats().batches_expired;
  constexpr int kSeconds = 4;
  for (int s = 0; s < kSeconds; ++s) one_second();
  const std::uint64_t allocs = alloc_probe::allocations();
  const std::uint64_t stored = recovery->stats().batches_stored - stored_before;

  EXPECT_EQ(stored, kSeconds * 200u);
  EXPECT_EQ(recovery->stats().batches_expired - expired_before, stored);
  EXPECT_EQ(allocs, 0u) << "DC2 store/expire hit the global allocator " << allocs
                        << " times over " << stored << " batches";
}

TEST(SteadyStateAlloc, EncoderIngressIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EvqBackendGuard evq(netsim::EvqBackend::kHeap);
  const EnvVarGuard pool_on("JQOS_OBJ_POOL", std::string("1"));
  netsim::Simulator sim;
  netsim::Network net(sim);
  overlay::DataCenter dc1(net, 1, "dc1");
  struct CountingSink final : netsim::Node {
    explicit CountingSink(netsim::Network& n) : id_(n.allocate_id()) { n.attach(*this); }
    NodeId id() const override { return id_; }
    void handle_packet(const PacketPtr&) override { ++received; }
    NodeId id_;
    std::uint64_t received = 0;
  } dc2(net);
  net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(5)), netsim::make_no_loss());
  auto registry = std::make_shared<services::FlowRegistry>();
  constexpr FlowId kFlows = 8;
  for (FlowId f = 1; f <= kFlows; ++f) registry->register_flow(f, services::FlowInfo{dc2.id(), 0});
  // Default CodingParams: in-stream blocks of 5 and cross-stream batches of
  // k = 6 over 4 round-robin queues, so both kinds of queue fill and encode.
  auto encoder =
      std::make_shared<services::CodingEncoderService>(dc1, services::CodingParams{}, registry);
  dc1.install(encoder);

  // Per millisecond, one coded-service data packet of each flow.
  SeqNo seq = 0;
  auto pump = [&](int ms) {
    for (int i = 0; i < ms; ++i, ++seq) {
      for (FlowId f = 1; f <= kFlows; ++f) {
        auto pkt = net.pool().acquire();
        pkt->type = PacketType::kData;
        pkt->service = ServiceType::kCode;
        pkt->flow = f;
        pkt->seq = seq;
        pkt->dst = dc1.id();
        pkt->final_dst = dc1.id();
        pkt->payload.assign(256, 0x5a);
        dc1.handle_packet(pkt);
      }
      sim.run_until(sim.now() + msec(1));
    }
  };

  // Warmup: every flow record, queue vector, the encoder's arena and the
  // pool reach their steady footprint.
  pump(512);

  const services::EncoderStats before = encoder->stats();
  alloc_probe::reset();
  constexpr int kMs = 512;
  pump(kMs);
  const std::uint64_t allocs = alloc_probe::allocations();
  const services::EncoderStats& after = encoder->stats();

  EXPECT_EQ(after.data_packets - before.data_packets, kMs * kFlows);
  EXPECT_GT(after.in_batches, before.in_batches);
  EXPECT_GT(after.cross_batches, before.cross_batches);
  EXPECT_GT(dc2.received, 0u);
  EXPECT_EQ(allocs, 0u) << "DC1 ingress hit the global allocator " << allocs << " times over "
                        << kMs * kFlows << " packets";
}

}  // namespace
}  // namespace jqos
