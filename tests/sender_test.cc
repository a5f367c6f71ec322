// Tests for the J-QoS sender: duplication policies, selective duplication,
// path switching, and per-flow sequence numbering.
#include <gtest/gtest.h>

#include <string>

#include "endpoint/sender.h"
#include "netsim/network.h"
#include "test_guards.h"

namespace jqos::endpoint {
namespace {

struct Sink final : netsim::Node {
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
  NodeId id_;
  std::vector<PacketPtr> received;
};

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  Sink receiver{net};
  Sink dc1{net};
  Sender sender{net};

  Fixture() {
    net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(msec(50)),
                 netsim::make_no_loss());
    net.add_link(sender.id(), dc1.id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
  }

  SenderPolicy base_policy(ServiceType service) {
    SenderPolicy p;
    p.service = service;
    p.dc1 = dc1.id();
    p.receiver = receiver.id();
    return p;
  }
};

TEST(Sender, DuplicatesToBothPaths) {
  Fixture f;
  f.sender.register_flow(1, f.base_policy(ServiceType::kCode));
  const SeqNo s = f.sender.send(1, 100);
  f.sim.run();
  EXPECT_EQ(s, 0u);
  ASSERT_EQ(f.receiver.received.size(), 1u);
  ASSERT_EQ(f.dc1.received.size(), 1u);
  // Direct copy is plain Internet; cloud copy carries the service tag.
  EXPECT_EQ(f.receiver.received[0]->service, ServiceType::kNone);
  EXPECT_EQ(f.dc1.received[0]->service, ServiceType::kCode);
  // The coding service's cloud copy terminates at DC1.
  EXPECT_EQ(f.dc1.received[0]->final_dst, f.dc1.id());
  EXPECT_EQ(f.sender.stats().direct_sent, 1u);
  EXPECT_EQ(f.sender.stats().cloud_sent, 1u);
}

TEST(Sender, ForwardingCopyTargetsReceiver) {
  Fixture f;
  f.sender.register_flow(1, f.base_policy(ServiceType::kForward));
  f.sender.send(1, 100);
  f.sim.run();
  ASSERT_EQ(f.dc1.received.size(), 1u);
  EXPECT_EQ(f.dc1.received[0]->final_dst, f.receiver.id());
}

TEST(Sender, PathSwitchingSkipsDirectPath) {
  Fixture f;
  SenderPolicy p = f.base_policy(ServiceType::kForward);
  p.send_direct = false;  // Fig 2(b): cloud-only delivery.
  f.sender.register_flow(1, p);
  f.sender.send(1, 100);
  f.sim.run();
  EXPECT_TRUE(f.receiver.received.empty());
  EXPECT_EQ(f.dc1.received.size(), 1u);
}

TEST(Sender, InternetOnlySkipsCloud) {
  Fixture f;
  SenderPolicy p = f.base_policy(ServiceType::kNone);
  p.duplicate_to_cloud = false;
  f.sender.register_flow(1, p);
  f.sender.send(1, 100);
  f.sim.run();
  EXPECT_EQ(f.receiver.received.size(), 1u);
  EXPECT_TRUE(f.dc1.received.empty());
}

TEST(Sender, SelectiveDuplicationFilter) {
  // Section 6.4: duplicate only selected packets (e.g. SYN-ACKs). Here:
  // every fourth packet.
  Fixture f;
  SenderPolicy p = f.base_policy(ServiceType::kCache);
  p.duplicate_filter = [](const Packet& pkt) { return pkt.seq % 4 == 0; };
  f.sender.register_flow(1, p);
  for (int i = 0; i < 8; ++i) f.sender.send(1, 64);
  f.sim.run();
  EXPECT_EQ(f.receiver.received.size(), 8u);
  EXPECT_EQ(f.dc1.received.size(), 2u);  // Seqs 0 and 4.
  EXPECT_EQ(f.sender.stats().filtered, 6u);
}

TEST(Sender, PoolAcquiresPerAppPacketMatchThePathsUsed) {
  // A disabled pool counts no acquires; pin pooling on before the Network.
  const jqos::testing::EnvVarGuard pool_on("JQOS_OBJ_POOL", std::string("1"));
  Fixture f;
  SenderPolicy switched = f.base_policy(ServiceType::kForward);
  switched.send_direct = false;
  SenderPolicy internet = f.base_policy(ServiceType::kNone);
  internet.duplicate_to_cloud = false;
  SenderPolicy filtered = f.base_policy(ServiceType::kCode);
  Packet seen_by_filter;
  filtered.duplicate_filter = [&seen_by_filter](const Packet& pkt) {
    seen_by_filter = pkt;
    return false;
  };
  f.sender.register_flow(1, f.base_policy(ServiceType::kCode));
  f.sender.register_flow(2, switched);
  f.sender.register_flow(3, internet);
  f.sender.register_flow(4, filtered);
  const PacketPool& pool = f.net.pool();
  auto acquires_for_one_send = [&](FlowId flow) {
    const std::uint64_t before = pool.fresh() + pool.reused();
    f.sender.send(flow, 512);
    return pool.fresh() + pool.reused() - before;
  };

  EXPECT_EQ(acquires_for_one_send(1), 2u);  // The direct copy, then the original to DC1.
  EXPECT_EQ(acquires_for_one_send(2), 1u);
  EXPECT_EQ(acquires_for_one_send(3), 1u);
  EXPECT_EQ(acquires_for_one_send(4), 1u);
  f.sender.set_overlay_down(true);
  EXPECT_EQ(acquires_for_one_send(1), 1u);  // Failover: direct only.

  // The filter saw the app packet before either path's header was written.
  EXPECT_EQ(seen_by_filter.flow, 4u);
  EXPECT_EQ(seen_by_filter.service, ServiceType::kNone);
  EXPECT_EQ(seen_by_filter.dst, kInvalidNode);
  EXPECT_EQ(seen_by_filter.final_dst, kInvalidNode);

  f.sim.run();
  ASSERT_EQ(f.receiver.received.size(), 4u);  // Flows 1, 3, 4 and the failover.
  ASSERT_EQ(f.dc1.received.size(), 2u);       // Flows 1 and 2.
  for (const auto& p : f.receiver.received) {
    EXPECT_EQ(p->service, ServiceType::kNone);
    EXPECT_EQ(p->dst, f.receiver.id());
  }
  EXPECT_EQ(f.dc1.received[0]->flow, 1u);
  EXPECT_EQ(f.dc1.received[0]->service, ServiceType::kCode);
  EXPECT_EQ(f.dc1.received[1]->service, ServiceType::kForward);
  EXPECT_EQ(f.dc1.received[1]->final_dst, f.receiver.id());
}

TEST(Sender, SequenceNumbersPerFlow) {
  Fixture f;
  f.sender.register_flow(1, f.base_policy(ServiceType::kCode));
  f.sender.register_flow(2, f.base_policy(ServiceType::kCode));
  EXPECT_EQ(f.sender.send(1, 10), 0u);
  EXPECT_EQ(f.sender.send(1, 10), 1u);
  EXPECT_EQ(f.sender.send(2, 10), 0u);
  EXPECT_EQ(f.sender.next_seq(1), 2u);
  EXPECT_EQ(f.sender.next_seq(2), 1u);
  EXPECT_EQ(f.sender.next_seq(3), 0u);  // Unregistered.
}

TEST(Sender, PayloadContentsPreserved) {
  Fixture f;
  f.sender.register_flow(1, f.base_policy(ServiceType::kCode));
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  f.sender.send_payload(1, payload);
  f.sim.run();
  ASSERT_EQ(f.receiver.received.size(), 1u);
  EXPECT_EQ(f.receiver.received[0]->payload, payload);
  ASSERT_EQ(f.dc1.received.size(), 1u);
  EXPECT_EQ(f.dc1.received[0]->payload, payload);
}

TEST(Sender, UnregisteredFlowThrows) {
  Fixture f;
  EXPECT_THROW(f.sender.send(42, 10), std::invalid_argument);
}

TEST(Sender, ReceiveHandlerGetsInboundPackets) {
  Fixture f;
  std::vector<PacketPtr> inbound;
  f.sender.set_receive_handler([&inbound](const PacketPtr& p) { inbound.push_back(p); });
  f.net.add_link(f.receiver.id(), f.sender.id(), netsim::make_fixed_latency(msec(1)),
                 netsim::make_no_loss());
  auto ack = make_data_packet(f.net.pool(), 1, 0, f.receiver.id(), f.sender.id(), 0, 8);
  f.net.send(f.receiver.id(), ack);
  f.sim.run();
  ASSERT_EQ(inbound.size(), 1u);
}

}  // namespace
}  // namespace jqos::endpoint
