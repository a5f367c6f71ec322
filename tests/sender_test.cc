// Tests for the J-QoS sender: duplication policies, selective duplication,
// path switching, and per-flow sequence numbering.
#include <gtest/gtest.h>

#include "endpoint/sender.h"
#include "netsim/network.h"

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
