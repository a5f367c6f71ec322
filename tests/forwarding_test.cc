// Tests for the forwarding service: unicast relay, next-hop pinning,
// multicast expansion, and the Figure 3 use cases.
#include <gtest/gtest.h>

#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/forwarding/forwarding_service.h"

namespace jqos::services {
namespace {

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc1{net, 0, "dc1"};
  overlay::DataCenter dc2{net, 1, "dc2"};
  std::shared_ptr<ForwardingService> fwd1 = std::make_shared<ForwardingService>();
  std::shared_ptr<ForwardingService> fwd2 = std::make_shared<ForwardingService>();

  struct Sink final : netsim::Node {
    explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
    NodeId id() const override { return id_; }
    void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
    NodeId id_;
    std::vector<PacketPtr> received;
  };

  Fixture() {
    dc1.install(fwd1);
    dc2.install(fwd2);
    net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(30)),
                 netsim::make_no_loss());
  }

  std::unique_ptr<Sink> make_sink_with_links_from(overlay::DataCenter& dc) {
    auto sink = std::make_unique<Sink>(net);
    net.add_link(dc.id(), sink->id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    return sink;
  }
};

TEST(Forwarding, RelaysTowardFinalDestination) {
  Fixture f;
  auto receiver = f.make_sink_with_links_from(f.dc2);

  // Full overlay: packet enters DC1 with final_dst = receiver; DC1 must
  // route via DC2 (pinned next hop), DC2 delivers to the receiver.
  f.fwd1->set_next_hop(receiver->id(), f.dc2.id());

  auto pkt = new_packet();
  pkt->type = PacketType::kData;
  pkt->service = ServiceType::kForward;
  pkt->flow = 1;
  pkt->dst = f.dc1.id();
  pkt->final_dst = receiver->id();
  f.dc1.handle_packet(pkt);
  f.sim.run();

  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(f.fwd1->stats().forwarded, 1u);
  EXPECT_EQ(f.fwd2->stats().forwarded, 1u);
  // Latency accumulated both hops: 30 ms + 5 ms.
  EXPECT_EQ(f.sim.now(), msec(35));
}

TEST(Forwarding, DirectWhenNoRoutePinned) {
  Fixture f;
  auto receiver = f.make_sink_with_links_from(f.dc1);
  auto pkt = new_packet();
  pkt->service = ServiceType::kForward;
  pkt->dst = f.dc1.id();
  pkt->final_dst = receiver->id();
  f.dc1.handle_packet(pkt);
  f.sim.run();
  ASSERT_EQ(receiver->received.size(), 1u);  // Partial overlay (Fig 3(b)).
}

TEST(Forwarding, IgnoresPacketsTerminatingHere) {
  Fixture f;
  auto pkt = new_packet();
  pkt->dst = f.dc1.id();
  pkt->final_dst = f.dc1.id();
  EXPECT_FALSE(f.fwd1->handle(f.dc1, pkt));
  auto local = new_packet();
  local->dst = f.dc1.id();
  local->final_dst = kInvalidNode;
  EXPECT_FALSE(f.fwd1->handle(f.dc1, local));
}

TEST(Forwarding, MulticastFansOutToAllMembers) {
  Fixture f;
  auto r1 = f.make_sink_with_links_from(f.dc1);
  auto r2 = f.make_sink_with_links_from(f.dc1);
  auto r3 = f.make_sink_with_links_from(f.dc1);
  const NodeId group = kMulticastBase + 1;
  f.fwd1->set_multicast_group(group, {r1->id(), r2->id(), r3->id()});

  auto pkt = new_packet();
  pkt->service = ServiceType::kForward;
  pkt->dst = f.dc1.id();
  pkt->final_dst = group;
  f.dc1.handle_packet(pkt);
  f.sim.run();

  EXPECT_EQ(r1->received.size(), 1u);
  EXPECT_EQ(r2->received.size(), 1u);
  EXPECT_EQ(r3->received.size(), 1u);
  EXPECT_EQ(f.fwd1->stats().multicast_copies, 3u);
  // Each copy is readdressed to its member.
  EXPECT_EQ(r1->received[0]->dst, r1->id());
  EXPECT_EQ(r1->received[0]->final_dst, r1->id());
}

TEST(Forwarding, UnknownMulticastGroupCounted) {
  Fixture f;
  auto pkt = new_packet();
  pkt->dst = f.dc1.id();
  pkt->final_dst = kMulticastBase + 99;
  EXPECT_TRUE(f.fwd1->handle(f.dc1, pkt));
  EXPECT_EQ(f.fwd1->stats().no_route, 1u);
}

TEST(Forwarding, EgressChargedTwiceOnFullOverlay) {
  // The 2c cost of the forwarding use case (Fig 2(b)): both DCs egress.
  Fixture f;
  auto receiver = f.make_sink_with_links_from(f.dc2);
  f.fwd1->set_next_hop(receiver->id(), f.dc2.id());
  auto pkt = new_packet();
  pkt->service = ServiceType::kForward;
  pkt->dst = f.dc1.id();
  pkt->final_dst = receiver->id();
  pkt->payload.assign(1000, 0);
  f.dc1.handle_packet(pkt);
  f.sim.run();
  EXPECT_GT(f.dc1.egress_bytes(), 1000u);
  EXPECT_GT(f.dc2.egress_bytes(), 1000u);
}

TEST(Forwarding, MulticastIdPredicate) {
  EXPECT_TRUE(is_multicast(kMulticastBase));
  EXPECT_TRUE(is_multicast(kMulticastBase + 1000));
  EXPECT_FALSE(is_multicast(1));
  EXPECT_FALSE(is_multicast(kMulticastBase - 1));
}

}  // namespace
}  // namespace jqos::services
