// Multicast example: the two multicast designs of Figure 3 side by side.
//
//  (c) cloud multicast  -- the sender ships one stream to the DC, whose
//      forwarding service fans it out to every receiver (leveraging DC
//      egress bandwidth; costs one DC egress per receiver).
//  (d) hybrid multicast -- the sender multicasts over the public Internet
//      itself and caches one copy at the DC; receivers repair their own
//      losses with pulls (cheap: DC egress only on loss).
#include <cstdio>
#include <memory>
#include <vector>

#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/caching/caching_service.h"
#include "services/forwarding/forwarding_service.h"

using namespace jqos;

namespace {
constexpr int kReceivers = 8;
constexpr int kPackets = 2000;
}  // namespace

int main() {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(5);

  overlay::DataCenter dc(net, 0, "dc-edge");
  auto fwd = std::make_shared<services::ForwardingService>();
  auto cache = std::make_shared<services::CachingService>(sec(60));
  dc.install(fwd);
  dc.install(cache);

  endpoint::Sender sender(net);
  net.add_link(sender.id(), dc.id(), netsim::make_fixed_latency(msec(10)),
               netsim::make_no_loss());

  // Receivers: lossy direct links from the sender (for hybrid multicast)
  // and clean links to/from the DC.
  endpoint::ReceiverConfig rc;
  rc.dc2 = dc.id();
  rc.recovery_service = ServiceType::kCache;
  rc.rtt_estimate = msec(80);
  rc.recovery_give_up = sec(1);
  std::vector<std::unique_ptr<endpoint::Receiver>> receivers;
  std::vector<NodeId> member_ids;
  for (int i = 0; i < kReceivers; ++i) {
    auto r = std::make_unique<endpoint::Receiver>(net, rc);
    net.add_link(sender.id(), r->id(), netsim::make_fixed_latency(msec(40)),
                 netsim::make_bernoulli_loss(0.02, rng.fork("direct")));
    net.add_link(dc.id(), r->id(), netsim::make_fixed_latency(msec(6)),
                 netsim::make_no_loss());
    net.add_link(r->id(), dc.id(), netsim::make_fixed_latency(msec(6)),
                 netsim::make_no_loss());
    member_ids.push_back(r->id());
    receivers.push_back(std::move(r));
  }

  // ---------- (c) cloud multicast via the forwarding service ----------
  const NodeId group = services::kMulticastBase + 1;
  fwd->set_multicast_group(group, member_ids);
  endpoint::SenderPolicy cloud_mcast;
  cloud_mcast.service = ServiceType::kForward;
  cloud_mcast.send_direct = false;  // One upstream copy only.
  cloud_mcast.dc1 = dc.id();
  cloud_mcast.cloud_final_dst = group;
  sender.register_flow(1, cloud_mcast);
  for (auto& r : receivers) r->expect_flow(1);

  for (int i = 0; i < kPackets; ++i) {
    sim.at(msec(5) * i, [&sender] { sender.send(1, 512); });
  }
  sim.run_until(sec(30));
  const std::uint64_t cloud_egress_after_mcast = dc.egress_bytes();

  std::uint64_t cloud_delivered = 0;
  for (auto& r : receivers) cloud_delivered += r->stats().delivered_direct;
  std::printf("(c) cloud multicast: %d packets -> %d receivers\n", kPackets, kReceivers);
  std::printf("    delivered %llu/%d, DC egress %.1f MB (one copy per receiver)\n\n",
              static_cast<unsigned long long>(cloud_delivered), kPackets * kReceivers,
              static_cast<double>(cloud_egress_after_mcast) / 1e6);

  // ---------- (d) hybrid multicast: Internet + cache repair ----------
  endpoint::SenderPolicy hybrid;
  hybrid.service = ServiceType::kCache;
  hybrid.send_direct = false;  // The direct copies go per receiver below.
  hybrid.dc1 = dc.id();
  hybrid.cloud_final_dst = dc.id();
  sender.register_flow(2, hybrid);
  for (auto& r : receivers) r->expect_flow(2);

  for (int i = 0; i < kPackets; ++i) {
    sim.at(sec(40) + msec(5) * i, [&sender, &net, &receivers] {
      // The "Internet multicast": one direct copy per receiver...
      const SeqNo seq = sender.send(2, 512);
      auto base = new_packet();
      base->type = PacketType::kData;
      base->flow = 2;
      base->seq = seq;
      base->src = sender.id();
      base->sent_at = net.sim().now();
      base->payload.assign(512, 0);
      for (auto& r : receivers) {
        auto copy = new_packet(*base);
        copy->dst = r->id();
        copy->final_dst = r->id();
        net.send(sender.id(), copy);
      }
    });
  }
  sim.run_until(sec(100));

  std::uint64_t direct = 0, repaired = 0, lost = 0;
  for (auto& r : receivers) {
    direct += r->stats().delivered_direct;
    repaired += r->stats().delivered_recovered;
    lost += r->stats().losses_given_up;
  }
  // Subtract the phase-(c) deliveries counted above.
  direct -= cloud_delivered;
  std::printf("(d) hybrid multicast: Internet copies + one cached copy at the DC\n");
  std::printf("    direct %llu, repaired from cache %llu, unrecovered %llu\n",
              static_cast<unsigned long long>(direct),
              static_cast<unsigned long long>(repaired),
              static_cast<unsigned long long>(lost));
  std::printf("    DC egress this phase: %.1f MB (only on loss) vs %.1f MB for cloud multicast\n",
              static_cast<double>(dc.egress_bytes() - cloud_egress_after_mcast) / 1e6,
              static_cast<double>(cloud_egress_after_mcast) / 1e6);
  std::printf("    cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(cache->stats().pull_hits),
              static_cast<unsigned long long>(cache->stats().pull_misses));
  return 0;
}
