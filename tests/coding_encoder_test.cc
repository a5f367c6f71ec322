// Tests for the CR-WAN encoder at DC1 (Algorithm 1): in-stream and
// cross-stream queueing, the no-same-flow-in-a-batch invariant, round-robin
// placement, queue timers, and the coding-rate accounting.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"

namespace jqos::services {
namespace {

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc1{net, 1, "dc1"};
  overlay::DataCenter dc2{net, 2, "dc2"};
  FlowRegistryPtr registry = std::make_shared<FlowRegistry>();

  struct CollectorService final : overlay::DcService {
    const char* name() const override { return "collector"; }
    bool handle(overlay::DataCenter&, const PacketPtr& pkt) override {
      if (pkt->is_coded()) {
        coded.push_back(pkt);
        return true;
      }
      return false;
    }
    std::vector<PacketPtr> coded;
  };
  std::shared_ptr<CollectorService> collector = std::make_shared<CollectorService>();

  explicit Fixture(const CodingParams& params) {
    net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(30)),
                 netsim::make_no_loss());
    encoder = std::make_shared<CodingEncoderService>(dc1, params, registry);
    dc1.install(encoder);
    dc2.install(collector);
  }

  void register_flows(std::size_t n) {
    for (FlowId f = 1; f <= n; ++f) {
      registry->register_flow(f, FlowInfo{dc2.id(), 1000 + f});
    }
  }

  void offer(FlowId flow, SeqNo seq) {
    auto p = new_packet();
    p->type = PacketType::kData;
    p->service = ServiceType::kCode;
    p->flow = flow;
    p->seq = seq;
    p->dst = dc1.id();
    p->final_dst = dc1.id();
    p->payload.assign(64, static_cast<std::uint8_t>(seq));
    dc1.handle_packet(p);
  }

  std::shared_ptr<CodingEncoderService> encoder;
};

CodingParams small_params() {
  CodingParams p;
  p.k = 4;
  p.cross_coded = 2;
  p.in_block = 5;
  p.in_coded = 1;
  p.queue_timeout = msec(30);
  p.queues_per_group = 2;
  return p;
}

TEST(Encoder, InStreamBatchEmittedWhenBlockFills) {
  Fixture f(small_params());
  f.register_flows(1);
  for (SeqNo s = 0; s < 5; ++s) f.offer(1, s);
  f.sim.run_until(msec(100));

  // One in-stream coded packet for the full block of 5.
  int in_coded = 0;
  for (const auto& c : f.collector->coded) {
    if (c->type == PacketType::kInCoded) {
      ++in_coded;
      ASSERT_TRUE(c->meta.has_value());
      EXPECT_EQ(c->meta->k, 5);
      EXPECT_EQ(c->meta->r, 1);
      for (const auto& key : c->meta->covered) EXPECT_EQ(key.flow, 1u);
    }
  }
  EXPECT_EQ(in_coded, 1);
  EXPECT_EQ(f.encoder->stats().in_batches, 1u);
}

TEST(Encoder, CrossStreamBatchFromKDistinctFlows) {
  Fixture f(small_params());
  f.register_flows(4);
  // Round 0 teaches the encoder the group population (batches close at the
  // adaptive effective k while flows are being discovered); by round 1 the
  // group is known to hold 4 flows, so full k=4 batches form.
  for (SeqNo s = 0; s < 3; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.sim.run_until(msec(200));

  int full_batches = 0;
  for (const auto& c : f.collector->coded) {
    if (c->type == PacketType::kCrossCoded) {
      ASSERT_TRUE(c->meta.has_value());
      EXPECT_EQ(c->meta->r, 2);
      EXPECT_LE(c->meta->k, 4);
      if (c->meta->k == 4) ++full_batches;
      // Invariant D4: no two packets of the same flow in a batch.
      std::set<FlowId> flows;
      for (const auto& key : c->meta->covered) {
        EXPECT_TRUE(flows.insert(key.flow).second)
            << "duplicate flow " << key.flow << " in cross batch";
      }
    }
  }
  // Steady state produced at least one full k=4 batch (2 coded packets
  // each, so divide by r when counting batches).
  EXPECT_GE(full_batches, 2);  // >= 1 batch x 2 coded packets.
}

TEST(Encoder, NoSameFlowInAnyBatchUnderPressure) {
  // A single flow hammering the encoder plus sparse peers: every emitted
  // cross batch must still be duplicate-free (Algorithm 1 lines 9-19).
  Fixture f(small_params());
  f.register_flows(4);
  for (SeqNo s = 0; s < 50; ++s) {
    f.offer(1, s);
    if (s % 5 == 0) f.offer(2, s / 5);
    if (s % 10 == 0) f.offer(3, s / 10);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  for (const auto& c : f.collector->coded) {
    if (c->type != PacketType::kCrossCoded) continue;
    std::set<FlowId> flows;
    for (const auto& key : c->meta->covered) {
      EXPECT_TRUE(flows.insert(key.flow).second);
    }
  }
  EXPECT_GT(f.encoder->stats().cross_batches, 0u);
}

TEST(Encoder, TimerFlushesPartialBatches) {
  Fixture f(small_params());
  f.register_flows(2);
  f.offer(1, 0);
  f.offer(2, 0);
  // No further packets: only the 30 ms queue timer can emit the batch.
  f.sim.run_until(msec(200));
  EXPECT_GT(f.encoder->stats().timer_flushes, 0u);
  bool found_partial_cross = false;
  for (const auto& c : f.collector->coded) {
    if (c->type == PacketType::kCrossCoded && c->meta->k == 2) found_partial_cross = true;
  }
  EXPECT_TRUE(found_partial_cross);
}

TEST(Encoder, CrashCancelsArmedQueueTimers) {
  Fixture f(small_params());
  f.register_flows(1);
  // One partial in-stream queue and two partial cross-stream queues (round
  // robin): three queue timers armed, nothing encoded yet.
  f.offer(1, 0);
  f.offer(1, 1);
  EXPECT_EQ(f.sim.queue().size(), 3u);
  f.encoder->on_dc_crash();
  EXPECT_TRUE(f.sim.idle());  // Every queue timer went with its queue.
  f.sim.run_until(msec(200));  // Far past queue_timeout.
  EXPECT_TRUE(f.collector->coded.empty());
  EXPECT_EQ(f.encoder->stats().timer_flushes, 0u);
  EXPECT_EQ(f.encoder->stats().crash_wipes, 1u);

  // The restarted encoder arms fresh timers, which flush as usual.
  f.offer(1, 2);
  f.sim.run_until(msec(400));
  EXPECT_GT(f.encoder->stats().timer_flushes, 0u);
  EXPECT_FALSE(f.collector->coded.empty());
}

TEST(Encoder, UnregisteredFlowCountedAndConsumed) {
  Fixture f(small_params());
  f.offer(42, 0);  // Never registered.
  EXPECT_EQ(f.encoder->stats().unknown_flow, 1u);
  EXPECT_EQ(f.encoder->stats().data_packets, 0u);
}

TEST(Encoder, IgnoresNonCodingPackets) {
  Fixture f(small_params());
  f.register_flows(1);
  auto p = new_packet();
  p->type = PacketType::kData;
  p->service = ServiceType::kCache;
  p->flow = 1;
  p->dst = f.dc1.id();
  EXPECT_FALSE(f.encoder->handle(f.dc1, p));
}

TEST(Encoder, InStreamDisabledBySettingZero) {
  CodingParams p = small_params();
  p.in_coded = 0;  // The Skype configuration (s = 0, Section 6.3).
  Fixture f(p);
  f.register_flows(1);
  for (SeqNo s = 0; s < 20; ++s) f.offer(1, s);
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  for (const auto& c : f.collector->coded) {
    EXPECT_NE(c->type, PacketType::kInCoded);
  }
  EXPECT_EQ(f.encoder->stats().in_batches, 0u);
}

TEST(Encoder, CodingOverheadMatchesConfiguredRates) {
  // r = 2/4 cross + 1/5 in-stream: for N data packets expect about
  // N*(2/4) + N*(1/5) coded packets (within timer-flush slack).
  Fixture f(small_params());
  f.register_flows(4);
  const std::size_t rounds = 50;
  for (SeqNo s = 0; s < rounds; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  const double data = static_cast<double>(4 * rounds);
  const double coded = static_cast<double>(f.encoder->stats().coded_sent);
  const double expected_rate = 2.0 / 4.0 + 1.0 / 5.0;
  EXPECT_NEAR(coded / data, expected_rate, 0.1);
}

TEST(Encoder, BatchIdsUniqueAndNamespaced) {
  Fixture f(small_params());
  f.register_flows(4);
  for (SeqNo s = 0; s < 25; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  std::map<std::uint32_t, PacketType> batch_types;
  for (const auto& c : f.collector->coded) {
    auto [it, inserted] = batch_types.emplace(c->meta->batch_id, c->type);
    if (!inserted) {
      // Same batch id must mean the same batch (same type, same k).
      EXPECT_EQ(it->second, c->type);
    }
    // Namespaced by the encoder's DcId (1 << 20).
    EXPECT_GE(c->meta->batch_id, 1u << 20);
  }
}

TEST(Encoder, FlushAllEmitsEverythingPending) {
  Fixture f(small_params());
  f.register_flows(3);
  f.offer(1, 0);
  f.offer(2, 0);
  f.offer(3, 0);
  const auto before = f.collector->coded.size();
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  EXPECT_GT(f.collector->coded.size(), before);
}

TEST(Encoder, DepartureShrinksEffectiveKToLiveFlows) {
  CodingParams p = small_params();
  p.in_coded = 0;           // Cross-stream only.
  p.queues_per_group = 1;   // Every packet lands in the one cross queue.
  Fixture f(p);
  f.register_flows(4);
  for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, 0);
  f.encoder->flush_all();
  const auto batches = [&f] { return f.encoder->stats().cross_batches; };

  // Four live flows: three packets leave the k=4 batch open.
  std::uint64_t before = batches();
  for (FlowId flow = 1; flow <= 3; ++flow) f.offer(flow, 1);
  EXPECT_EQ(batches(), before);
  f.encoder->flush_all();

  // Three live flows: the third packet closes the batch.
  f.encoder->flow_departed(4);
  EXPECT_EQ(f.encoder->stats().flow_departures, 1u);
  before = batches();
  for (FlowId flow = 1; flow <= 3; ++flow) f.offer(flow, 2);
  EXPECT_EQ(batches(), before + 1);
  f.sim.run_until(msec(100));
  EXPECT_EQ(f.encoder->stats().timer_flushes, 0u);
  ASSERT_FALSE(f.collector->coded.empty());
  EXPECT_EQ(f.collector->coded.back()->meta->k, 3);
}

TEST(Encoder, FlushAllEmitsInStreamBatchesInAscendingFlowId) {
  CodingParams p = small_params();
  p.cross_coded = 0;  // In-stream only.
  Fixture f(p);
  const std::vector<FlowId> arrival = {65, 7, 100, 3, 42};
  for (FlowId flow : arrival) f.registry->register_flow(flow, FlowInfo{f.dc2.id(), 1000 + flow});
  for (FlowId flow : arrival) f.offer(flow, 0);
  f.encoder->flush_all();
  f.sim.run_until(msec(100));

  std::vector<FlowId> order;
  for (const auto& c : f.collector->coded) {
    ASSERT_EQ(c->type, PacketType::kInCoded);
    order.push_back(c->meta->covered.front().flow);
  }
  EXPECT_EQ(order, (std::vector<FlowId>{3, 7, 42, 65, 100}));
}

TEST(Encoder, DeadPeerIsSuspendedAndItsFlushesSuppressed) {
  Fixture f(small_params());
  f.register_flows(4);
  f.encoder->set_peer_health([&f](NodeId dc) { return dc != f.dc2.id(); });
  for (SeqNo s = 0; s < 5; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));

  const EncoderStats& st = f.encoder->stats();
  EXPECT_EQ(st.peer_suspends, 1u);
  EXPECT_EQ(st.peer_probes, 0u);  // Every flush fell inside the first backoff.
  EXPECT_GT(st.in_batches, 0u);
  EXPECT_GT(st.cross_batches, 0u);
  EXPECT_EQ(st.flushes_suppressed, st.in_batches + st.cross_batches);
  EXPECT_EQ(st.coded_sent, 0u);
  EXPECT_TRUE(f.collector->coded.empty());
}

TEST(Encoder, DeadPeerIsProbedWithCappedDoublingBackoffThenReengaged) {
  CodingParams p = small_params();
  p.cross_coded = 0;  // In-stream only, and in_block = 1: every packet is
  p.in_block = 1;     // one flush attempt at the time it is offered.
  p.peer_backoff_base = msec(100);
  p.peer_backoff_cap = msec(400);
  Fixture f(p);
  f.register_flows(1);
  bool healthy = false;
  f.encoder->set_peer_health([&healthy](NodeId) { return healthy; });
  const EncoderStats& st = f.encoder->stats();
  SeqNo seq = 0;
  // One flush attempt at `ms`; returns the probe count after it.
  auto flush_at = [&](int ms) {
    f.sim.run_until(msec(ms));
    f.offer(1, seq++);
    return st.peer_probes;
  };

  EXPECT_EQ(flush_at(0), 0u);  // Suspended: backoff 100 ms.
  EXPECT_EQ(st.peer_suspends, 1u);
  EXPECT_EQ(flush_at(99), 0u);
  EXPECT_EQ(flush_at(100), 1u);  // Dead: backoff 200 ms.
  EXPECT_EQ(flush_at(299), 1u);
  EXPECT_EQ(flush_at(300), 2u);  // Dead: backoff 400 ms (the cap).
  EXPECT_EQ(flush_at(699), 2u);
  EXPECT_EQ(flush_at(700), 3u);  // Dead: backoff stays at 400 ms.
  EXPECT_EQ(flush_at(1099), 3u);
  EXPECT_EQ(flush_at(1100), 4u);
  EXPECT_EQ(st.flushes_suppressed, 9u);
  EXPECT_EQ(st.coded_sent, 0u);

  healthy = true;
  EXPECT_EQ(flush_at(1499), 4u);  // Healthy, but not probed before retry_at.
  EXPECT_EQ(st.flushes_suppressed, 10u);
  EXPECT_EQ(flush_at(1500), 5u);  // The probe finds it healthy.
  EXPECT_EQ(st.peer_reengages, 1u);
  EXPECT_EQ(st.coded_sent, 1u);
  EXPECT_EQ(flush_at(1501), 5u);  // Re-engaged: no further probes.
  EXPECT_EQ(st.coded_sent, 2u);
  EXPECT_EQ(st.flushes_suppressed, 10u);
  EXPECT_EQ(st.peer_suspends, 1u);
}

TEST(Encoder, CrashForgetsGroupPopulation) {
  CodingParams p = small_params();
  p.in_coded = 0;
  p.queues_per_group = 1;
  Fixture f(p);
  f.register_flows(4);
  for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, 0);
  f.encoder->flush_all();

  f.encoder->on_dc_crash();
  // The restarted encoder relearns the group from zero: two live flows
  // close a batch at k = 2, where the forgotten four would have held it open.
  const std::uint64_t before = f.encoder->stats().cross_batches;
  f.offer(1, 1);
  f.offer(2, 1);
  EXPECT_EQ(f.encoder->stats().cross_batches, before + 1);
}

}  // namespace
}  // namespace jqos::services
