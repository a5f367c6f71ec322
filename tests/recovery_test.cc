// Tests for the DC2 recovery engine: in-stream serving, cooperative
// recovery (success, stragglers, deadline failure), NACK-before-coded
// checking, tail NACKs, and batch storage (TTL sweeping in store order,
// batches pinned by coop ops, the key index, crash wipes).
#include <gtest/gtest.h>

#include <map>

#include "fec/coded_batch.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/recovery_dc.h"

namespace jqos::services {
namespace {

// A scripted peer receiver: stores its own packets and answers cooperative
// requests unless told to act as a straggler.
struct Peer final : netsim::Node {
  Peer(netsim::Network& net, overlay::DataCenter& dc) : net_(net), id_(net.allocate_id()) {
    net.attach(*this);
    net.add_link(dc.id(), id_, netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    net.add_link(id_, dc.id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
  }

  NodeId id() const override { return id_; }

  void handle_packet(const PacketPtr& pkt) override {
    received.push_back(pkt);
    if (pkt->type == PacketType::kCoopRequest && !straggler) {
      auto it = data.find(pkt->seq);
      if (it == data.end()) return;
      auto resp = new_packet();
      resp->type = PacketType::kCoopResponse;
      resp->service = ServiceType::kCode;
      resp->flow = pkt->flow;
      resp->seq = pkt->seq;
      resp->src = id_;
      resp->dst = pkt->src;
      resp->meta = pkt->meta;
      resp->payload = it->second;
      net_.send(id_, resp);
    }
    if (pkt->type == PacketType::kNackCheck && confirm_checks) {
      NackInfo info;
      info.missing = {pkt->seq};
      auto confirm = new_packet();
      confirm->type = PacketType::kNackConfirm;
      confirm->service = ServiceType::kCode;
      confirm->flow = pkt->flow;
      confirm->seq = pkt->seq;
      confirm->src = id_;
      confirm->dst = pkt->src;
      confirm->payload = info.serialize();
      net_.send(id_, confirm);
    }
  }

  std::vector<PacketPtr> recovered() const {
    std::vector<PacketPtr> out;
    for (const auto& p : received) {
      if (p->type == PacketType::kRecovered) out.push_back(p);
    }
    return out;
  }

  netsim::Network& net_;
  NodeId id_;
  std::map<SeqNo, std::vector<std::uint8_t>> data;
  bool straggler = false;
  bool confirm_checks = true;
  std::vector<PacketPtr> received;
};

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc2{net, 2, "dc2"};
  FlowRegistryPtr registry = std::make_shared<FlowRegistry>();
  std::shared_ptr<RecoveryService> recovery;
  std::vector<std::unique_ptr<Peer>> peers;

  explicit Fixture(RecoveryParams params = {}) {
    recovery = std::make_shared<RecoveryService>(dc2, params, registry);
    dc2.install(recovery);
  }

  // Creates k flows (1..k), one peer receiver each, with one data packet
  // (seq `seq`) per flow; returns the cross-coded packets for the batch.
  std::vector<PacketPtr> make_cross_batch(std::size_t k, SeqNo seq, std::size_t r = 2,
                                          std::uint32_t batch_id = 100) {
    for (FlowId f = 1; f <= k; ++f) {
      auto peer = std::make_unique<Peer>(net, dc2);
      peer->data[seq] = payload_of(f, seq);
      registry->register_flow(f, FlowInfo{dc2.id(), peer->id()});
      peers.push_back(std::move(peer));
    }
    return encode_cross(k, seq, r, batch_id);
  }

  static std::vector<std::uint8_t> payload_of(FlowId flow, SeqNo seq) {
    return std::vector<std::uint8_t>(48, static_cast<std::uint8_t>(flow * 7 + seq));
  }

  // A cross-coded batch over seq `seq` of flows 1..k (payloads as in
  // make_cross_batch), without creating peers.
  std::vector<PacketPtr> encode_cross(std::size_t k, SeqNo seq, std::size_t r,
                                      std::uint32_t batch_id) {
    std::vector<PacketPtr> data_pkts;
    for (FlowId f = 1; f <= k; ++f) {
      auto p = new_packet();
      p->flow = f;
      p->seq = seq;
      p->payload = payload_of(f, seq);
      data_pkts.push_back(std::move(p));
    }
    return fec::encode_batch(data_pkts, r, PacketType::kCrossCoded, batch_id, 1,
                             dc2.id(), 0);
  }

  // An in-stream batch over seqs [first, first + 5) of `flow`, one coded.
  std::vector<PacketPtr> encode_in(FlowId flow, SeqNo first, std::uint32_t batch_id) {
    std::vector<PacketPtr> data_pkts;
    for (SeqNo s = first; s < first + 5; ++s) {
      auto p = new_packet();
      p->flow = flow;
      p->seq = s;
      p->payload = payload_of(flow, s);
      data_pkts.push_back(std::move(p));
    }
    return fec::encode_batch(data_pkts, 1, PacketType::kInCoded, batch_id, 1, dc2.id(), 0);
  }

  // Every stored batch is expired, still held, or was wiped by a crash.
  void expect_batches_accounted() const {
    const RecoveryStatsDc& st = recovery->stats();
    EXPECT_EQ(st.batches_stored, st.batches_expired + recovery->batches_held());
  }

  void deliver_coded(const std::vector<PacketPtr>& coded) {
    for (const auto& c : coded) {
      auto copy = new_packet(*c);
      copy->service = ServiceType::kCode;
      dc2.handle_packet(copy);
    }
  }

  void send_nack(FlowId flow, std::vector<SeqNo> missing, NodeId from, bool tail = false,
                 SeqNo expected = 0) {
    NackInfo info;
    info.tail = tail;
    info.expected = expected;
    info.missing = std::move(missing);
    auto nack = new_packet();
    nack->type = PacketType::kNack;
    nack->service = ServiceType::kCode;
    nack->flow = flow;
    nack->src = from;
    nack->dst = dc2.id();
    nack->payload = info.serialize();
    dc2.handle_packet(nack);
  }
};

TEST(Recovery, CooperativeRecoverySingleLoss) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.deliver_coded(coded);

  // Peer 0 (flow 1) lost its packet and NACKs.
  const auto want = f.peers[0]->data[0];
  f.peers[0]->data.clear();  // It does not have its own packet.
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));

  auto rec = f.peers[0]->recovered();
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0]->flow, 1u);
  EXPECT_EQ(rec[0]->seq, 0u);
  EXPECT_EQ(rec[0]->payload, want);
  EXPECT_EQ(f.recovery->stats().coop_success, 1u);
  // 5 peers were solicited (everyone but the requester).
  EXPECT_EQ(f.recovery->stats().coop_requests_sent, 5u);
}

TEST(Recovery, ToleratesStragglersUpToCodedBudget) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0, /*r=*/2);
  f.deliver_coded(coded);
  f.peers[0]->data.clear();
  f.peers[3]->straggler = true;  // One peer never answers; r=2 absorbs it.
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));
  EXPECT_EQ(f.peers[0]->recovered().size(), 1u);
  EXPECT_EQ(f.recovery->stats().coop_success, 1u);
}

TEST(Recovery, DeadlineFailureWhenTooManyStragglers) {
  RecoveryParams params;
  params.coop_deadline = msec(100);
  Fixture f(params);
  auto coded = f.make_cross_batch(6, 0, /*r=*/1);
  f.deliver_coded(coded);
  f.peers[0]->data.clear();
  f.peers[2]->straggler = true;
  f.peers[4]->straggler = true;  // r=1 cannot absorb two stragglers + 1 loss.
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(2));
  EXPECT_TRUE(f.peers[0]->recovered().empty());
  EXPECT_EQ(f.recovery->stats().coop_deadline_failures, 1u);
}

TEST(Recovery, InStreamServedForSingleLoss) {
  Fixture f;
  // In-stream batch: one flow, 5 packets.
  auto peer = std::make_unique<Peer>(f.net, f.dc2);
  f.registry->register_flow(9, FlowInfo{f.dc2.id(), peer->id()});
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 5; ++s) {
    auto p = new_packet();
    p->flow = 9;
    p->seq = s;
    p->payload.assign(32, static_cast<std::uint8_t>(s));
    data.push_back(p);
  }
  auto coded = fec::encode_batch(data, 1, PacketType::kInCoded, 500, 1, f.dc2.id(), 0);
  f.deliver_coded(coded);

  f.send_nack(9, {2}, peer->id());
  f.sim.run_until(sec(1));
  // The receiver gets the in-stream coded packet to decode locally.
  bool got_in_coded = false;
  for (const auto& p : peer->received) {
    if (p->type == PacketType::kInCoded) got_in_coded = true;
  }
  EXPECT_TRUE(got_in_coded);
  EXPECT_EQ(f.recovery->stats().in_stream_served, 1u);
  EXPECT_EQ(f.recovery->stats().coop_ops, 0u);
}

TEST(Recovery, MultiLossNackPrefersCooperative) {
  Fixture f;
  auto coded0 = f.make_cross_batch(4, 0, 2, 100);
  f.deliver_coded(coded0);
  // Same flows, second packet each, second batch.
  std::vector<PacketPtr> data_pkts;
  for (FlowId flow = 1; flow <= 4; ++flow) {
    auto p = new_packet();
    p->flow = flow;
    p->seq = 1;
    p->payload.assign(48, static_cast<std::uint8_t>(flow + 100));
    f.peers[flow - 1]->data[1] = p->payload;
    data_pkts.push_back(p);
  }
  auto coded1 =
      fec::encode_batch(data_pkts, 2, PacketType::kCrossCoded, 101, 1, f.dc2.id(), 0);
  f.deliver_coded(coded1);

  // Peer 0 lost both of its packets (burst) and NACKs them together.
  f.peers[0]->data.clear();
  f.send_nack(1, {0, 1}, f.peers[0]->id());
  f.sim.run_until(sec(1));

  EXPECT_EQ(f.peers[0]->recovered().size(), 2u);
  EXPECT_EQ(f.recovery->stats().coop_ops, 2u);  // One per batch.
}

TEST(Recovery, NackBeforeCodedTriggersCheckThenRecovers) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  // NACK arrives BEFORE any coded packet (outran it on the short path).
  f.peers[0]->data.clear();
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(msec(50));
  EXPECT_EQ(f.recovery->stats().nack_checks_sent, 1u);
  EXPECT_TRUE(f.peers[0]->recovered().empty());

  // Coded packets arrive later; the confirmed pending NACK fires recovery.
  f.deliver_coded(coded);
  f.sim.run_until(sec(2));
  EXPECT_EQ(f.peers[0]->recovered().size(), 1u);
}

TEST(Recovery, SpuriousNackNeverRecoversWithoutConfirm) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.peers[0]->confirm_checks = false;  // Receiver knows nothing is missing.
  f.send_nack(1, {7}, f.peers[0]->id());  // Seq 7 was never coded.
  f.sim.run_until(sec(1));
  f.deliver_coded(coded);
  f.sim.run_until(sec(2));
  EXPECT_TRUE(f.peers[0]->recovered().empty());
}

TEST(Recovery, TailNackRecoversForwardRun) {
  Fixture f;
  // Three consecutive batches covering seqs 0, 1, 2 of each flow.
  for (SeqNo s = 0; s < 3; ++s) {
    if (s == 0) {
      f.deliver_coded(f.make_cross_batch(4, 0, 2, 200));
    } else {
      std::vector<PacketPtr> data_pkts;
      for (FlowId flow = 1; flow <= 4; ++flow) {
        auto p = new_packet();
        p->flow = flow;
        p->seq = s;
        p->payload.assign(48, static_cast<std::uint8_t>(flow * 3 + s));
        f.peers[flow - 1]->data[s] = p->payload;
        data_pkts.push_back(p);
      }
      f.deliver_coded(fec::encode_batch(data_pkts, 2, PacketType::kCrossCoded, 200 + s, 1,
                                        f.dc2.id(), 0));
    }
  }
  // Flow 1's receiver went dark at seq 0 (outage): tail NACK from 0. The
  // tail scan only trusts batches old enough that direct copies must have
  // landed, so advance past that age first.
  f.sim.run_until(msec(200));
  f.peers[0]->data.clear();
  f.send_nack(1, {}, f.peers[0]->id(), /*tail=*/true, /*expected=*/0);
  f.sim.run_until(sec(2));
  EXPECT_EQ(f.peers[0]->recovered().size(), 3u);
}

TEST(Recovery, BatchTtlSweepsOldBatches) {
  RecoveryParams params;
  params.batch_ttl = sec(5);
  Fixture f(params);
  auto coded = f.make_cross_batch(4, 0);
  f.deliver_coded(coded);
  EXPECT_EQ(f.recovery->batches_held(), 1u);
  // Heartbeat packets keep the sweep running past the TTL.
  for (int i = 1; i <= 8; ++i) {
    f.sim.run_until(sec(i));
    auto hb = new_packet();
    hb->type = PacketType::kControl;
    f.recovery->handle(f.dc2, hb);
  }
  EXPECT_EQ(f.recovery->batches_held(), 0u);
  EXPECT_EQ(f.recovery->stats().batches_expired, 1u);
}

TEST(Recovery, StragglerResponseAfterCompletionCounted) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.deliver_coded(coded);
  f.peers[0]->data.clear();
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));
  ASSERT_EQ(f.recovery->stats().coop_success, 1u);
  // The op closed as soon as enough symbols arrived; peers answering after
  // that already count as stragglers. Record the baseline.
  const std::uint64_t baseline = f.recovery->stats().straggler_responses;
  // A late duplicate response arrives after the op closed.
  auto resp = new_packet();
  resp->type = PacketType::kCoopResponse;
  resp->service = ServiceType::kCode;
  resp->flow = 2;
  resp->seq = 0;
  resp->src = f.peers[1]->id();
  resp->dst = f.dc2.id();
  CodedMeta m;
  m.batch_id = 100;
  resp->meta = m;
  resp->payload = f.peers[1]->data[0];
  f.dc2.handle_packet(resp);
  EXPECT_EQ(f.recovery->stats().straggler_responses, baseline + 1);
}

// A coop op that outlives the TTL pins its batch, but not the batches
// stored behind it: they expire on the tick they would have expired on
// anyway, and the pinned one goes at the first sweep after its op ends.
TEST(Recovery, PinnedBatchDoesNotHoldBackLaterBatches) {
  RecoveryParams params;
  params.batch_ttl = sec(1);
  params.coop_deadline = sec(3);
  Fixture f(params);
  f.deliver_coded(f.make_cross_batch(6, 0, /*r=*/1, /*batch_id=*/100));
  for (auto& peer : f.peers) peer->straggler = true;  // The op never decodes.
  f.sim.run_until(msec(100));
  f.send_nack(1, {0}, f.peers[0]->id());  // Op on batch 100 until 3.1 s.
  ASSERT_EQ(f.recovery->stats().coop_ops, 1u);

  // Three later batches over the same keys: each key's index entry spills
  // past its two inline slots, and expiring them leaves only batch 100.
  f.sim.run_until(msec(500));
  for (std::uint32_t id = 101; id <= 103; ++id) f.deliver_coded(f.encode_cross(6, 0, 1, id));
  EXPECT_EQ(f.recovery->batches_held(), 4u);

  f.sim.run_until(sec(2));  // Tick at 2 s: cutoff 1 s covers all four.
  EXPECT_EQ(f.recovery->batches_held(), 1u);
  EXPECT_EQ(f.recovery->stats().batches_expired, 3u);
  f.expect_batches_accounted();

  f.sim.run_until(sec(3));  // The op is still live: batch 100 stays.
  EXPECT_EQ(f.recovery->batches_held(), 1u);
  EXPECT_EQ(f.recovery->stats().coop_deadline_failures, 0u);

  f.sim.run_until(sec(4));  // Deadline at 3.1 s, then the 4 s tick.
  EXPECT_EQ(f.recovery->stats().coop_deadline_failures, 1u);
  EXPECT_EQ(f.recovery->batches_held(), 0u);
  EXPECT_EQ(f.recovery->stats().batches_expired, 4u);

  // The index holds nothing for those keys any more.
  f.send_nack(2, {0}, f.peers[1]->id());
  EXPECT_EQ(f.recovery->stats().coop_ops, 1u);
  EXPECT_EQ(f.recovery->stats().uncovered_keys, 1u);
}

TEST(Recovery, StoredEqualsExpiredPlusHeldThroughDrain) {
  RecoveryParams params;
  params.batch_ttl = sec(2);
  params.coop_deadline = sec(3);
  Fixture f(params);
  f.deliver_coded(f.make_cross_batch(6, 0, /*r=*/1, /*batch_id=*/1));
  f.peers[0]->data.clear();
  f.peers[3]->straggler = true;
  f.peers[4]->straggler = true;  // The op on batch 1 pins it until 4.1 s.
  std::uint32_t next_id = 2;
  for (int tick = 0; tick < 6; ++tick) {
    for (int i = 0; i < 4; ++i) {
      f.sim.run_until(sec(tick) + msec(200 * i + 100));
      f.deliver_coded(f.encode_in(50, 5 * next_id, next_id));
      ++next_id;
      if (tick == 1 && i == 0) f.send_nack(1, {0}, f.peers[0]->id());
    }
    f.expect_batches_accounted();
  }
  f.sim.run();  // The sweep re-arms until nothing is held.
  EXPECT_EQ(f.recovery->batches_held(), 0u);
  EXPECT_EQ(f.recovery->stats().batches_stored, next_id - 1);
  f.expect_batches_accounted();
}

// Four in-stream batches cover each key of flows 9 and 10: two inline, two
// in the overflow. A lookup serves the first fresh one in store order,
// whether the stale ones before it are still held or already swept, and
// sweeping the oldest refills the inline pair in store order.
TEST(Recovery, KeyCoveredByManyBatchesServesFirstFreshInStoreOrder) {
  RecoveryParams params;
  params.batch_ttl = sec(2);
  Fixture f(params);
  f.peers.push_back(std::make_unique<Peer>(f.net, f.dc2));
  Peer& peer = *f.peers.back();
  peer.confirm_checks = false;
  auto store_at = [&](SimTime at, FlowId flow, std::uint32_t id) {
    f.sim.run_until(at);
    f.deliver_coded(f.encode_in(flow, 0, id));
  };
  auto served_after_nack_at = [&](SimTime at, FlowId flow) -> std::uint32_t {
    f.sim.run_until(at);
    peer.received.clear();
    f.send_nack(flow, {2}, peer.id());
    f.sim.run_until(at + msec(50));
    for (const auto& p : peer.received) {
      if (p->type == PacketType::kInCoded) return p->meta->batch_id;
    }
    return 0;
  };
  store_at(0, 9, 501);
  store_at(0, 10, 601);
  store_at(msec(200), 9, 502);
  store_at(msec(400), 9, 503);
  EXPECT_EQ(served_after_nack_at(sec(1), 9), 501u);
  store_at(msec(1200), 10, 602);
  store_at(msec(1400), 10, 603);
  store_at(msec(1600), 9, 504);
  store_at(msec(1600), 10, 604);
  EXPECT_EQ(served_after_nack_at(msec(2300), 9), 503u);  // 501, 502 stale; all held.
  EXPECT_EQ(served_after_nack_at(msec(2600), 9), 504u);  // 503 stale too.
  // The 3 s sweep takes 501-503 and 601: flow 10's inline pair becomes
  // 602, 603 with 604 behind them.
  EXPECT_EQ(served_after_nack_at(msec(3200), 9), 504u);
  EXPECT_EQ(served_after_nack_at(msec(3300), 10), 603u);  // 602 stale.
  EXPECT_EQ(served_after_nack_at(msec(4200), 9), 0u);     // All swept at 4 s.
  EXPECT_EQ(f.recovery->stats().in_stream_served, 5u);
}

// Many keys in one index, half of them deleted: backward-shift deletion
// must leave every surviving key reachable from its home slot.
TEST(Recovery, IndexDeletionKeepsEveryOtherKeyReachable) {
  RecoveryParams params;
  params.batch_ttl = sec(2);
  Fixture f(params);
  f.peers.push_back(std::make_unique<Peer>(f.net, f.dc2));
  Peer& peer = *f.peers.back();
  peer.confirm_checks = false;
  constexpr std::uint32_t kBatches = 400;
  // Odd batch ids at 0 s, even ones at 1.5 s: the 3 s sweep expires exactly
  // the odd ones, whose keys are scattered through the table.
  for (std::uint32_t id = 1; id <= kBatches; id += 2) {
    f.deliver_coded(f.encode_in(1000 + id, 0, id));
  }
  f.sim.run_until(msec(1500));
  for (std::uint32_t id = 2; id <= kBatches; id += 2) {
    f.deliver_coded(f.encode_in(1000 + id, 0, id));
  }
  f.sim.run_until(msec(3200));
  ASSERT_EQ(f.recovery->batches_held(), kBatches / 2);
  for (std::uint32_t id = 1; id <= kBatches; ++id) {
    for (SeqNo s = 0; s < 5; ++s) f.send_nack(1000 + id, {s}, peer.id());
  }
  EXPECT_EQ(f.recovery->stats().in_stream_served, kBatches / 2 * 5);
  EXPECT_EQ(f.recovery->stats().uncovered_keys, kBatches / 2 * 5);
}

// A meta that lists a key twice is indexed, and unindexed, twice: expiring
// that batch must leave a later batch over the same key in the index.
TEST(Recovery, RepeatedKeyInOneBatchLeavesOtherBatchesIndexed) {
  RecoveryParams params;
  params.batch_ttl = sec(2);
  Fixture f(params);
  f.peers.push_back(std::make_unique<Peer>(f.net, f.dc2));
  Peer& peer = *f.peers.back();
  std::vector<PacketPtr> data_pkts;
  for (SeqNo s : {2, 2, 3}) {
    auto p = new_packet();
    p->flow = 9;
    p->seq = s;
    p->payload = Fixture::payload_of(9, s);
    data_pkts.push_back(std::move(p));
  }
  f.deliver_coded(fec::encode_batch(data_pkts, 1, PacketType::kInCoded, 701, 1, f.dc2.id(), 0));
  f.sim.run_until(msec(1500));
  f.deliver_coded(f.encode_in(9, 0, 702));
  f.sim.run_until(sec(3));  // 701 expires; 702 stays.
  ASSERT_EQ(f.recovery->batches_held(), 1u);
  f.send_nack(9, {2}, peer.id());
  f.sim.run_until(msec(3050));
  bool served_702 = false;
  for (const auto& p : peer.received) {
    if (p->type == PacketType::kInCoded) served_702 = p->meta->batch_id == 702;
  }
  EXPECT_TRUE(served_702);
  EXPECT_EQ(f.recovery->stats().in_stream_served, 1u);
}

TEST(Recovery, BatchIdStoredAgainAfterCrashWipeRebuildsCleanly) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.deliver_coded(coded);
  f.recovery->on_dc_crash();
  EXPECT_EQ(f.recovery->batches_held(), 0u);

  f.deliver_coded(coded);  // The same batch id after the restart.
  EXPECT_EQ(f.recovery->batches_held(), 1u);
  EXPECT_EQ(f.recovery->stats().batches_stored, 2u);
  const auto want = f.peers[0]->data[0];
  f.peers[0]->data.clear();
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));
  auto rec = f.peers[0]->recovered();
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0]->payload, want);

  f.sim.run();  // Expires the rebuilt batch and lets the sweep stop.
  EXPECT_EQ(f.recovery->batches_held(), 0u);
  EXPECT_EQ(f.recovery->stats().batches_expired, 1u);
}

}  // namespace
}  // namespace jqos::services
