// PacketPool tests: recycling behind the packet.h factories, packets that
// outlive their pool (ASan validates the Core lifetime rules), the
// JQOS_OBJ_POOL env gate, and the load-bearing determinism property: WAN,
// churn and incast results are bit-identical with pooling on vs off, across
// event-queue backends. Pool state must never feed a simulation value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/packet.h"
#include "common/packet_pool.h"
#include "common/rng.h"
#include "exp/incast.h"
#include "exp/scenario.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"
#include "test_guards.h"
#include "workload/churn.h"

namespace jqos {
namespace {

using jqos::testing::EnvVarGuard;
using jqos::testing::EvqBackendGuard;

// Every PacketPool reads JQOS_OBJ_POOL when it is built, so a guard around
// construction pins the mode whatever the suite runs under.
const char* pool_mode(bool pooled) { return pooled ? "1" : "0"; }

// --- PacketPool ----------------------------------------------------------

TEST(PacketPoolTest, EnvGateReadAtConstruction) {
  {
    const EnvVarGuard off("JQOS_OBJ_POOL", std::string("0"));
    EXPECT_FALSE(PacketPool::env_enabled());
    PacketPool pool;
    EXPECT_FALSE(pool.enabled());
    // Disabled pool is a passthrough: acquire still yields usable packets.
    auto p = pool.acquire();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->type, PacketType::kData);
  }
  {
    const EnvVarGuard on("JQOS_OBJ_POOL", std::string("1"));
    EXPECT_TRUE(PacketPool().enabled());
  }
  {
    const EnvVarGuard unset("JQOS_OBJ_POOL", std::nullopt);
    EXPECT_TRUE(PacketPool().enabled());  // Pools default ON.
  }
  // Anything but unset/0/1 is a typo, not a mode: it must fail loudly with
  // the variable, the value, and the accepted forms in the message.
  for (const char* bad : {"off", "on", "true", "", "2", "01", " 1"}) {
    SCOPED_TRACE(std::string("JQOS_OBJ_POOL='") + bad + "'");
    const EnvVarGuard g("JQOS_OBJ_POOL", std::string(bad));
    EXPECT_THROW(PacketPool{}, std::invalid_argument);
    try {
      PacketPool::env_enabled();
      ADD_FAILURE() << "accepted a bogus value";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("JQOS_OBJ_POOL"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("expected 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("Unset"), std::string::npos) << msg;
    }
  }
}

// Packets carry their handle count inline (no separate control block), so
// recycling the Packet recycles all of a packet's storage.
TEST(PacketPoolTest, AcquireRecyclesStorageAndControlBlock) {
  const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
  {
    auto p = pool.acquire();
    p->payload.assign(512, 0xee);
    pool.engage_meta(*p).covered.push_back(PacketKey{7, 9});
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.fresh(), 1u);

  auto p2 = pool.acquire();
  EXPECT_EQ(pool.reused(), 1u);
  // Scrubbed: default header, empty payload, meta disengaged -- but with
  // capacity retained so refilling allocates nothing.
  EXPECT_EQ(p2->type, PacketType::kData);
  EXPECT_EQ(p2->flow, 0u);
  EXPECT_FALSE(p2->meta.has_value());
  EXPECT_TRUE(p2->payload.empty());
  EXPECT_GE(p2->payload.capacity(), 512u);
  // engage_meta hands back salvaged covered-key capacity.
  CodedMeta& m = pool.engage_meta(*p2);
  EXPECT_TRUE(m.covered.empty());
  EXPECT_GE(m.covered.capacity(), 1u);
}

TEST(PacketPoolTest, AcquireCopyIsDeep) {
  const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
  Packet src;
  src.type = PacketType::kCrossCoded;
  src.service = ServiceType::kCode;
  src.flow = 42;
  src.seq = 1000;
  src.src = 3;
  src.dst = 4;
  src.final_dst = 5;
  src.sent_at = 123456;
  src.ecn_capable = true;
  src.payload = {1, 2, 3, 4, 5};
  src.meta.emplace();
  src.meta->batch_id = 77;
  src.meta->k = 4;
  src.meta->r = 2;
  src.meta->covered = {PacketKey{42, 998}, PacketKey{42, 999}};

  auto copy = pool.acquire_copy(src);
  EXPECT_EQ(copy->type, src.type);
  EXPECT_EQ(copy->service, src.service);
  EXPECT_EQ(copy->flow, src.flow);
  EXPECT_EQ(copy->seq, src.seq);
  EXPECT_EQ(copy->src, src.src);
  EXPECT_EQ(copy->dst, src.dst);
  EXPECT_EQ(copy->final_dst, src.final_dst);
  EXPECT_EQ(copy->sent_at, src.sent_at);
  EXPECT_EQ(copy->ecn_capable, src.ecn_capable);
  EXPECT_EQ(copy->payload, src.payload);
  ASSERT_TRUE(copy->meta.has_value());
  EXPECT_EQ(*copy->meta, *src.meta);
  // Deep: mutating the copy leaves the source alone.
  copy->payload[0] = 99;
  EXPECT_EQ(src.payload[0], 1);
}

TEST(PacketPoolTest, PacketsOutliveThePool) {
  // Outstanding packets hold the Core alive through their home pointer, so a
  // packet that outlives its pool (shard teardown with in-flight packets)
  // recycles into a still-live freelist and the storage dies with the last
  // reference.
  PacketPtr survivor;
  {
    const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
    auto p = pool.acquire();
    p->payload.assign(64, 0x5a);
    survivor = std::move(p);
  }
  EXPECT_EQ(survivor->payload.size(), 64u);
  survivor.reset();  // Must not crash; ASan validates.
}

// --- PacketRef ------------------------------------------------------------

TEST(PacketRefTest, CopyMoveSelfAssignAndResetKeepTheCount) {
  const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
  PacketPtr a = pool.acquire();
  EXPECT_EQ(a.use_count(), 1u);

  PacketPtr b = a;  // Copy.
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a, b);

  PacketPtr c = std::move(b);  // Move: no count change, source emptied.
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.use_count(), 0u);

  PacketPtr& same = c;  // Through a reference, so the compiler allows it.
  c = same;  // Self-assignment.
  EXPECT_EQ(a.use_count(), 2u);
  c = std::move(same);  // Self-move.
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(c, a);
  c = a;  // Assignment from another handle to the same packet.
  EXPECT_EQ(a.use_count(), 2u);

  PacketPtr d;
  d = a;  // Copy-assign into an empty handle.
  EXPECT_EQ(a.use_count(), 3u);
  d = nullptr;
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_FALSE(d);
  c.reset();
  EXPECT_EQ(a.use_count(), 1u);
  c.reset();  // Resetting an empty handle is a no-op.
  EXPECT_EQ(a.use_count(), 1u);

  // Reassigning a handle to another packet releases the old one.
  PacketPtr e = pool.acquire();
  EXPECT_EQ(pool.outstanding(), 2u);
  e = a;
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(a.use_count(), 2u);

  // A new handle to an already-held packet joins its count.
  PacketPtr f(a.get());
  EXPECT_EQ(a.use_count(), 3u);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(PacketRefTest, MutableHandleConvertsToConst) {
  const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
  PacketMut m = pool.acquire();
  m->seq = 7;
  PacketPtr copied = m;  // Copy-converts: both hold the packet.
  EXPECT_EQ(m.use_count(), 2u);
  EXPECT_EQ(copied, m);
  EXPECT_EQ(copied->seq, 7u);
  PacketPtr moved = std::move(m);  // Move-converts: the count is handed over.
  EXPECT_EQ(m, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.use_count(), 2u);
  EXPECT_EQ(moved.get(), copied.get());
  // Writes through the mutable handle show through the const one.
  PacketMut again = pool.acquire();
  PacketPtr view = again;
  again->flow = 11;
  EXPECT_EQ(view->flow, 11u);
}

TEST(PacketRefTest, LastReleaseReturnsToThePool) {
  const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
  PacketPtr a = pool.acquire();
  PacketPtr b = a;
  EXPECT_EQ(pool.outstanding(), 1u);
  a.reset();
  EXPECT_EQ(pool.outstanding(), 1u);  // b still holds it.
  b.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_GT(pool.pooled_bytes(), 0u);
  auto again = pool.acquire();
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_EQ(pool.fresh(), 1u);
  EXPECT_EQ(again.use_count(), 1u);  // A recycled packet starts with one handle.
}

TEST(PacketRefTest, HeapPacketsAreFreed) {
  // new_packet() and a disabled pool make packets with no home pool; their
  // last handle deletes them (ASan's leak check fails the suite otherwise).
  {
    PacketMut p = new_packet();
    p->payload.assign(100, 1);
    PacketPtr q = p;
    p.reset();
    EXPECT_EQ(q.use_count(), 1u);
  }
  const EnvVarGuard off("JQOS_OBJ_POOL", pool_mode(false));
  PacketPool pool;
  PacketPtr kept;
  {
    auto p = pool.acquire();
    auto c = pool.acquire_copy(*p);
    kept = c;
  }
  EXPECT_EQ(pool.outstanding(), 0u);  // A disabled pool counts nothing.
  EXPECT_EQ(kept.use_count(), 1u);
}

TEST(PacketRefTest, PacketsOutlivingThePoolFreeCleanly) {
  // Several packets, some shared, survive their pool and die in mixed order;
  // the Core goes with the last one (ASan checks the frees).
  std::vector<PacketPtr> survivors;
  PacketPtr shared;
  {
    const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
    PacketPool pool;
    for (int i = 0; i < 4; ++i) {
      auto p = pool.acquire();
      pool.engage_meta(*p).covered.push_back(PacketKey{1, static_cast<SeqNo>(i)});
      survivors.push_back(std::move(p));
    }
    shared = survivors[1];
    auto released = pool.acquire();  // Pooled before the facade dies.
  }
  survivors[1].reset();
  EXPECT_EQ(shared.use_count(), 1u);
  survivors.erase(survivors.begin());
  PacketPtr late_copy = survivors.back();  // New handles after the pool died.
  survivors.clear();
  late_copy.reset();
  shared.reset();  // The last packet home: the orphaned Core frees itself.
}

TEST(PacketRefTest, CopyingAPacketCopiesNeitherCountNorHome) {
  const EnvVarGuard on("JQOS_OBJ_POOL", pool_mode(true));
  PacketPool pool;
  PacketMut pooled = pool.acquire();
  pooled->seq = 5;
  PacketPtr extra = pooled;
  EXPECT_EQ(pooled.use_count(), 2u);

  // A heap copy starts with its own single handle and no home: releasing it
  // deletes it and never touches the pool.
  PacketPtr heap = new_packet(*pooled);
  EXPECT_EQ(heap.use_count(), 1u);
  EXPECT_EQ(heap->seq, 5u);
  heap.reset();
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(pooled.use_count(), 2u);

  // Copy-assigning over a held packet keeps that packet's count and home.
  PacketMut other = pool.acquire();
  *other = *pooled;
  EXPECT_EQ(other.use_count(), 1u);
  EXPECT_EQ(pooled.use_count(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
  other.reset();
  EXPECT_EQ(pool.outstanding(), 1u);  // It went home to the pool.

  // A value copy, and a pool copy, are new packets with one handle each.
  const Packet value = *pooled;
  PacketPtr from_value = new_packet(value);
  EXPECT_EQ(from_value.use_count(), 1u);
  PacketPtr pool_copy = pool.acquire_copy(*pooled);
  EXPECT_EQ(pool_copy.use_count(), 1u);
  EXPECT_EQ(pooled.use_count(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
}

TEST(PacketPoolTest, FactoriesProduceIdenticalPacketsPooledOrNot) {
  auto make_pool = [](bool pooled) {
    const EnvVarGuard env("JQOS_OBJ_POOL", pool_mode(pooled));
    return std::make_unique<PacketPool>();
  };
  const auto on = make_pool(true);
  const auto off = make_pool(false);
  ASSERT_TRUE(on->enabled());
  ASSERT_FALSE(off->enabled());
  const PacketPtr pooled = make_data_packet(*on, 9, 55, 1, 2, 777, 300);
  const PacketPtr plain = make_data_packet(*off, 9, 55, 1, 2, 777, 300);
  EXPECT_EQ(pooled->serialize(), plain->serialize());
  EXPECT_EQ(pooled->wire_size(), plain->wire_size());
  // A disabled pool hands out plain heap packets and keeps no books.
  EXPECT_EQ(off->fresh() + off->reused(), 0u);
  EXPECT_EQ(on->fresh(), 1u);
}

// --- Determinism: pools must never perturb simulation values -------------

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

void fnv_d(std::uint64_t& h, double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  fnv(h, u);
}

std::uint64_t wan_fingerprint(exp::WanScenario& sc) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < sc.path_count(); ++i) {
    const exp::PathRuntime& rt = sc.path(i);
    fnv(h, rt.outcome.size());
    for (exp::Outcome o : rt.outcome) fnv(h, static_cast<std::uint64_t>(o));
    for (double v : rt.recovery_ms.values()) fnv_d(h, v);
    fnv(h, rt.delivered_direct);
    fnv(h, rt.recovered);
    fnv(h, rt.lost);
  }
  const auto enc = sc.encoder_totals();
  for (std::uint64_t v : {enc.data_packets, enc.cross_batches, enc.in_batches,
                          enc.coded_sent, enc.timer_flushes}) {
    fnv(h, v);
  }
  const auto rec = sc.recovery_totals();
  for (std::uint64_t v : {rec.nacks, rec.nack_keys, rec.in_stream_served,
                          rec.coop_ops, rec.coop_success, rec.recovered_sent,
                          rec.batches_stored}) {
    fnv(h, v);
  }
  fnv(h, sc.sim().events_processed());
  return h;
}

// One lossy coded-path scenario; the pool env guard wraps CONSTRUCTION
// because the Network's PacketPool reads JQOS_OBJ_POOL when it is built.
std::uint64_t wan_fp(bool pooled, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", pool_mode(pooled));
  Rng geo_rng(0x706f6f6cULL);
  const auto paths = geo::planetlab_paths(3, geo_rng);
  exp::WanScenarioParams p;
  p.seed = 0xdecafbadULL;
  p.direct.bernoulli_loss = 0.02;  // Enough loss to exercise NACK/recovery.
  p.cbr.packets_per_second = 60.0;
  exp::WanScenario sc(paths, p);
  sc.run(sec(2));
  return wan_fingerprint(sc);
}

TEST(PacketPoolDeterminism, WanFingerprintIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    EXPECT_EQ(wan_fp(/*pooled=*/true, backend), wan_fp(/*pooled=*/false, backend));
  }
}

std::uint64_t churn_fp(bool pooled, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", pool_mode(pooled));
  workload::ChurnConfig cfg;
  cfg.num_pairs = 3;
  cfg.duration = sec(2);
  cfg.arrivals.sessions_per_sec = 20.0;
  cfg.packets_per_second = 80.0;
  cfg.max_session_packets = 50;
  cfg.scenario.seed = 0xc0ffeeULL;
  cfg.num_shards = 1;
  cfg.num_threads = 1;
  return workload::run_churn(cfg).fingerprint();
}

TEST(PacketPoolDeterminism, ChurnFingerprintIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    EXPECT_EQ(churn_fp(/*pooled=*/true, backend), churn_fp(/*pooled=*/false, backend));
  }
}

// Incast through an ECN CoDel bottleneck: the switch's relay copies and the
// bottleneck link's copy-on-CE-mark clones both come from the Network's pool.
struct IncastRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t ce_marked = 0;
};

IncastRun incast_run(bool pooled, netsim::EvqBackend backend) {
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", pool_mode(pooled));
  exp::IncastParams p;  // 16 senders x 64-packet bursts, ECT, 4 epochs.
  p.qdisc.kind = netsim::QdiscKind::kCoDel;
  p.qdisc.limit_bytes = 8 << 20;  // Cap out of the way: CoDel marks, never drops.
  exp::IncastScenario sc(p, backend);
  const exp::IncastResult r = sc.run();
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint64_t v : {r.sent, r.delivered, r.ce_marked, r.bottleneck.delivered_packets,
                          r.bottleneck.queue_drops, r.bottleneck.ecn_marked,
                          r.events_processed, static_cast<std::uint64_t>(r.end_time)}) {
    fnv(h, v);
  }
  for (double d : r.epoch_drain_ms) fnv_d(h, d);
  return {h, r.ce_marked};
}

TEST(PacketPoolDeterminism, IncastCoDelIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    const IncastRun on = incast_run(/*pooled=*/true, backend);
    ASSERT_GT(on.ce_marked, 0u) << "the CE-mark copy path never ran";
    EXPECT_EQ(on.fingerprint, incast_run(/*pooled=*/false, backend).fingerprint);
  }
}

}  // namespace
}  // namespace jqos
