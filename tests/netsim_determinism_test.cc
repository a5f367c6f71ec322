// Determinism regression for the discrete-event simulator: two runs with the
// same seed must produce byte-identical event traces and stats. This is the
// contract every experiment in exp/ relies on for reproducible figures, and
// it is the property most at risk from the event-queue ladder/batching work:
// any reordering of equal-timestamp events or seed-dependent divergence
// shows up here before it corrupts a figure.
//
// Beyond same-seed/same-backend stability, the suite pins the stronger
// cross-backend contract: the ladder queue and the reference binary heap
// must produce bit-identical traces for the same seed — both for a raw
// event cascade and for a full fig9-style scenario through the J-QoS
// service stack (coding encoder/recovery DCs, receiver NACK timers, CBR
// apps over lossy jittered links).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/scenario.h"
#include "netsim/simulator.h"
#include "test_guards.h"

namespace jqos::netsim {
namespace {

constexpr EvqBackend kBackends[] = {EvqBackend::kHeap, EvqBackend::kLadder};

struct TraceEntry {
  SimTime at;
  std::uint64_t label;

  bool operator==(const TraceEntry&) const = default;
};

// A randomized self-expanding workload: each event may spawn children at
// random future offsets and may cancel a previously scheduled event. This
// exercises scheduling, equal-timestamp ties (delays are coarsely quantized
// so collisions are common), and lazy cancellation — the full EventQueue
// surface — while every random draw flows from one seed.
struct CascadeRun {
  std::vector<TraceEntry> trace;
  std::uint64_t events_processed = 0;
  SimTime end_time = 0;
};

CascadeRun run_cascade(std::uint64_t seed, EvqBackend backend) {
  Simulator sim(backend);
  Rng rng(seed);
  std::uint64_t next_label = 0;
  std::vector<EventId> cancellable;
  CascadeRun out;

  // The recursive spawner. Capturing structured state by reference is safe:
  // everything outlives sim.run().
  struct Spawner {
    Simulator& sim;
    Rng& rng;
    std::uint64_t& next_label;
    std::vector<EventId>& cancellable;
    CascadeRun& out;
    int budget;  // Remaining spawns; bounds the cascade.

    void spawn(int depth) {
      if (budget <= 0) return;
      --budget;
      const std::uint64_t label = next_label++;
      // Coarse 100us grid => frequent equal-timestamp ties.
      const SimDuration delay = usec(100 * rng.uniform_int(0, 50));
      const EventId id = sim.after(delay, [this, label, depth] {
        out.trace.push_back({sim.now(), label});
        // Supercritical branching (mean 1.5 children) so the cascade runs
        // until the spawn budget is consumed rather than dying out early.
        const std::int64_t children = depth < 400 ? rng.uniform_int(1, 2) : 0;
        for (std::int64_t c = 0; c < children; ++c) spawn(depth + 1);
        if (!cancellable.empty() && rng.bernoulli(0.3)) {
          const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(cancellable.size()) - 1));
          sim.cancel(cancellable[pick]);
          cancellable.erase(cancellable.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      });
      if (rng.bernoulli(0.2)) cancellable.push_back(id);
    }
  };

  Spawner spawner{sim, rng, next_label, cancellable, out, 2000};
  for (int i = 0; i < 16; ++i) spawner.spawn(0);
  sim.run();

  out.events_processed = sim.events_processed();
  out.end_time = sim.now();
  return out;
}

void expect_same_cascade(const CascadeRun& a, const CascadeRun& b, const std::string& what) {
  EXPECT_EQ(a.events_processed, b.events_processed) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i])
        << what << ": traces diverge at event " << i << " (t=" << a.trace[i].at
        << " label=" << a.trace[i].label << " vs t=" << b.trace[i].at << " label="
        << b.trace[i].label << ")";
  }
}

TEST(NetsimDeterminism, SameSeedSameTraceAndStats) {
  for (EvqBackend backend : kBackends) {
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
      const CascadeRun a = run_cascade(seed, backend);
      const CascadeRun b = run_cascade(seed, backend);
      ASSERT_GT(a.trace.size(), 100u) << "cascade too small to be a meaningful guard";
      expect_same_cascade(a, b,
                          std::string(evq_backend_name(backend)) + " seed=" +
                              std::to_string(seed));
    }
  }
}

TEST(NetsimDeterminism, HeapAndLadderBackendsProduceIdenticalTraces) {
  // The cross-backend contract: both backends order by (time, insertion
  // sequence), so for any same-seed workload their traces must be
  // bit-identical — the property the differential stress test fuzzes and
  // every figure bench relies on when sweeping backends.
  for (std::uint64_t seed : {1ull, 42ull, 7777ull, 0xdeadbeefull}) {
    const CascadeRun heap = run_cascade(seed, EvqBackend::kHeap);
    const CascadeRun ladder = run_cascade(seed, EvqBackend::kLadder);
    ASSERT_GT(heap.trace.size(), 100u);
    expect_same_cascade(heap, ladder, "heap-vs-ladder seed=" + std::to_string(seed));
  }
}

TEST(NetsimDeterminism, EqualTimestampEventsFireInInsertionOrder) {
  // The documented tie-break: equal timestamps deliver in insertion order.
  // Batching work must preserve this, or every seeded experiment shifts.
  for (EvqBackend backend : kBackends) {
    Simulator sim(backend);
    std::vector<int> fired;
    for (int i = 0; i < 100; ++i) {
      sim.at(msec(5), [&fired, i] { fired.push_back(i); });
    }
    sim.run();
    ASSERT_EQ(fired.size(), 100u) << evq_backend_name(backend);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

// ---------------------- full service-stack scenario -----------------------

// Everything observable from one fig9-style run: per-path per-sequence
// outcome codes (a delivery trace), recovery latency samples, and the
// simulator's own counters. Any backend-dependent reordering inside the
// encoder queues, recovery NACK path, or receiver timers lands here.
struct ScenarioFingerprint {
  std::vector<std::vector<exp::Outcome>> outcomes;
  std::vector<std::vector<double>> recovery_ms;
  std::vector<std::uint64_t> recovered, lost, delivered;
  std::uint64_t events_processed = 0;
  SimTime end_time = 0;

  bool operator==(const ScenarioFingerprint&) const = default;
};

ScenarioFingerprint run_fig9_style(EvqBackend backend, std::uint64_t seed) {
  const jqos::testing::EvqBackendGuard guard(backend);
  Rng prng(seed);
  auto paths = geo::planetlab_paths(6, prng);
  // One DC pair so coding groups reach full k, as the figure benches do.
  for (auto& p : paths) {
    p.dc1 = paths[0].dc1;
    p.dc2 = paths[0].dc2;
  }

  exp::WanScenarioParams params;
  params.service = ServiceType::kCode;
  params.seed = seed;
  params.coding.k = 4;
  params.coding.cross_coded = 1;
  params.coding.queue_timeout = msec(60);
  params.direct.outage_path_fraction = 0.5;
  params.direct.outage.mean_interval = sec(20);
  params.cbr.on_duration = sec(10);
  params.cbr.mean_off = sec(2);
  params.cbr.packets_per_second = 30.0;

  exp::WanScenario scenario(std::move(paths), params);
  scenario.run(sec(30));

  ScenarioFingerprint fp;
  for (std::size_t i = 0; i < scenario.path_count(); ++i) {
    const auto& p = scenario.path(i);
    fp.outcomes.push_back(p.outcome);
    fp.recovery_ms.push_back(p.recovery_ms.values());
    fp.recovered.push_back(p.recovered);
    fp.lost.push_back(p.lost);
    fp.delivered.push_back(p.delivered_direct);
  }
  fp.events_processed = scenario.sim().events_processed();
  fp.end_time = scenario.sim().now();
  return fp;
}

TEST(NetsimDeterminism, Fig9StyleScenarioIdenticalAcrossBackends) {
  const ScenarioFingerprint heap = run_fig9_style(EvqBackend::kHeap, 2020);
  const ScenarioFingerprint ladder = run_fig9_style(EvqBackend::kLadder, 2020);
  ASSERT_GT(heap.events_processed, 10000u)
      << "scenario too small to be a meaningful guard";
  EXPECT_EQ(heap.events_processed, ladder.events_processed);
  EXPECT_EQ(heap.end_time, ladder.end_time);
  EXPECT_TRUE(heap == ladder) << "fig9-style trace diverges between backends";
  // And the same backend twice is stable, as the figures assume.
  const ScenarioFingerprint ladder2 = run_fig9_style(EvqBackend::kLadder, 2020);
  EXPECT_TRUE(ladder == ladder2) << "same-seed ladder scenario not reproducible";
}

}  // namespace
}  // namespace jqos::netsim
