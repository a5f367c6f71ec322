// Priority event queue for the discrete-event simulator.
//
// Events at equal timestamps are delivered in insertion order (a strict
// tie-break on a monotonic sequence number), which keeps simulations fully
// deterministic for a given seed -- a property the test suite asserts.
//
// Two ordering backends share one slab of slot-allocated events:
//
//   kLadder  a ladder queue (Tang/Goh/Thng): far-future events sit in an
//            unsorted top tier; when needed they are spread into rungs of
//            time buckets, and only the single earliest bucket is ever
//            sorted ("bottom"). push and cancel are O(1) amortized, and
//            ordering work is amortized across every event in a bucket, so
//            dispatch stays flat as the live-event count grows. The default.
//   kHeap    the classic binary heap, O(log n) per operation. Retained as
//            the reference backend for differential tests and as the
//            baseline the event-queue microbench measures speedups against.
//
// Both backends order by (time, sequence), so for any same-seed workload
// they produce bit-identical traces -- tests/netsim_determinism_test.cc and
// tests/evq_stress_test.cc pin this.
//
// Event callbacks live in a slab of freelist-reused slots with inline
// small-buffer storage (see event_fn.h): pushing an event allocates no
// memory in steady state, and resident memory is O(live events), not
// O(events ever pushed). EventIds encode (slot, generation) so cancel is
// O(1) and cancelling a fired, cancelled, or unknown id stays a no-op.
//
// Backend selection: EventQueue() uses evq_default_backend() -- the
// JQOS_EVQ_BACKEND knob (docs/BENCHMARKING.md, "Environment overrides"),
// else the ladder. CI forces each backend through the whole suite; benches
// sweep both.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "netsim/event_fn.h"

#if defined(__GNUC__) || defined(__clang__)
#define JQOS_EVQ_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define JQOS_EVQ_PREFETCH(addr) ((void)0)
#endif

namespace jqos::netsim {

using EventId = std::uint64_t;

enum class EvqBackend {
  kHeap,
  kLadder,
};

// Human-readable backend name: "heap", "ladder".
const char* evq_backend_name(EvqBackend b);

// Backend newly constructed queues use: JQOS_EVQ_BACKEND if set, else
// kLadder. Read on every call.
EvqBackend evq_default_backend();

class EventQueue {
 public:
  EventQueue() : EventQueue(evq_default_backend()) {}
  explicit EventQueue(EvqBackend backend) : backend_(backend) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `at`; returns an id usable with cancel().
  EventId push(SimTime at, EventFn&& fn);

  // Lazily cancels a pending event and frees its slot. Cancelling an
  // already-fired, already-cancelled, or unknown id is a no-op.
  void cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Time of the earliest live event; only valid when !empty().
  SimTime next_time();

  // Pops and returns the earliest live event's function, advancing past any
  // cancelled entries. Only valid when !empty().
  struct Fired {
    SimTime at;
    EventFn fn;
  };
  Fired pop();

  // Batched extraction: moves every live event with time <= horizon into
  // `out` in delivery order and returns how many were appended. Extracted
  // events count as fired -- cancelling one afterwards is a no-op. Callers
  // whose handlers may push or cancel while the batch runs should use
  // drain() instead, which validates each event just-in-time.
  std::size_t pop_ready(SimTime horizon, std::vector<Fired>& out);

  // Runs sink(at, std::move(fn)) for every live event with time <= horizon,
  // in delivery order, and returns how many fired. The sink may push new
  // events (including at times within the horizon -- they fire in this same
  // drain, correctly ordered) and may cancel not-yet-fired ones (they are
  // skipped). This is the batched core under Simulator::run: the ladder
  // backend serves the whole loop from its pre-sorted bottom rung, and
  // because that rung is pre-sorted the upcoming slots are known early
  // enough to prefetch -- hiding the slab's DRAM latency, which a binary
  // heap (whose next pop emerges only from the reheapify) cannot do.
  // Defined here so the per-event loop and the sink inline together.
  template <typename Sink>
  std::size_t drain(SimTime horizon, Sink&& sink) {
    std::size_t fired = 0;
    if (backend_ == EvqBackend::kHeap) {
      for (;;) {
        heap_prune();
        if (heap_.empty() || heap_.front().at > horizon) break;
        const Entry e = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), EntryGt{});
        heap_.pop_back();
        const auto slot = static_cast<std::uint32_t>(e.slot);
        EventFn fn = std::move(slots_[slot].fn);
        free_slot(slot);
        sink(e.at, std::move(fn));
        ++fired;
      }
      return fired;
    }
    for (;;) {
      // Refill / skip stale entries until the next live event is known.
      if (bottom_pos_ >= bottom_.size() || !entry_live(bottom_[bottom_pos_])) {
        if (!ladder_prepare()) break;
      }
      if (bottom_[bottom_pos_].at > horizon) break;
      // Serve a maximal run under a stable structure version: while no
      // cancel, no push into the live bottom, and no slab reallocation
      // happens, the cached pointers stay valid and the loop touches no
      // queue member but the version word. Entries cancelled before this
      // run began can still be parked in it, so each entry's sequence is
      // validated against its slot -- a read from the line the callback
      // move needs anyway.
      const Entry* data = bottom_.data();
      const std::size_t size = bottom_.size();
      Slot* slots = slots_.data();
      const std::uint64_t v = version_;
      std::size_t pos = bottom_pos_;
      while (pos < size) {
        const Entry e = data[pos];
        if (e.at > horizon) break;
        bottom_pos_ = ++pos;  // Commit before the sink, which may push.
        if (pos + 4 < size) {
          JQOS_EVQ_PREFETCH(&slots[static_cast<std::size_t>(data[pos + 4].slot)]);
        }
        const auto slot = static_cast<std::uint32_t>(e.slot);
        if (slots[slot].seq != e.seq) continue;  // Cancelled while parked.
        EventFn fn = std::move(slots[slot].fn);
        free_slot(slot);
        sink(e.at, std::move(fn));
        ++fired;
        if (version_ != v) break;  // Structure changed: re-cache.
      }
      // The outer loop re-evaluates refill, staleness, and horizon.
    }
    return fired;
  }

  EvqBackend backend() const { return backend_; }

  // Slots ever allocated -- the slab's high-water mark. Bounded by the peak
  // number of simultaneously live events; the memory regression test pins
  // this (it must NOT scale with total events pushed over a run).
  std::size_t slab_slots() const { return slots_.size(); }

  // Total capacity (in entries) of the ladder's recycled-bucket pool; 0 for
  // the heap backend. Held to O(slab_slots) by recycle_bucket -- the memory
  // regression test pins this (it must NOT scale with run length: bucket
  // consumptions feed the pool every few events, spreads drain it only when
  // a rung exhausts).
  std::size_t pooled_bucket_entries() const { return pool_entries_; }

 private:
  struct alignas(64) Slot {
    EventFn fn;
    std::uint64_t seq = 0;       // Sequence of the current occupant; 0 when free.
    std::uint32_t gen = 0;       // Bumped on each free; embedded in EventId.
    std::uint32_t next_free = 0; // Intrusive freelist link (valid when free).
  };
  static_assert(sizeof(Slot) == 64, "one cache line per event slot");

  // 16 bytes of ordering state per queued event; callbacks stay in the slab.
  struct Entry {
    SimTime at;
    std::uint64_t seq : 40;  // Monotonic insertion order; 2^40 events/run.
    std::uint64_t slot : 24;
  };
  static_assert(sizeof(Entry) == 16);

  struct Rung {
    SimTime base = 0;        // Time at the start of bucket 0.
    std::uint32_t shift = 0; // Bucket width = 1 << shift ticks (a shift, not
                             // a divide, on the per-event scatter path).
    std::size_t cur = 0;     // Next bucket index not yet consumed.
    std::size_t count = 0;   // Entries parked in buckets[cur..].
    std::vector<std::vector<Entry>> buckets;
  };

  // Delivery order: earliest time first, then lowest sequence (= insertion
  // order at equal timestamps). Both backends order by exactly this.
  // Functors (not function pointers) so sort/heap comparisons inline.
  struct EntryLt {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };
  struct EntryGt {
    bool operator()(const Entry& a, const Entry& b) const { return EntryLt{}(b, a); }
  };

  std::uint32_t alloc_slot(EventFn&& fn);
  void free_slot(std::uint32_t slot);
  bool entry_live(const Entry& e) const {
    return slots_[static_cast<std::size_t>(e.slot)].seq == e.seq;
  }

  void heap_prune();

  void ladder_reset();
  void ladder_push(const Entry& e);
  // Ensures bottom_[bottom_pos_] is the earliest live event (spreading top /
  // spawning rungs / sorting a bucket as needed); false when queue is empty.
  bool ladder_prepare();
  // Sorts `bucket` (whose span starts at `start` and is `width` ticks wide)
  // into bottom_, picking counting sort when the span is narrow.
  void sort_into_bottom(std::vector<Entry>& bucket, SimTime start, std::uint64_t width);
  void spawn_rung(SimTime base, std::uint64_t span, const std::vector<Entry>& entries);
  void recycle_bucket(std::vector<Entry>&& v);

  EvqBackend backend_;

  // Bumped whenever a mutation could invalidate a cached serve run in
  // drain(): a cancel (entries may go stale), a push landing in the live
  // bottom (its storage may move), a slab reallocation (slot pointers move),
  // or a ladder reset. Rung-bucket and top pushes leave it untouched, which
  // is what lets steady-state dispatch stay in the cached loop.
  std::uint64_t version_ = 0;

  // ---- slab ----
  std::vector<Slot> slots_;
  static constexpr std::uint32_t kNoFree = 0xffffffffu;
  std::uint32_t free_head_ = kNoFree;  // LIFO: a just-freed slot is cache-hot.
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;

  // ---- heap backend ----
  std::vector<Entry> heap_;

  // ---- ladder backend ----
  std::vector<Entry> top_;     // Unsorted; every entry has at >= top_start_.
  SimTime top_start_;          // Initialized by ladder_reset() on first push.
  std::vector<Rung> rungs_;    // Coarsest first; back() is being drained.
  std::vector<Entry> bottom_;  // Sorted (at, seq); drained from bottom_pos_.
  std::size_t bottom_pos_ = 0;
  std::vector<std::uint32_t> counts_;  // Scratch for the counting sort.
  bool ladder_init_ = false;
  // Retired bucket vectors, recycled with their capacity so steady-state
  // spreads allocate nothing. Bounded by TOTAL capacity (pool_entries_,
  // kept O(peak live events) by recycle_bucket), not just vector count:
  // consumptions feed the pool far more often than spreads draw from it,
  // so a count-only cap lets pooled storage ratchet up for the whole run.
  std::vector<std::vector<Entry>> bucket_pool_;
  std::size_t pool_entries_ = 0;  // Sum of capacities pooled above.
};

}  // namespace jqos::netsim
