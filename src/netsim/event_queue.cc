#include "netsim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/knobs.h"

namespace jqos::netsim {

namespace {

// Buckets bigger than this are split into a finer rung instead of sorted.
// Sorting a run of 16-byte POD entries is cheap (and the sorted run then
// feeds the prefetching dispatch loop), so the threshold is set where a
// sort's n·log n starts losing to one more cache-resident scatter pass.
constexpr std::size_t kSortThreshold = 1024;
// Rung sizing: aim for ~kPerBucket entries per bucket -- fine enough that
// sorting a bucket is trivial, coarse enough that per-bucket fixed costs
// (take, scan, sort call, recycle) amortize across a cache line's worth of
// entries -- clamped to keep tiny spreads from degenerating and huge ones
// from allocating absurd bucket arrays.
constexpr std::uint64_t kPerBucket = 16;
constexpr std::uint64_t kMinBuckets = 8;
// The bucket-header array of one rung stays L2-resident (8k vectors = 192
// KB): a multi-million-event spread cascades through two cache-friendly
// scatters (coarse rung, then a tiny child rung per bucket) instead of one
// cache-hostile scatter across hundreds of thousands of buckets.
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 13;
// Depth backstop: at width 1 a bucket holds only equal timestamps and is
// sorted regardless, so real workloads never get near this.
constexpr std::size_t kMaxRungs = 40;
// Caps on recycled bucket storage. The pool only needs to absorb one
// spread's worth of bucket vectors between a rung being consumed and the
// next spawn_rung taking them back, so its TOTAL capacity is held to a
// small multiple of the slab high-water mark (peak simultaneously live
// events) with a fixed floor for tiny queues. Overflow is simply freed --
// without the byte bound, steady-state workloads that consume buckets far
// more often than they spawn rungs ratchet pooled storage up linearly for
// the whole run (each consumption recycles a capacity-bearing vector, and
// only a spread, ~once per rung exhaustion, draws any back out).
constexpr std::size_t kPoolCap = std::size_t{1} << 17;
constexpr std::size_t kPoolMinEntries = std::size_t{1} << 12;
constexpr std::size_t kPoolSlabFactor = 8;

constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 24;  // Entry::slot width.

}  // namespace

const char* evq_backend_name(EvqBackend b) {
  switch (b) {
    case EvqBackend::kHeap:
      return "heap";
    case EvqBackend::kLadder:
      return "ladder";
  }
  return "?";
}

EvqBackend evq_default_backend() {
  return knobs::read(knobs::kEvqBackend, EvqBackend::kLadder,
                     [](std::string_view v) -> std::optional<EvqBackend> {
                       if (v == "heap") return EvqBackend::kHeap;
                       if (v == "ladder" || v == "auto") return EvqBackend::kLadder;
                       return std::nullopt;
                     });
}

std::uint32_t EventQueue::alloc_slot(EventFn&& fn) {
  std::uint32_t slot;
  if (free_head_ != kNoFree) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    if (slots_.size() >= kMaxSlots) {
      throw std::length_error("EventQueue: more than 2^24 simultaneously live events");
    }
    if (slots_.size() == slots_.capacity()) ++version_;  // Slab will move.
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  if (next_seq_ >= (std::uint64_t{1} << 40)) {
    // Entry::seq is a 40-bit field; past it, truncation would silently
    // mismatch the slot's 64-bit sequence. Fail loudly like the slot cap.
    throw std::length_error("EventQueue: more than 2^40 events in one run");
  }
  s.seq = next_seq_++;
  ++live_;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.seq = 0;
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

EventId EventQueue::push(SimTime at, EventFn&& fn) {
  if (live_ == 0) {
    // Quiescent point: drop any stale (cancelled) entries still parked in
    // the ordering structures so they cannot accumulate across phases.
    if (backend_ == EvqBackend::kHeap) {
      heap_.clear();
    } else {
      ladder_reset();
    }
  }
  const std::uint32_t slot = alloc_slot(std::move(fn));
  const Entry e{at, slots_[slot].seq, slot};
  if (backend_ == EvqBackend::kHeap) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), EntryGt{});
  } else {
    ladder_push(e);
  }
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.seq == 0 || s.gen != gen) return;  // Fired, cancelled, or stale id.
  // The ordering entry stays parked wherever it is; it is skipped (and its
  // memory reclaimed) when its bucket is next touched.
  ++version_;
  free_slot(slot);
}

void EventQueue::heap_prune() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryGt{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  if (backend_ == EvqBackend::kHeap) {
    heap_prune();
    assert(!heap_.empty());
    return heap_.front().at;
  }
  const bool ok = ladder_prepare();
  assert(ok);
  (void)ok;
  return bottom_[bottom_pos_].at;
}

EventQueue::Fired EventQueue::pop() {
  Entry e;
  if (backend_ == EvqBackend::kHeap) {
    heap_prune();
    assert(!heap_.empty());
    e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), EntryGt{});
    heap_.pop_back();
  } else {
    const bool ok = ladder_prepare();
    assert(ok);
    (void)ok;
    e = bottom_[bottom_pos_++];
  }
  const auto slot = static_cast<std::uint32_t>(e.slot);
  Fired fired{e.at, std::move(slots_[slot].fn)};
  free_slot(slot);
  return fired;
}

std::size_t EventQueue::pop_ready(SimTime horizon, std::vector<Fired>& out) {
  return drain(horizon, [&out](SimTime at, EventFn&& fn) {
    out.push_back(Fired{at, std::move(fn)});
  });
}

// ------------------------------ ladder core -------------------------------

void EventQueue::recycle_bucket(std::vector<Entry>&& v) {
  if (v.capacity() == 0 || bucket_pool_.size() >= kPoolCap) return;
  const std::size_t limit =
      std::max(kPoolMinEntries, kPoolSlabFactor * slots_.size());
  if (pool_entries_ + v.capacity() > limit) return;  // Full: free it instead.
  pool_entries_ += v.capacity();
  v.clear();
  bucket_pool_.push_back(std::move(v));
}

void EventQueue::ladder_reset() {
  ++version_;
  for (Rung& r : rungs_) {
    for (auto& b : r.buckets) recycle_bucket(std::move(b));
  }
  rungs_.clear();
  top_.clear();
  recycle_bucket(std::move(bottom_));
  bottom_ = {};
  bottom_pos_ = 0;
  top_start_ = std::numeric_limits<SimTime>::min();
  ladder_init_ = true;
}

void EventQueue::ladder_push(const Entry& e) {
  if (!ladder_init_) ladder_reset();
  if (e.at >= top_start_) {
    top_.push_back(e);
    return;
  }
  // Rung spans nest (each rung refines its parent's current bucket), so the
  // first rung whose unconsumed range contains e.at is the right home.
  for (Rung& r : rungs_) {
    if (e.at < r.base) break;  // Earlier than every remaining rung's range.
    std::uint64_t idx = static_cast<std::uint64_t>(e.at - r.base) >> r.shift;
    if (idx >= r.buckets.size()) idx = r.buckets.size() - 1;  // Defensive clamp.
    if (idx >= r.cur) {
      r.buckets[idx].push_back(e);
      ++r.count;
      return;
    }
  }
  // Inside already-consumed territory: sorted insert into the live bottom.
  ++version_;
  auto it = std::upper_bound(bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
                             bottom_.end(), e, EntryLt{});
  bottom_.insert(it, e);
}

void EventQueue::sort_into_bottom(std::vector<Entry>& bucket, SimTime start,
                                  std::uint64_t width) {
  // Bucket entries arrive in push order (monotonic seq), both from direct
  // pushes and from spreads (which preserve source order), so a STABLE sort
  // by time alone yields the full (time, seq) delivery order. When the
  // bucket's time span is narrow relative to its population, a stable
  // counting sort by time offset does it in O(n + width) with no compares.
  // The counting path scatters into bottom_'s EXISTING storage (it is
  // already drained when this runs): churning it through the pool and
  // reallocating per bucket would both malloc on the hot path and feed the
  // pool faster than spreads drain it.
  if (width <= 2 * bucket.size() + 64) {
    counts_.assign(static_cast<std::size_t>(width), 0);
    for (const Entry& e : bucket) {
      ++counts_[static_cast<std::size_t>(static_cast<std::uint64_t>(e.at - start))];
    }
    std::uint32_t running = 0;
    for (auto& c : counts_) {
      const std::uint32_t n = c;
      c = running;
      running += n;
    }
    bottom_.resize(bucket.size());
    for (const Entry& e : bucket) {
      const auto off = static_cast<std::size_t>(static_cast<std::uint64_t>(e.at - start));
      bottom_[counts_[off]++] = e;
    }
    recycle_bucket(std::move(bucket));
  } else {
    recycle_bucket(std::move(bottom_));
    bottom_ = std::move(bucket);
    std::sort(bottom_.begin(), bottom_.end(), EntryLt{});
  }
}

void EventQueue::spawn_rung(SimTime base, std::uint64_t span, const std::vector<Entry>& entries) {
  Rung r;
  r.base = base;
  const std::uint64_t target = std::clamp<std::uint64_t>(
      entries.size() / kPerBucket, kMinBuckets, kMaxBuckets);
  const std::uint64_t ideal = (span + target - 1) / target;
  while ((std::uint64_t{1} << r.shift) < ideal) ++r.shift;
  const std::uint64_t width = std::uint64_t{1} << r.shift;
  const std::uint64_t nb = (span + width - 1) >> r.shift;
  r.buckets.resize(static_cast<std::size_t>(nb));
  r.cur = 0;
  r.count = entries.size();
  for (const Entry& e : entries) {
    const auto idx =
        static_cast<std::size_t>(static_cast<std::uint64_t>(e.at - base) >> r.shift);
    auto& bucket = r.buckets[idx];
    if (bucket.capacity() == 0 && !bucket_pool_.empty()) {
      pool_entries_ -= bucket_pool_.back().capacity();
      bucket = std::move(bucket_pool_.back());
      bucket_pool_.pop_back();
    }
    bucket.push_back(e);
  }
  rungs_.push_back(std::move(r));
}

bool EventQueue::ladder_prepare() {
  if (!ladder_init_) ladder_reset();
  for (;;) {
    // Serve from the sorted bottom, skipping entries cancelled after sorting.
    while (bottom_pos_ < bottom_.size() && !entry_live(bottom_[bottom_pos_])) ++bottom_pos_;
    if (bottom_pos_ < bottom_.size()) return true;
    bottom_.clear();
    bottom_pos_ = 0;

    // Refill from the deepest rung that still holds entries.
    while (!rungs_.empty() && rungs_.back().count == 0) {
      for (auto& b : rungs_.back().buckets) recycle_bucket(std::move(b));
      rungs_.pop_back();
    }
    if (!rungs_.empty()) {
      Rung& r = rungs_.back();
      while (r.buckets[r.cur].empty()) ++r.cur;
      std::vector<Entry> bucket = std::move(r.buckets[r.cur]);
      const SimTime bucket_start = r.base + static_cast<SimTime>(r.cur << r.shift);
      const std::uint64_t bucket_width = std::uint64_t{1} << r.shift;
      r.count -= bucket.size();
      ++r.cur;
      std::erase_if(bucket, [this](const Entry& e) { return !entry_live(e); });
      if (bucket.empty()) {
        recycle_bucket(std::move(bucket));
        continue;
      }
      if (bucket.size() <= kSortThreshold || bucket_width == 1 ||
          rungs_.size() >= kMaxRungs) {
        sort_into_bottom(bucket, bucket_start, bucket_width);
      } else {
        spawn_rung(bucket_start, bucket_width, bucket);
        recycle_bucket(std::move(bucket));
      }
      continue;
    }

    // Rungs exhausted: spread the top tier into a fresh coarsest rung.
    std::erase_if(top_, [this](const Entry& e) { return !entry_live(e); });
    if (top_.empty()) {
      top_start_ = std::numeric_limits<SimTime>::min();
      return false;
    }
    SimTime lo = top_.front().at;
    SimTime hi = top_.front().at;
    for (const Entry& e : top_) {
      lo = std::min(lo, e.at);
      hi = std::max(hi, e.at);
    }
    if (top_.size() <= kSortThreshold) {
      // Small spread: sort top straight into bottom (reusing its drained
      // storage), skipping the rung machinery entirely -- the common case
      // at simulation tails and in lightly-loaded phases.
      bottom_.assign(top_.begin(), top_.end());
      std::sort(bottom_.begin(), bottom_.end(), EntryLt{});
      top_.clear();
      top_start_ = hi;
      continue;
    }
    // New events at or beyond `hi` go to top from here on; anything earlier
    // routes into the rung below (its buckets cover [lo, hi] with no gap).
    // Equal-timestamp ordering still holds across the boundary because top
    // is refilled only after every rung entry (all with lower seq) fired.
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    spawn_rung(lo, span, top_);
    top_.clear();  // Keeps its capacity: the next accumulation is alloc-free.
    top_start_ = hi;
  }
}

}  // namespace jqos::netsim
