// Deterministic thread-pool helpers for the experiment layer.
//
// Shards of a figure sweep are independent deterministic simulations; the
// only thing threads may change is wall-clock time, never results. These
// helpers therefore hand out *indices* (work identity) and leave all output
// placement to the caller, which writes to pre-sized slots -- the merged
// result is byte-identical for any thread count, including 1.
#pragma once

#include <cstddef>
#include <functional>

namespace jqos {

// Resolves the worker-thread count for sharded experiment runs.
//   requested > 0  -> used as-is.
//   requested == 0 -> JQOS_SIM_THREADS if set, else
//                     std::thread::hardware_concurrency().
// Always returns >= 1. The value never influences results, only wall time.
// Bad JQOS_SIM_THREADS values follow the knob table's policy
// (docs/BENCHMARKING.md, "Environment overrides").
unsigned resolve_sim_threads(unsigned requested = 0);

// Runs fn(i) for every i in [0, n) across `threads` workers (clamped to
// [1, n]). Work is handed out dynamically (atomic counter) so imbalanced
// items still pack well; fn must confine writes to its own item's slots.
// With threads <= 1 the loop runs inline on the calling thread.
//
// Exceptions: the first exception thrown by any fn is rethrown on the
// calling thread after all workers have stopped picking up new work.
void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn);

}  // namespace jqos
