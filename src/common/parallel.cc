#include "common/parallel.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/knobs.h"

namespace jqos {
namespace {

// Strict "positive integer" parse for JQOS_SIM_THREADS: the whole string
// must be digits (an optional leading '+' is tolerated), no sign tricks, no
// trailing junk, and the count must fit an unsigned. nullopt on anything
// else, including "".
std::optional<unsigned> parse_thread_count(std::string_view s) {
  const std::string str(s);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(str.c_str(), &end, 10);
  if (end == str.c_str() || *end != '\0' || errno == ERANGE || v <= 0 ||
      static_cast<unsigned long>(v) > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned resolve_sim_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return knobs::read(knobs::kSimThreads, hw > 0 ? hw : 1, parse_thread_count);
}

void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads > n) threads = static_cast<unsigned>(n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // Stop handing out work.
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  try {
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  } catch (...) {
    // Thread creation can fail under resource limits (RLIMIT_NPROC, cgroup
    // pid caps). Destroying a joinable std::thread calls std::terminate, so
    // stop handing out work, drain the workers that did start, and let the
    // caller see a catchable exception instead of an abort.
    next.store(n, std::memory_order_relaxed);
    for (auto& th : pool) th.join();
    throw;
  }
  worker();  // The calling thread is worker 0.
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace jqos
