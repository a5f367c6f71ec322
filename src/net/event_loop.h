// A small epoll-based event loop: the live (non-simulated) runtime's
// scheduler. One loop per thread; not thread-safe by design (the paper's
// prototype runs one event loop per process, in user space).
//
// Timers live in a netsim::EventQueue keyed by microseconds since the loop
// was built, so the live runtime and the simulator share one timer
// mechanism: a TimerId is an EventId, cancel is O(1), cancelling a fired or
// cancelled timer is a no-op, and equal deadlines fire in insertion order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>

#include "netsim/event_queue.h"

namespace jqos::net {

using Clock = std::chrono::steady_clock;
using TimerId = netsim::EventId;

class EventLoop {
 public:
  using IoCallback = std::function<void(std::uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Watches `fd` for the given epoll event mask (EPOLLIN etc.).
  void add_fd(int fd, std::uint32_t events, IoCallback cb);
  void remove_fd(int fd);

  TimerId add_timer(std::chrono::milliseconds delay, netsim::EventFn cb);
  void cancel_timer(TimerId id) { timers_.cancel(id); }

  // Runs until stop() is called and no work remains.
  void run();
  void stop() { stopped_ = true; }

  // Processes at most one epoll wake-up + due timers; returns false when
  // there is nothing left to wait for.
  bool run_once(std::chrono::milliseconds max_wait);

 private:
  // Microseconds since construction: the timer queue's clock.
  SimTime now_us() const;

  int epoll_fd_ = -1;
  bool stopped_ = false;
  const Clock::time_point start_ = Clock::now();
  std::map<int, IoCallback> io_callbacks_;
  netsim::EventQueue timers_;
};

}  // namespace jqos::net
