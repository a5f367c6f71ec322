#include "net/event_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace jqos::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, IoCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("epoll_ctl ADD failed");
  }
  io_callbacks_[fd] = std::move(cb);
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  io_callbacks_.erase(fd);
}

SimTime EventLoop::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count();
}

TimerId EventLoop::add_timer(std::chrono::milliseconds delay, netsim::EventFn cb) {
  return timers_.push(
      now_us() + std::chrono::duration_cast<std::chrono::microseconds>(delay).count(),
      std::move(cb));
}

bool EventLoop::run_once(std::chrono::milliseconds max_wait) {
  if (io_callbacks_.empty() && timers_.empty()) return false;

  int wait_ms = static_cast<int>(max_wait.count());
  if (!timers_.empty()) {
    // Trim the wait to the next live deadline.
    const SimTime until_ms = (timers_.next_time() - now_us()) / 1000;
    wait_ms = static_cast<int>(std::clamp<SimTime>(until_ms, 0, wait_ms));
  }

  std::array<epoll_event, 64> events{};
  const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                             wait_ms);
  for (int i = 0; i < n; ++i) {
    auto it = io_callbacks_.find(events[static_cast<std::size_t>(i)].data.fd);
    if (it != io_callbacks_.end()) it->second(events[static_cast<std::size_t>(i)].events);
  }
  timers_.drain(now_us(), [](SimTime, netsim::EventFn&& fn) { fn(); });
  return true;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_ && run_once(std::chrono::milliseconds(100))) {
  }
}

}  // namespace jqos::net
