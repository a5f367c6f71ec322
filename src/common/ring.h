// A growable FIFO ring over one vector, for per-packet queues that must not
// touch the global allocator in steady state (docs/MEMORY.md). A deque
// allocates and frees a chunk every few hundred entries of push/pop churn;
// this ring doubles up to its high-water capacity once and then cycles in
// place. Capacity is a power of two, so wrapping the index is a mask.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace jqos {

template <typename T>
class FifoRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Oldest element; only valid when !empty().
  const T& front() const { return slots_[head_]; }
  // The i-th element from the front; only valid when i < size().
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }
  void push_back(const T& v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = v;
    ++size_;
  }
  // Drops every element; keeps the storage.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  // Re-linearizes on growth so head_ starts at 0 in the new storage.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace jqos
