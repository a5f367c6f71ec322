// An open-addressing hash map over one vector, for per-packet indexes that
// must not touch the global allocator in steady state (docs/MEMORY.md). A
// node-based unordered_map allocates and frees a node per insert/erase; this
// table doubles up to its high-water capacity once and then recycles its
// slots in place.
//
// Linear probing on a power-of-two table; erase shifts the rest of the probe
// chain back (Knuth's Algorithm R) instead of leaving tombstones, so lookups
// never slow down with churn. The table is empty -- no storage -- until the
// first insert, so building an owner costs nothing.
//
// Pointers returned by find / try_emplace are invalidated by the next insert
// or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace jqos {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* find(const K& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  // The value for `key`, value-initialized if it was absent; `second` is
  // true iff it was inserted.
  std::pair<V*, bool> try_emplace(const K& key) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, V{}, true};
    ++size_;
    return {&slots_[i].value, true};
  }

  bool erase(const K& key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (; !(slots_[hole].used && slots_[hole].key == key); hole = next(hole)) {
      if (!slots_[hole].used) return false;
    }
    // Pull back every later entry of the chain that may sit in the hole:
    // one whose home is NOT cyclically in (hole, j] would be cut off from
    // its home by the hole.
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      const std::size_t mask = slots_.size() - 1;
      const std::size_t from_hole_to_home = (home(slots_[j].key) - hole) & mask;
      const std::size_t from_hole_to_j = (j - hole) & mask;
      if (from_hole_to_home != 0 && from_hole_to_home <= from_hole_to_j) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Drops every entry; keeps the storage.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };

  // Fibonacci hashing over the caller's hash: the top bits of the product
  // mix even an identity hash (small integer ids) across the table.
  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(old.empty() ? 16 : old.size() * 2);
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity).
};

}  // namespace jqos
