// FlatInt64Map: a minimal open-addressing hash map from int64 keys to small
// non-negative int32 payloads (bucket ids), used on probe-per-tuple hot
// paths (predicate indexes) in place of unordered_map<Value, ...> — one
// Mix64, a power-of-two mask, and a short linear probe over a dense array,
// instead of library hashing, modulo, and node chasing.
//
// Insert-only (an emptied predicate-index bucket keeps its constant); no
// erase, no iteration. Not a general-purpose container.
#ifndef RUMOR_COMMON_FLAT_MAP_H_
#define RUMOR_COMMON_FLAT_MAP_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace rumor {

class FlatInt64Map {
 public:
  FlatInt64Map() = default;

  // Inserts key -> value, overwriting an existing mapping. `value` must be
  // >= 0 (negative payloads are reserved for "empty").
  void Insert(int64_t key, int32_t value) {
    RUMOR_DCHECK(value >= 0);
    if ((size_ + 1) * 4 >= capacity() * 3) Grow();
    Slot* slot = FindSlot(slots_.data(), capacity(), key);
    if (slot->value < 0) ++size_;
    slot->key = key;
    slot->value = value;
  }

  // Returns the mapped value, or -1 when absent.
  int32_t Find(int64_t key) const {
    if (slots_.empty()) return -1;
    const Slot* slot = FindSlot(slots_.data(), capacity(), key);
    return slot->value;
  }

  size_t size() const { return size_; }
  // Heap footprint of the slot array (memory accounting).
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(slots_.size() * sizeof(Slot));
  }
  void clear() {
    slots_.clear();
    size_ = 0;
  }

 private:
  struct Slot {
    int64_t key = 0;
    int32_t value = -1;  // -1 = empty
  };

  size_t capacity() const { return slots_.size(); }

  template <typename S>
  static S* FindSlot(S* slots, size_t capacity, int64_t key) {
    const size_t mask = capacity - 1;
    size_t i = Mix64(static_cast<uint64_t>(key)) & mask;
    while (slots[i].value >= 0 && slots[i].key != key) i = (i + 1) & mask;
    return &slots[i];
  }

  void Grow() {
    const size_t new_capacity = capacity() == 0 ? 16 : capacity() * 2;
    std::vector<Slot> grown(new_capacity);
    for (const Slot& s : slots_) {
      if (s.value < 0) continue;
      Slot* slot = FindSlot(grown.data(), new_capacity, s.key);
      *slot = s;
    }
    slots_ = std::move(grown);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace rumor

#endif  // RUMOR_COMMON_FLAT_MAP_H_
