// KeyedBuffer<T>: an append-only, timestamp-ordered buffer with absolute
// indexing, optional hash index on a key value (the AI-index equivalent),
// in-place kill (consume-on-match), and front expiry. Backs join sides and
// ;/µ instance stores.
#ifndef RUMOR_MOP_KEYED_BUFFER_H_
#define RUMOR_MOP_KEYED_BUFFER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/tuple.h"
#include "common/value.h"

namespace rumor {

// Entries must be added in non-decreasing timestamp order. When `indexed` is
// true, lookups by key touch only the matching hash bucket; expired bucket
// slots are pruned lazily during lookups.
template <typename T>
class KeyedBuffer {
 public:
  explicit KeyedBuffer(bool indexed) : indexed_(indexed) {}

  struct Slot {
    T item;
    Value key;
    Timestamp ts;
    bool alive = true;
  };

  int64_t Add(T item, Value key, Timestamp ts) {
    int64_t abs = base_ + static_cast<int64_t>(slots_.size());
    slots_.push_back(Slot{std::move(item), key, ts, true});
    if (indexed_) index_[slots_.back().key].push_back(abs);
    ++live_;
    return abs;
  }

  // Drops entries with ts < min_ts from the front (they can never match
  // again). Dead (consumed) entries at the front are dropped too.
  void ExpireBefore(Timestamp min_ts) {
    while (!slots_.empty() &&
           (slots_.front().ts < min_ts || !slots_.front().alive)) {
      if (slots_.front().alive) --live_;
      slots_.pop_front();
      ++base_;
    }
  }

  // Marks the entry at absolute index `abs` dead.
  void Kill(int64_t abs) {
    int64_t rel = abs - base_;
    RUMOR_DCHECK(rel >= 0 && rel < static_cast<int64_t>(slots_.size()));
    if (slots_[rel].alive) --live_;
    slots_[rel].alive = false;
  }

  // Visits live slots (optionally only those whose key equals *key when the
  // buffer is indexed). fn(abs_index, Slot&) may mutate the slot's item or
  // kill it via alive=false.
  template <typename Fn>
  void ForCandidates(const Value* key, Fn&& fn) {
    if (indexed_ && key != nullptr) {
      auto it = index_.find(*key);
      if (it == index_.end()) return;
      std::vector<int64_t>& bucket = it->second;
      size_t w = 0;
      for (size_t r = 0; r < bucket.size(); ++r) {
        int64_t abs = bucket[r];
        int64_t rel = abs - base_;
        if (rel < 0) continue;  // expired; prune
        Slot& slot = slots_[rel];
        if (!slot.alive) continue;  // consumed; prune
        bucket[w++] = abs;
        fn(abs, slot);
      }
      bucket.resize(w);
      if (bucket.empty()) index_.erase(it);
      return;
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.alive) fn(base_ + static_cast<int64_t>(i), slot);
    }
  }

  // Visits every live slot in insertion (timestamp) order: fn(const Slot&).
  // Used by checkpointing; consumed and front-expired slots are skipped.
  template <typename Fn>
  void ForAllLive(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.alive) fn(slot);
    }
  }

  // Retained slots (including dead ones not yet dropped from the front).
  size_t size() const { return slots_.size(); }
  // Live (not consumed, not expired-from-front) entries.
  size_t live_size() const { return static_cast<size_t>(live_); }
  bool indexed() const { return indexed_; }

  // Approximate heap bytes of the retained slots and the hash index (tuple
  // payload blocks of stored items are accounted by the TupleArena).
  int64_t ApproxBytes() const {
    int64_t b = static_cast<int64_t>(slots_.size()) * sizeof(Slot);
    for (const auto& [key, bucket] : index_) {
      b += static_cast<int64_t>(sizeof(key)) + kNodeOverhead +
           static_cast<int64_t>(bucket.capacity()) * sizeof(int64_t);
    }
    return b;
  }

 private:
  // Assumed per-node bookkeeping of a hash-map entry (bucket pointer, hash,
  // allocator rounding) for the ApproxBytes estimate.
  static constexpr int64_t kNodeOverhead = 48;

  bool indexed_;
  std::deque<Slot> slots_;
  int64_t base_ = 0;
  int64_t live_ = 0;
  std::unordered_map<Value, std::vector<int64_t>> index_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_KEYED_BUFFER_H_
