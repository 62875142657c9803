// Tuple: an immutable, cheaply-copyable stream tuple — a shared payload of
// attribute values plus a timestamp. Sharing the payload is what makes
// channel encoding pay off space-wise: one payload can represent the "same"
// tuple on many streams.
//
// Representation: the payload is a single heap block (16-byte header +
// Value[width]), reference-counted intrusively and recycled through a
// TupleArena freelist — one pointer bump per copy and zero allocations per
// event in the steady state, vs the two allocations plus atomic refcounts of
// the former shared_ptr<const vector<Value>> payload.
//
// Threading contract: refcounts are plain (non-atomic) and arenas are
// single-threaded — the data plane runs one engine (executor) per thread,
// and tuples must not be shared across threads. Tuple::Make allocates from
// the calling thread's default arena (TupleArena::Default()), so every
// engine on a thread shares one pool; parallel executors get per-thread
// pools for free.
#ifndef RUMOR_COMMON_TUPLE_H_
#define RUMOR_COMMON_TUPLE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/schema.h"
#include "common/value.h"

namespace rumor {

using Timestamp = int64_t;

// The oldest timestamp inside a window of `span` (>= 0) that ends at `now`:
// now - span, or INT64_MIN where that would fall below the timestamp range,
// so such a window expires nothing. The m-ops take every window bound from
// it, so no window arithmetic overflows.
inline Timestamp WindowStart(Timestamp now, int64_t span) {
  Timestamp start;
  return __builtin_sub_overflow(now, span, &start)
             ? std::numeric_limits<Timestamp>::min()
             : start;
}

class TupleArena;

namespace internal {

// Header of a payload block; the Value array follows immediately.
struct PayloadHeader {
  uint32_t refs;
  uint32_t size;      // number of values
  TupleArena* arena;  // where the block returns on last release

  Value* values() { return reinterpret_cast<Value*>(this + 1); }
  const Value* values() const {
    return reinterpret_cast<const Value*>(this + 1);
  }
};
static_assert(sizeof(PayloadHeader) == 16);
static_assert(alignof(PayloadHeader) >= alignof(Value));

}  // namespace internal

// Pool of payload blocks, freelisted by width (schema sizes are small, so a
// direct width-indexed freelist table gives an O(1) schema-width-specialized
// fast path). Not thread-safe; see the Tuple threading contract above.
//
// Lifetime: blocks released after their arena is retired are freed directly,
// and a retired arena self-deletes once its last outstanding block returns —
// so the per-thread default arena can be torn down at thread exit without
// dangling live tuples (e.g. tuples stored in statics destroyed later).
class TupleArena {
 public:
  TupleArena() = default;
  TupleArena(const TupleArena&) = delete;
  TupleArena& operator=(const TupleArena&) = delete;
  // A stack/member arena must outlive every tuple allocated from it.
  ~TupleArena();

  // The calling thread's arena (created on first use, retired at thread
  // exit). This is what Tuple::Make allocates from.
  static TupleArena* Default();

  internal::PayloadHeader* Allocate(uint32_t width);
  void Release(internal::PayloadHeader* block);

  // Blocks handed out and not yet released.
  int64_t outstanding() const { return outstanding_; }
  // Blocks currently parked on the freelists.
  int64_t pooled() const { return pooled_; }
  // Total heap allocations performed (cache-miss measure for benchmarks;
  // steady-state processing should not grow this).
  int64_t allocations() const { return allocations_; }
  // Total Allocate calls; requests not served from a freelist hit the heap.
  int64_t requests() const { return requests_; }
  // Freelist-recycled allocations and their share of all requests — the
  // "allocation-free steady state" measure.
  int64_t recycled() const { return requests_ - allocations_; }
  double recycle_hit_rate() const {
    return requests_ > 0 ? static_cast<double>(recycled()) / requests_ : 0.0;
  }
  // Payload bytes (header + values) in blocks handed out and not yet
  // released / parked on the freelists. Zero under -DRUMOR_METRICS=OFF.
  int64_t bytes_outstanding() const { return bytes_outstanding_; }
  int64_t bytes_pooled() const { return bytes_pooled_; }

 private:
  friend class TupleArenaExitGuard;

  // Frees pooled blocks and marks the arena dead; self-deletes when no
  // blocks are outstanding (otherwise the last Release does).
  void Retire();
  void FreePooled();

  // Widths above this are not pooled (allocated and freed directly).
  static constexpr uint32_t kMaxPooledWidth = 64;
  // Freelist cap per width: beyond this, released blocks are freed, so a
  // one-time burst (a large window draining) cannot pin peak memory
  // forever. 4096 blocks of the widest pooled payload ≈ 4 MB per width.
  static constexpr size_t kMaxPooledPerWidth = 4096;

  std::vector<std::vector<internal::PayloadHeader*>> free_;  // by width
  int64_t outstanding_ = 0;
  int64_t pooled_ = 0;
  int64_t allocations_ = 0;
  int64_t requests_ = 0;
  int64_t bytes_outstanding_ = 0;
  int64_t bytes_pooled_ = 0;
  bool retired_ = false;
#ifndef NDEBUG
  // Guards the single-threaded contract: allocate/release off the owning
  // thread would silently corrupt the non-atomic refcounts and freelists,
  // so debug builds fail deterministically instead.
  void CheckThread();
  uint64_t owner_thread_ = 0;  // 0 = unclaimed
#endif
};

class Tuple {
 public:
  Tuple() = default;
  ~Tuple() {
    if (payload_ != nullptr) Unref();
  }
  Tuple(const Tuple& other) : payload_(other.payload_), ts_(other.ts_) {
    if (payload_ != nullptr) ++payload_->refs;
  }
  Tuple(Tuple&& other) noexcept : payload_(other.payload_), ts_(other.ts_) {
    other.payload_ = nullptr;
  }
  Tuple& operator=(const Tuple& other) {
    if (other.payload_ != nullptr) ++other.payload_->refs;
    if (payload_ != nullptr) Unref();
    payload_ = other.payload_;
    ts_ = other.ts_;
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    std::swap(payload_, other.payload_);
    ts_ = other.ts_;
    return *this;
  }

  // Builds a tuple owning a fresh payload (pooled via the thread arena).
  static Tuple Make(const Value* values, size_t n, Timestamp ts) {
    Tuple t(TupleArena::Default()->Allocate(static_cast<uint32_t>(n)), ts);
    // Trivially copyable: one memcpy, no per-Value construction.
    if (n > 0) {
      __builtin_memcpy(t.payload_->values(), values, n * sizeof(Value));
    }
    return t;
  }
  static Tuple Make(const std::vector<Value>& values, Timestamp ts) {
    return Make(values.data(), values.size(), ts);
  }
  // Convenience for all-int payloads (the benchmark schema): fills the block
  // in place, no intermediate vector<Value>.
  static Tuple MakeInts(const std::vector<int64_t>& ints, Timestamp ts);

  // Allocates an uninitialized payload of `n` values; the caller must fill
  // *out_values[0..n) before the tuple is read (concat/projection builders).
  static Tuple MakeUninit(size_t n, Timestamp ts, Value** out_values) {
    Tuple t(TupleArena::Default()->Allocate(static_cast<uint32_t>(n)), ts);
    *out_values = t.payload_->values();
    return t;
  }

  Timestamp ts() const { return ts_; }
  int size() const {
    return payload_ != nullptr ? static_cast<int>(payload_->size) : 0;
  }
  const Value& at(int i) const {
    RUMOR_DCHECK(payload_ != nullptr && i >= 0 && i < size())
        << "index " << i;
    return payload_->values()[i];
  }
  std::span<const Value> values() const {
    return payload_ != nullptr
               ? std::span<const Value>(payload_->values(), payload_->size)
               : std::span<const Value>();
  }
  // Payload identity (shared-payload checks); null for the empty tuple.
  const Value* payload() const {
    return payload_ != nullptr ? payload_->values() : nullptr;
  }
  bool empty() const { return payload_ == nullptr; }

  // Returns a tuple with the same payload but a new timestamp.
  Tuple WithTimestamp(Timestamp ts) const {
    Tuple t(*this);
    t.ts_ = ts;
    return t;
  }

  // Content equality: same timestamp and same attribute values.
  bool ContentEquals(const Tuple& other) const;

  // Hash of (ts, values); consistent with ContentEquals.
  uint64_t ContentHash() const;

  // e.g. "[ts=3| 1, 2, "x"]".
  std::string ToString() const;

 private:
  Tuple(internal::PayloadHeader* payload, Timestamp ts)
      : payload_(payload), ts_(ts) {}

  void Unref() {
    if (--payload_->refs == 0) payload_->arena->Release(payload_);
  }

  internal::PayloadHeader* payload_ = nullptr;
  Timestamp ts_ = 0;
};

// Concatenates left and right payloads (join/sequence result content).
// The result timestamp is `ts` (callers pass max(l.ts, r.ts) per the
// documented operator semantics).
Tuple ConcatTuples(const Tuple& left, const Tuple& right, Timestamp ts);

}  // namespace rumor

#endif  // RUMOR_COMMON_TUPLE_H_
