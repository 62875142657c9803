// WindowRouting: the member routing of the window-sharing targets s⋈, s; and
// sµ [Hammad 03]. Their members read the same streams with the same
// predicate and differ only in the window; one state, kept to the widest
// window of an active member, serves all of them. A match whose stored
// partner (⋈) or instance (;, µ) is `age` old goes to exactly the members
// whose window covers that age. Members are sorted by window once, so the
// members covering an age are a suffix of that order, precomputed as one bit
// vector per rank.
#ifndef RUMOR_MOP_WINDOW_ROUTING_H_
#define RUMOR_MOP_WINDOW_ROUTING_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/tuple.h"

namespace rumor {

class WindowRouting {
 public:
  // The window of a ;/µ member without a WITHIN bound. A finite window of
  // INT64_MAX routes the same, as ages saturate there (Covering).
  static constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();

  WindowRouting() = default;
  // windows[i] is member i's window; every member starts active.
  explicit WindowRouting(std::vector<int64_t> windows)
      : windows_(std::move(windows)), active_(windows_.size(), 1) {
    Rebuild();
  }

  bool active(int member) const { return active_[member] != 0; }
  // Stops routing to `member` (its query was removed); the widest window
  // may shrink with it.
  void Deactivate(int member) {
    active_[member] = 0;
    Rebuild();
  }

  // Active members whose window covers a match at `now` with a stored
  // partner or instance from `then`: whose window is >= the age now - then,
  // saturated at INT64_MAX. A partner from after `now` (sources interleave
  // out of timestamp order) is of age 0.
  const BitVector& Covering(Timestamp now, Timestamp then) const {
    int64_t age = 0;
    if (then < now && __builtin_sub_overflow(now, then, &age)) {
      age = std::numeric_limits<int64_t>::max();
    }
    const size_t rank =
        std::lower_bound(sorted_.begin(), sorted_.end(), age) -
        sorted_.begin();
    return rank < suffix_.size() ? suffix_[rank] : none_;
  }

  // The oldest timestamp a state entry may carry and still match an input
  // at `now`; with no active member, nothing before `now` + 1 is kept.
  Timestamp OldestKept(Timestamp now) const {
    if (sorted_.empty()) {
      return now < std::numeric_limits<Timestamp>::max() ? now + 1 : now;
    }
    const int64_t widest = sorted_.back();
    return widest == kUnbounded ? std::numeric_limits<Timestamp>::min()
                                : WindowStart(now, widest);
  }

 private:
  void Rebuild() {
    std::vector<std::pair<int64_t, int>> by_window;
    for (size_t i = 0; i < windows_.size(); ++i) {
      if (active_[i]) by_window.push_back({windows_[i], static_cast<int>(i)});
    }
    std::sort(by_window.begin(), by_window.end());
    const int n = static_cast<int>(windows_.size());
    none_ = BitVector(n);
    sorted_.resize(by_window.size());
    suffix_.assign(by_window.size(), none_);
    BitVector acc(n);
    for (int k = static_cast<int>(by_window.size()) - 1; k >= 0; --k) {
      acc.Set(by_window[k].second);
      sorted_[k] = by_window[k].first;
      suffix_[k] = acc;
    }
  }

  std::vector<int64_t> windows_;
  std::vector<char> active_;
  std::vector<int64_t> sorted_;    // active members' windows, ascending
  std::vector<BitVector> suffix_;  // [k] = active members with window >=
                                   // sorted_[k]
  BitVector none_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_WINDOW_ROUTING_H_
