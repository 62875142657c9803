#include "mop/window.h"

#include <algorithm>
#include <limits>

namespace rumor {

uint64_t AggMemberSpec::Signature() const {
  uint64_t h = Mix64(static_cast<uint64_t>(fn));
  h = HashCombine(h, static_cast<uint64_t>(attr));
  for (int g : group_by) h = HashCombine(h, static_cast<uint64_t>(g));
  h = HashCombine(h, static_cast<uint64_t>(window));
  return h;
}

// --- group key table -----------------------------------------------------------

size_t GroupKeyTable::KeyHash::operator()(const std::vector<Value>& key) const {
  uint64_t h = Mix64(key.size());
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}

int32_t GroupKeyTable::Acquire(const Tuple& t) {
  scratch_.clear();
  for (int g : group_by_) scratch_.push_back(t.at(g));
  auto [it, inserted] = ids_.try_emplace(scratch_);
  Slot& slot = it->second;
  if (inserted) {
    if (free_.empty()) {
      slot.id = static_cast<int32_t>(keys_.size());
      keys_.push_back(nullptr);
    } else {
      slot.id = free_.back();
      free_.pop_back();
    }
    keys_[slot.id] = &*it;
  }
  ++slot.refs;
  return slot.id;
}

void GroupKeyTable::Release(int32_t id) {
  if (--keys_[id]->second.refs > 0) return;
  ids_.erase(ids_.find(keys_[id]->first));
  keys_[id] = nullptr;
  free_.push_back(id);
}

int32_t GroupKeyTable::Find(std::span<const Value> key) const {
  auto it = ids_.find(std::vector<Value>(key.begin(), key.end()));
  return it == ids_.end() ? -1 : it->second.id;
}

int64_t GroupKeyTable::ApproxBytes() const {
  // Hash-node bookkeeping estimate (pointers, hash, allocator rounding).
  constexpr size_t kNodeOverhead = 48;
  return static_cast<int64_t>(
      (scratch_.capacity() + ids_.size() * group_by_.size()) * sizeof(Value) +
      ids_.size() * (kNodeOverhead + sizeof(Map::value_type)) +
      ids_.bucket_count() * sizeof(void*) +
      keys_.capacity() * sizeof(Map::value_type*) +
      free_.capacity() * sizeof(int32_t));
}

// --- shared aggregation engine ---------------------------------------------------

SharedAggEngine::SharedAggEngine(std::vector<AggMemberSpec> members,
                                 bool fragment)
    : members_(std::move(members)),
      states_(members_.size()),
      explicit_until_(fragment ? std::numeric_limits<int64_t>::max() : 0),
      fragment_(fragment),
      extrema_(!members_.empty() && (members_[0].fn == AggFn::kMin ||
                                     members_[0].fn == AggFn::kMax)),
      is_min_(!members_.empty() && members_[0].fn == AggFn::kMin) {
  RUMOR_CHECK(!members_.empty());
  for (int m = 0; m < num_members(); ++m) {
    RUMOR_CHECK(members_[m].fn == members_[0].fn &&
                members_[m].attr == members_[0].attr)
        << "shared aggregation requires identical fn and attribute";
    RUMOR_CHECK(members_[m].window > 0) << "aggregate window must be positive";
    states_[m].table = TableFor(members_[m].group_by);
  }
  RebuildQueues();
}

int SharedAggEngine::TableFor(const std::vector<int>& group_by) {
  for (size_t k = 0; k < tables_.size(); ++k) {
    if (tables_[k].group_by() == group_by) return static_cast<int>(k);
  }
  // A new GROUP BY list: re-lay the id log with one more id per entry.
  tables_.emplace_back(group_by);
  const size_t n = tables_.size();
  Ring<int32_t> ids;
  for (size_t i = 0; i < log_.size(); ++i) {
    for (size_t k = 0; k + 1 < n; ++k) ids.push_back(ids_[i * (n - 1) + k]);
    ids.push_back(tables_.back().Acquire(log_[i].tuple));
  }
  ids_ = std::move(ids);
  return static_cast<int>(n - 1);
}

void SharedAggEngine::Append(const Tuple& t, const BitVector* membership) {
  const int64_t abs = end();
  RUMOR_DCHECK(log_.empty() || log_.back().tuple.ts() <= t.ts())
      << "aggregate input out of timestamp order";
  log_.push_back(
      Entry{t, members_[0].attr >= 0 ? t.at(members_[0].attr) : Value()});
  for (GroupKeyTable& table : tables_) ids_.push_back(table.Acquire(t));
  if (abs < explicit_until_) {
    memberships_.push_back(membership != nullptr
                               ? *membership
                               : BitVector::AllOnes(num_members()));
  }
  if (extrema_) PushExtremum(abs);
}

void SharedAggEngine::Apply(MemberState& st, int64_t abs, int sign) {
  const int32_t g = id(abs, st.table);
  if (static_cast<size_t>(g) >= st.acc.size()) {
    st.acc.resize(tables_[st.table].capacity());
  }
  Acc& acc = st.acc[g];
  const Value& v = entry(abs).value;
  acc.count += sign;
  if (members_[0].fn != AggFn::kCount) {
    // A string reaches neither sum: CheckQueryTypes refuses SUM and AVG of
    // strings, and MIN and MAX read the extrema queues.
    if (v.type() == ValueType::kInt) {
      acc.isum = sign > 0 ? WrappingAdd(acc.isum, v.AsInt())
                          : WrappingSub(acc.isum, v.AsInt());
    } else if (v.IsNumeric()) {
      acc.dsum += sign * v.ToNumeric();
      acc.double_count += sign;
      // Drop the accumulated floating-point residue once no double entry is
      // left in the window, so the sum reverts to the exact integer form
      // instead of drifting (and staying double) forever.
      if (acc.double_count == 0) acc.dsum = 0.0;
    }
  }
  if (acc.count == 0) acc = Acc{};  // the group left the window
}

bool SharedAggEngine::Step(int m, Timestamp now, const BitVector* membership,
                           Value* result) {
  MemberState& st = states_[m];
  const int64_t newest = end() - 1;
  if (!st.active) {
    // Deactivated members hold no state and must not pin the shared log.
    st.cursor = newest + 1;
    return false;
  }
  // Expire entries that left this member's window: ts <= now - window,
  // that is ts < now - (window - 1), as the window is positive.
  const Timestamp kept = WindowStart(now, members_[m].window - 1);
  while (st.cursor < newest && entry(st.cursor).tuple.ts() < kept) {
    if (Has(m, st.cursor)) Apply(st, st.cursor, -1);
    ++st.cursor;
  }
  if (membership != nullptr && !membership->Test(m)) return false;
  Apply(st, newest, +1);
  *result = Extract(m, id(newest, st.table));
  return true;
}

Value SharedAggEngine::Extract(int m, int32_t g) const {
  const MemberState& st = states_[m];
  const Acc& acc = st.acc[g];
  switch (members_[0].fn) {
    case AggFn::kCount:
      return Value(acc.count);
    case AggFn::kSum:
      if (acc.double_count > 0) return Value(acc.dsum + acc.isum);
      return Value(acc.isum);
    case AggFn::kAvg:
      return Value((acc.dsum + static_cast<double>(acc.isum)) /
                   static_cast<double>(acc.count));
    case AggFn::kMin:
    case AggFn::kMax: {
      // Queue items are in log order and the newest entry is the last, so
      // the first item at or after the cursor is the window's extremum.
      const ExtremaQueue& q = queues_[filtered() ? m : st.table][g];
      size_t lo = 0, hi = q.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (q[mid].abs < st.cursor) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return q[lo].value;
    }
  }
  return Value();
}

void SharedAggEngine::PushExtremum(int64_t abs) {
  const Value& v = entry(abs).value;
  const bool filtered = this->filtered();
  for (size_t o = 0; o < queues_.size(); ++o) {
    const int owner = static_cast<int>(o);  // a member or a key table
    if (filtered && (!states_[owner].active || !Has(owner, abs))) continue;
    const int table = filtered ? states_[owner].table : owner;
    const int32_t g = id(abs, table);
    std::vector<ExtremaQueue>& by_id = queues_[o];
    if (static_cast<size_t>(g) >= by_id.size()) {
      by_id.resize(tables_[table].capacity());
    }
    // Items the new value beats can never be a window's extremum again;
    // equal ones stay, so the oldest of equal values wins.
    ExtremaQueue& q = by_id[g];
    while (!q.empty() && (is_min_ ? v < q.back().value : q.back().value < v)) {
      q.pop_back();
    }
    q.push_back(Extremum{abs, v});
  }
}

void SharedAggEngine::RebuildQueues() {
  queues_.assign(filtered() ? members_.size() : tables_.size(), {});
  if (!extrema_) return;
  for (int64_t abs = base_; abs < end(); ++abs) PushExtremum(abs);
}

void SharedAggEngine::Trim() {
  int64_t keep = end();
  for (const MemberState& st : states_) keep = std::min(keep, st.cursor);
  while (base_ < keep) {
    if (extrema_) {
      // Queues hold log entries only; the entry leaving is a queue front.
      for (size_t owner = 0; owner < queues_.size(); ++owner) {
        const int table =
            filtered() ? states_[owner].table : static_cast<int>(owner);
        const size_t g = id(base_, table);
        if (g >= queues_[owner].size()) continue;
        ExtremaQueue& q = queues_[owner][g];
        if (!q.empty() && q.front().abs == base_) q.pop_front();
      }
    }
    for (GroupKeyTable& table : tables_) {
      table.Release(ids_.front());
      ids_.pop_front();
    }
    if (filtered()) memberships_.pop_front();
    log_.pop_front();
    // The last entry with a membership left: members share queues again.
    if (++base_ == explicit_until_) RebuildQueues();
  }
}

int SharedAggEngine::Backfill(int m) {
  MemberState& st = states_[m];
  const size_t tables = tables_.size();
  st.table = TableFor(members_[m].group_by);
  st.cursor = end();
  // Retained entries inside the member's window (relative to the newest
  // logged timestamp) are applied in log order, as live processing would.
  int backfilled = 0;
  for (int64_t abs = base_; abs < end(); ++abs) {
    if (entry(abs).tuple.ts() <
        WindowStart(log_.back().tuple.ts(), members_[m].window - 1)) {
      continue;
    }
    if (backfilled++ == 0) st.cursor = abs;
    if (abs < explicit_until_) {
      BitVector& bits = memberships_[abs - base_];
      if (bits.size() < num_members()) bits.Resize(num_members());
      bits.Set(m);
    }
    Apply(st, abs, +1);
  }
  if (filtered() || tables_.size() != tables) RebuildQueues();
  return backfilled;
}

int SharedAggEngine::AddMember(const AggMemberSpec& spec) {
  members_.push_back(spec);
  states_.emplace_back();
  states_.back().active = false;
  return ReuseMember(num_members() - 1, spec);
}

void SharedAggEngine::DeactivateMember(int member) {
  RUMOR_DCHECK(member >= 0 && member < num_members());
  MemberState& st = states_[member];
  st.active = false;
  st.acc = {};
  st.cursor = end();
  if (filtered()) queues_[member] = {};
}

int SharedAggEngine::FindInactiveMember() const {
  for (int m = 0; m < num_members(); ++m) {
    if (!states_[m].active) return m;
  }
  return -1;
}

int SharedAggEngine::ReuseMember(int member, const AggMemberSpec& spec) {
  RUMOR_CHECK(member >= 0 && member < num_members());
  RUMOR_CHECK(!states_[member].active) << "slot is still in use";
  RUMOR_CHECK(spec.fn == members_[0].fn && spec.attr == members_[0].attr)
      << "shared aggregation requires identical fn and attribute";
  RUMOR_CHECK(spec.window > 0) << "aggregate window must be positive";
  members_[member] = spec;
  states_[member].active = true;
  return Backfill(member);
}

size_t SharedAggEngine::group_count(int member) const {
  size_t n = 0;
  for (const Acc& acc : states_[member].acc) n += acc.count > 0;
  return n;
}

size_t SharedAggEngine::key_count() const {
  size_t n = 0;
  for (const GroupKeyTable& table : tables_) n += table.live();
  return n;
}

void SharedAggEngine::ExtractState(AggEngineState* out) const {
  out->entries.clear();
  out->members.assign(members_.size(), AggMemberState{});
  for (int64_t abs = base_; abs < end(); ++abs) {
    BitVector live(num_members());
    for (int m = 0; m < num_members(); ++m) {
      const MemberState& st = states_[m];
      if (st.active && abs >= st.cursor && Has(m, abs)) live.Set(m);
    }
    if (live.None()) continue;  // fully expired; nothing left to retract
    const Entry& e = entry(abs);
    AggLogEntry saved;
    saved.ts = e.tuple.ts();
    saved.value = e.value;
    saved.tuple.ts = e.tuple.ts();
    saved.tuple.values.assign(e.tuple.values().begin(),
                              e.tuple.values().end());
    saved.membership = std::move(live);
    out->entries.push_back(std::move(saved));
  }

  for (int m = 0; m < num_members(); ++m) {
    AggMemberState& member = out->members[m];
    // The cursor is derivable (first set bit); stored for readability only.
    member.cursor = static_cast<int64_t>(out->entries.size());
    for (size_t i = 0; i < out->entries.size(); ++i) {
      if (out->entries[i].membership.Test(m)) {
        member.cursor = static_cast<int64_t>(i);
        break;
      }
    }
    const MemberState& st = states_[m];
    for (size_t g = 0; g < st.acc.size(); ++g) {
      const Acc& acc = st.acc[g];
      if (acc.count == 0) continue;
      std::span<const Value> key = tables_[st.table].key(g);
      member.groups.push_back(AggGroupState{
          {key.begin(), key.end()}, acc.count, acc.isum, acc.double_count,
          acc.dsum});
    }
  }
}

Status SharedAggEngine::LoadState(const AggEngineState& state,
                                  const std::vector<int>& src_members) {
  if (!log_.empty()) {
    return Status::Internal("aggregate state restore needs an empty engine");
  }
  const int n = num_members();
  if (src_members.size() != static_cast<size_t>(n)) {
    return Status::Internal("aggregate member mapping size mismatch");
  }
  int width = members_[0].attr + 1;
  for (const AggMemberSpec& spec : members_) {
    for (int g : spec.group_by) width = std::max(width, g + 1);
  }

  // The saved entries that at least one restored member still needs, with
  // their memberships mapped onto the restored members.
  std::vector<const AggLogEntry*> kept;
  std::vector<BitVector> bits;
  std::vector<char> seen(n, 0);
  bool suffixes = true;  // each member's entries run to the end of the log
  for (const AggLogEntry& saved : state.entries) {
    BitVector b(n);
    for (int r = 0; r < n; ++r) {
      const int s = src_members[r];
      if (states_[r].active && s >= 0 && s < saved.membership.size() &&
          saved.membership.Test(s)) {
        b.Set(r);
      }
    }
    if (b.None()) continue;
    if (static_cast<int>(saved.tuple.values.size()) < width ||
        (!kept.empty() && saved.ts < kept.back()->ts)) {
      return Status::InvalidArgument(
          "snapshot aggregate state inconsistent: malformed log entry");
    }
    for (int r = 0; r < n; ++r) {
      if (b.Test(r)) {
        seen[r] = 1;
      } else if (seen[r]) {
        suffixes = false;
      }
    }
    kept.push_back(&saved);
    bits.push_back(std::move(b));
  }
  // Otherwise (e.g. logs merged from several shards) the entries keep their
  // memberships until they leave the log.
  if (!suffixes && !fragment_) {
    explicit_until_ = base_ + static_cast<int64_t>(kept.size());
  }
  RebuildQueues();
  for (MemberState& st : states_) st.cursor = base_ + kept.size();
  for (size_t i = 0; i < kept.size(); ++i) {
    const int64_t abs = end();
    Append(Tuple::Make(kept[i]->tuple.values, kept[i]->ts), &bits[i]);
    // Replay each member's entries to rebuild its group counts.
    bits[i].ForEach([&](int r) {
      states_[r].cursor = std::min(states_[r].cursor, abs);
      Apply(states_[r], abs, +1);
    });
  }
  // Cross-check the counts, then adopt the saved bit-exact numerics.
  for (int r = 0; r < n; ++r) {
    MemberState& st = states_[r];
    const int s = src_members[r];
    if (!st.active || s < 0) continue;
    if (s >= static_cast<int>(state.members.size())) {
      return Status::Internal("aggregate member mapping out of range");
    }
    const std::vector<AggGroupState>& saved_groups = state.members[s].groups;
    if (group_count(r) != saved_groups.size()) {
      return Status::InvalidArgument(
          "snapshot aggregate state inconsistent: replayed group count "
          "does not match the saved accumulators");
    }
    for (const AggGroupState& g : saved_groups) {
      const int32_t gid = tables_[st.table].Find(g.key);
      if (gid < 0 || static_cast<size_t>(gid) >= st.acc.size() ||
          st.acc[gid].count != g.count) {
        return Status::InvalidArgument(
            "snapshot aggregate state inconsistent: saved group does not "
            "match the saved log");
      }
      st.acc[gid] = Acc{g.count, g.isum, g.dsum, g.double_count};
    }
  }
  return Status::OK();
}

int64_t SharedAggEngine::ApproxBytes() const {
  int64_t b = static_cast<int64_t>(log_.capacity() * sizeof(Entry) +
                                   ids_.capacity() * sizeof(int32_t) +
                                   memberships_.capacity() * sizeof(BitVector));
  for (const GroupKeyTable& table : tables_) b += table.ApproxBytes();
  for (const MemberState& st : states_) {
    b += static_cast<int64_t>(st.acc.capacity() * sizeof(Acc));
  }
  for (const std::vector<ExtremaQueue>& by_id : queues_) {
    b += static_cast<int64_t>(by_id.capacity() * sizeof(ExtremaQueue));
    for (const ExtremaQueue& q : by_id) {
      b += static_cast<int64_t>(q.capacity() * sizeof(Extremum));
    }
  }
  return b;
}

}  // namespace rumor
