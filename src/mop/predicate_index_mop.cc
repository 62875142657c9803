#include "mop/predicate_index_mop.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "expr/shape.h"

namespace rumor {
namespace {

// Position of member `i` in `entries`, which ascend by member id, or where
// it keeps them ascending: the end for a member past every other (the
// construction path), else found by binary search.
template <typename T>
size_t AscendingPos(const std::vector<T>& entries, int32_t i) {
  if (entries.empty() || entries.back().member < i) return entries.size();
  return std::lower_bound(entries.begin(), entries.end(), i,
                          [](const T& e, int32_t m) { return e.member < m; }) -
         entries.begin();
}

}  // namespace

PredicateIndexMop::PredicateIndexMop(std::vector<SelectionDef> members,
                                     OutputMode mode)
    : Mop(MopType::kPredicateIndex, /*num_inputs=*/1,
          /*num_outputs=*/mode == OutputMode::kChannel
              ? 1
              : static_cast<int>(members.size())),
      members_(std::move(members)),
      active_(members_.size(), 1),
      mode_(mode) {
  RUMOR_CHECK(!members_.empty());
  for (int i = 0; i < static_cast<int>(members_.size()); ++i) {
    IndexMember(i);
  }
}

void PredicateIndexMop::IndexMember(int i) {
  SelectionShape shape = AnalyzeSelection(members_[i].predicate);
  if (!shape.equality.has_value()) {
    sequential_.insert(sequential_.begin() + AscendingPos(sequential_, i),
                       {i, Program::Compile(members_[i].predicate)});
    return;
  }
  ++num_indexed_;
  Entry entry{0, i, 0, OpCode::kEq, Check::kNone};
  Program residual;
  if (shape.residual != nullptr) {
    residual = Program::Compile(shape.residual);
    const std::optional<FusedCompare>& fused = residual.fused();
    if (fused && fused->attr <= std::numeric_limits<uint16_t>::max()) {
      entry = Entry{fused->constant, i, static_cast<uint16_t>(fused->attr),
                    fused->op, Check::kFused};
    } else {
      entry.check = Check::kProgram;
    }
  }
  AttrIndex* index = nullptr;
  for (AttrIndex& ai : indexes_) {
    if (ai.attr == shape.equality->attr) {
      index = &ai;
      break;
    }
  }
  if (index == nullptr) {
    index = &indexes_.emplace_back();
    index->attr = shape.equality->attr;
  }
  const Value& constant = shape.equality->constant;
  const auto [it, inserted] = index->by_value.try_emplace(
      constant, static_cast<int32_t>(index->buckets.size()));
  if (inserted) {
    index->buckets.emplace_back();
    index->residuals.emplace_back();
    if (index->all_int && constant.type() == ValueType::kInt) {
      index->flat.Insert(constant.AsIntUnchecked(), it->second);
    } else if (index->all_int) {
      // A non-int constant can numerically alias an int probe (3.0 vs 3);
      // the flat table cannot see that, so the index reverts to the map.
      index->all_int = false;
      index->flat.clear();
    }
  }
  std::vector<Entry>& bucket = index->buckets[it->second];
  const size_t pos = AscendingPos(bucket, i);
  bucket.insert(bucket.begin() + pos, entry);
  std::vector<Program>& residuals = index->residuals[it->second];
  residuals.insert(residuals.begin() + pos, std::move(residual));
}

MemberAttach PredicateIndexMop::AttachMember(SelectionDef def) {
  MemberAttach at{num_members(), !free_slots_.empty()};
  if (at.reused_slot) {
    std::pop_heap(free_slots_.begin(), free_slots_.end(), std::greater<>());
    at.member = free_slots_.back();
    free_slots_.pop_back();
    members_[at.member] = std::move(def);
    active_[at.member] = 1;
  } else {
    members_.push_back(std::move(def));
    active_.push_back(1);
    if (mode_ == OutputMode::kPerMemberPorts) {
      set_num_outputs(num_outputs() + 1);
    }
  }
  IndexMember(at.member);
  return at;
}

bool PredicateIndexMop::DeactivateMember(int i) {
  RUMOR_CHECK(member_active(i)) << "member " << i << " is already inactive";
  // The predicate decomposes as it did when IndexMember placed it.
  const SelectionShape shape = AnalyzeSelection(members_[i].predicate);
  if (!shape.equality.has_value()) {
    sequential_.erase(sequential_.begin() + AscendingPos(sequential_, i));
  } else {
    for (AttrIndex& index : indexes_) {
      if (index.attr != shape.equality->attr) continue;
      const int32_t b = index.by_value.at(shape.equality->constant);
      const size_t pos = AscendingPos(index.buckets[b], i);
      index.buckets[b].erase(index.buckets[b].begin() + pos);
      index.residuals[b].erase(index.residuals[b].begin() + pos);
    }
    --num_indexed_;
  }
  active_[i] = 0;
  free_slots_.push_back(i);
  std::push_heap(free_slots_.begin(), free_slots_.end(), std::greater<>());
  return true;
}

int64_t PredicateIndexMop::StateBytes() const {
  constexpr int64_t kNodeOverhead = 48;  // unordered_map node estimate
  int64_t b = 0;
  for (const AttrIndex& index : indexes_) {
    b += static_cast<int64_t>(index.buckets.capacity() *
                              sizeof(index.buckets[0]));
    for (const std::vector<Entry>& bucket : index.buckets) {
      b += static_cast<int64_t>(bucket.capacity() * sizeof(Entry));
    }
    b += static_cast<int64_t>(index.residuals.capacity() *
                              sizeof(index.residuals[0]));
    for (const std::vector<Program>& programs : index.residuals) {
      b += static_cast<int64_t>(programs.capacity() * sizeof(Program));
      for (const Program& p : programs) b += p.ApproxBytes();
    }
    b += static_cast<int64_t>(index.by_value.size()) *
             (kNodeOverhead + static_cast<int64_t>(sizeof(Value))) +
         static_cast<int64_t>(index.by_value.bucket_count() * sizeof(void*));
    b += index.flat.ApproxBytes();
  }
  b += static_cast<int64_t>(sequential_.capacity() *
                            sizeof(SequentialMember));
  for (const SequentialMember& sm : sequential_) {
    b += sm.program.ApproxBytes();
  }
  return b;
}

int PredicateIndexMop::MatchIndexed(const Tuple& tuple) {
  int sources = 0;
  int64_t fused = 0;
  for (const AttrIndex& index : indexes_) {
    const int32_t b = Probe(index, tuple.at(index.attr));
    if (b < 0) continue;
    const std::vector<Entry>& bucket = index.buckets[b];
    const size_t before = matched_.size();
    for (const Entry& e : bucket) {
      bool hit = true;
      if (e.check == Check::kFused &&
          tuple.at(e.attr).type() == ValueType::kInt) {
        ++fused;
        hit = CompareInts(e.op, tuple.at(e.attr).AsIntUnchecked(), e.constant);
      } else if (e.check != Check::kNone) {
        const Program& residual = index.residuals[b][&e - bucket.data()];
        hit = residual.EvalBool(ExprContext{&tuple, nullptr});
      }
      if (hit) matched_.push_back(e.member);
    }
    sources += matched_.size() > before ? 1 : 0;
  }
  RUMOR_METRIC(internal::tl_program_counters.fused += fused);
  (void)fused;
  return sources;
}

void PredicateIndexMop::EmitMatched(int sources, const Tuple& tuple,
                                    Emitter& out) {
  if (matched_.empty()) return;
  if (sources > 1) std::sort(matched_.begin(), matched_.end());
  if (mode_ == OutputMode::kChannel) {
    membership_scratch_.AssignZero(num_members());
    for (int32_t m : matched_) membership_scratch_.Set(m);
    out.Emit(0, ChannelTuple{tuple, membership_scratch_});
    CountOut(1);
    return;
  }
  for (int32_t m : matched_) {
    out.Emit(m, ChannelTuple{tuple, BitVector::Singleton(0, 1)});
  }
  CountOut(static_cast<int64_t>(matched_.size()));
}

void PredicateIndexMop::Process(int input_port, const ChannelTuple& ct,
                                Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  RUMOR_DCHECK(ct.membership.Test(0)) << "sσ members all read slot 0";
  matched_.clear();
  int sources = MatchIndexed(ct.tuple);
  const size_t before = matched_.size();
  const ExprContext ctx{&ct.tuple, nullptr};
  for (const SequentialMember& sm : sequential_) {
    if (sm.program.EvalBool(ctx)) matched_.push_back(sm.member);
  }
  sources += matched_.size() > before ? 1 : 0;
  EmitMatched(sources, ct.tuple, out);
}

void PredicateIndexMop::ProcessBatch(int input_port,
                                     const ChannelTuple* tuples, size_t n,
                                     Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  // Member-major pass over the sequential members (vectorized evaluation),
  // turned into per-tuple lists by a counting sort: count into
  // seq_offsets_[j + 2], prefix-sum, then fill through seq_offsets_[j + 1],
  // which leaves tuple j's list at [seq_offsets_[j], seq_offsets_[j + 1]).
  // Sequential members ascend, so each list does too. Probes and residuals
  // stay tuple-major: residuals must only run on probe-hit tuples, exactly
  // as the scalar path does.
  seq_masks_.resize(sequential_.size());
  seq_offsets_.assign(n + 2, 0);
  for (size_t s = 0; s < sequential_.size(); ++s) {
    sequential_[s].program.EvalBoolBatch(tuples, n, seq_masks_[s]);
    seq_masks_[s].ForEach([&](int j) { ++seq_offsets_[j + 2]; });
  }
  for (size_t j = 2; j < n + 2; ++j) seq_offsets_[j] += seq_offsets_[j - 1];
  seq_matches_.resize(seq_offsets_[n + 1]);
  for (size_t s = 0; s < sequential_.size(); ++s) {
    seq_masks_[s].ForEach([&](int j) {
      seq_matches_[seq_offsets_[j + 1]++] = sequential_[s].member;
    });
  }
  for (size_t j = 0; j < n; ++j) {
    const Tuple& tuple = tuples[j].tuple;
    RUMOR_DCHECK(tuples[j].membership.Test(0)) << "sσ members all read slot 0";
    matched_.clear();
    int sources = MatchIndexed(tuple);
    const int32_t begin = seq_offsets_[j];
    const int32_t end = seq_offsets_[j + 1];
    if (begin < end) {
      matched_.insert(matched_.end(), seq_matches_.begin() + begin,
                      seq_matches_.begin() + end);
      ++sources;
    }
    EmitMatched(sources, tuple, out);
  }
}

}  // namespace rumor
