// PredicateIndexMop — target of rule sσ (paper §2.4): a set of selections
// reading the same stream, evaluated with predicate indexing [Fabret 01,
// CACQ]. Members whose predicate contains an `attr = const` conjunct are
// grouped into per-attribute hash indexes (const -> bucket of members); a
// probe plus a per-member residual check replaces evaluating every
// predicate. Members without an indexable equality fall back to sequential
// evaluation.
//
// Layout (after [Fabret 01], which keeps each equality cluster's
// subscriptions contiguous): a bucket is one array of 16-byte entries, each
// the member id plus its residual's fused `attr <op> int` compare inline
// (Program::fused()), so a probe reads one short run of memory. A residual
// that is not fused, or a fused one meeting a non-int value, runs its
// Program from a side array parallel to the bucket. Constants map to
// bucket ids through a FlatInt64Map (a Mix64 + linear scan, no Value
// hashing) for int probes while every constant of the index is an int, and
// through the authoritative Value map otherwise, whose numeric equality
// matches 3 against 3.0.
//
// A tuple's matches are a list of member ids in ascending order, as
// one-by-one evaluation emits them: buckets and the sequential list stay
// sorted by member id, so the list is sorted only when two attribute
// indexes, or an index and the sequential members, both add to it.
//
// A deactivated member's bucket entry and residual, or its sequential entry,
// are erased (Mop::DeactivateMember), so probes never meet it.
//
// This same m-op is what the Cayuga FR and AN indexes translate to in RUMOR
// (paper §4.3).
#ifndef RUMOR_MOP_PREDICATE_INDEX_MOP_H_
#define RUMOR_MOP_PREDICATE_INDEX_MOP_H_

#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "expr/program.h"
#include "mop/selection_mop.h"

namespace rumor {

class PredicateIndexMop : public Mop {
 public:
  // All members read slot 0 of the single input channel.
  PredicateIndexMop(std::vector<SelectionDef> members, OutputMode mode);

  int num_members() const override {
    return static_cast<int>(members_.size());
  }
  uint64_t MemberSignature(int i) const override {
    return members_[i].Signature();
  }
  const SelectionDef& member(int i) const { return members_[i]; }
  OutputMode output_mode() const { return mode_; }

  // Number of members served by hash indexes (observability / tests).
  int num_indexed_members() const { return num_indexed_; }
  // Probe fast-path efficacy: probes answered by the flat int table vs the
  // Value map (compiled out under RUMOR_METRICS=OFF).
  int64_t flat_probes() const { return flat_probes_; }
  int64_t map_probes() const { return map_probes_; }

  // Attaches a member selection (online query churn: a new query's σ snaps
  // onto the warm index; selections are stateless, so this is always safe)
  // in the lowest inactive slot, whose port keeps its channel, or else in a
  // new slot with, in per-member-ports mode, a new output port.
  MemberAttach AttachMember(SelectionDef def);
  bool DeactivateMember(int i) override;
  bool member_active(int i) const override { return active_[i] != 0; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;
  void ProcessBatch(int input_port, const ChannelTuple* tuples, size_t n,
                    Emitter& out) override;

  // Buckets, both constant tables, and the heap of every residual and
  // sequential Program.
  int64_t StateBytes() const override;

 private:
  // How a bucket entry checks its member's residual.
  enum class Check : uint8_t {
    kNone,     // no residual: a probe hit matches
    kFused,    // `attr <op> constant` inline; the Program on a non-int value
    kProgram,  // the member's Program
  };
  struct Entry {
    int64_t constant;  // kFused only
    int32_t member;
    uint16_t attr;     // kFused only
    OpCode op;         // kFused only
    Check check;
  };
  static_assert(sizeof(Entry) == 16);
  struct AttrIndex {
    int attr = -1;
    std::vector<std::vector<Entry>> buckets;
    // residuals[b][k] is the residual of buckets[b][k] (empty when none).
    // Kept per bucket, not in one array indexed by member id: an array that
    // large, reallocated on every live add, raised query_churn's peak RSS
    // by 2.5%.
    std::vector<std::vector<Program>> residuals;
    // Authoritative constant -> bucket id table. An emptied bucket stays
    // mapped, as in `flat`: both grow with the distinct constants seen.
    std::unordered_map<Value, int32_t> by_value;
    // Int constant -> bucket id, kept while every constant is an int.
    bool all_int = true;
    FlatInt64Map flat;
  };
  struct SequentialMember {
    int32_t member;
    Program program;  // full predicate
  };

  // Routes member `i` into the hash indexes or the sequential list.
  void IndexMember(int i);

  // Bucket id of the members whose constant equals `v`, or -1. Defined
  // inline: this is the innermost per-tuple operation. Non-static so the
  // probe-efficacy counters can live on the m-op.
  int32_t Probe(const AttrIndex& index, const Value& v) {
    if (index.all_int && v.type() == ValueType::kInt) {
      RUMOR_METRIC(++flat_probes_);
      return index.flat.Find(v.AsIntUnchecked());
    }
    RUMOR_METRIC(++map_probes_);
    auto it = index.by_value.find(v);
    return it == index.by_value.end() ? -1 : it->second;
  }
  // Appends the indexed members `tuple` matches to matched_; returns how
  // many attribute indexes added to it.
  int MatchIndexed(const Tuple& tuple);
  // Emits `tuple` for matched_, sorting it first when `sources` > 1.
  void EmitMatched(int sources, const Tuple& tuple, Emitter& out);

  std::vector<SelectionDef> members_;
  std::vector<char> active_;         // by member
  std::vector<int32_t> free_slots_;  // inactive members, a min-heap
  std::vector<AttrIndex> indexes_;
  std::vector<SequentialMember> sequential_;  // ascending member ids
  int num_indexed_ = 0;
  OutputMode mode_;
  int64_t flat_probes_ = 0;
  int64_t map_probes_ = 0;

  // Recycled per-tuple/batch scratch (never shrinks; allocation-free in
  // steady state): the tuple's matched member ids, channel-mode membership,
  // and in ProcessBatch the sequential members' masks and their per-tuple
  // lists (tuple j's matches are seq_matches_[seq_offsets_[j] ..
  // seq_offsets_[j + 1])).
  std::vector<int32_t> matched_;
  BitVector membership_scratch_;
  std::vector<BitVector> seq_masks_;
  std::vector<int32_t> seq_offsets_;
  std::vector<int32_t> seq_matches_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_PREDICATE_INDEX_MOP_H_
