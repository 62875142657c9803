// The physical multi-operator (m-op) abstraction — paper §2.2.
//
// An m-op *implements a set of operators* (its members) and is the unit of
// scheduling and execution. Its semantics are defined by the one-by-one
// execution of its members. Compiling a query gives one unmerged m-op per
// operator, with one member; only an m-rule builds an m-op with several.
// Merged m-ops (predicate indexes, shared state, channels) must preserve
// exactly the observable behaviour of one unmerged m-op per member, and the
// test suite checks them against that reference.
//
// Port conventions used throughout this library:
//  * Each m-op has a fixed number of input and output ports; the plan wires
//    each port to a channel.
//  * Unless an m-op documents otherwise, member i writes to output port i
//    (one capacity-1 channel per member), or — in channel-output mode — all
//    members share output port 0 and member i corresponds to slot i of the
//    output channel.
#ifndef RUMOR_MOP_MOP_H_
#define RUMOR_MOP_MOP_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "stream/channel.h"

namespace rumor {

struct MopState;
struct MopStateBinding;

using MopId = int32_t;
inline constexpr MopId kInvalidMop = -1;

enum class MopType : uint8_t {
  kSelection,
  kProjection,
  kAggregate,
  kJoin,
  kSequence,
  kIterate,
  kPredicateIndex,    // sσ target
  kChannelSelect,     // cσ target
  kChannelProject,    // cπ target
  kSharedAggregate,   // sα target
  kFragmentAggregate, // cα target
  kSharedJoin,        // s⋈ target
  kPrecisionJoin,     // c⋈ target
  kSharedSequence,    // s; target
  kChannelSequence,   // c; target
  kSharedIterate,     // sµ target
  kChannelIterate,    // cµ target
  kZip,               // 1:1 pairing of two streams (multi-aggregate rows)
};

const char* MopTypeName(MopType type);

// Receives tuples emitted by an m-op; implemented by the executor.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(int output_port, ChannelTuple tuple) = 0;
};

// Where an attach placed a new member of a shared m-op: a reused inactive
// slot, whose output port keeps its channel, or a new slot at the end.
struct MemberAttach {
  int member = -1;
  bool reused_slot = false;
};

// How a multi-member m-op exposes its member outputs.
enum class OutputMode : uint8_t {
  kPerMemberPorts,  // member i -> output port i (capacity-1 channels)
  kChannel,         // all members -> port 0; member i -> channel slot i
};

class Mop {
 public:
  Mop(MopType type, int num_inputs, int num_outputs)
      : type_(type), num_inputs_(num_inputs), num_outputs_(num_outputs) {}
  virtual ~Mop() = default;
  Mop(const Mop&) = delete;
  Mop& operator=(const Mop&) = delete;

  MopType type() const { return type_; }
  MopId id() const { return id_; }
  void set_id(MopId id) { id_ = id; }
  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }

  // Number of member operators this m-op implements.
  virtual int num_members() const = 0;
  // Definition-only signature of member `i` (predicates, windows, maps —
  // not input identity). Two operators are mergeable by a c-rule only if
  // these match.
  virtual uint64_t MemberSignature(int i) const = 0;

  // Member lifecycle of the shared targets (sσ, sα/cα, s⋈, s;, sµ): a
  // member whose query was removed is deactivated in place. It stops
  // emitting, stops holding state and reads inactive here, so its
  // fingerprint leaves snapshots; sσ and sα attaches reuse its slot.
  // DeactivateMember returns false on m-ops that cannot deactivate members.
  virtual bool member_active(int /*i*/) const { return true; }
  virtual bool DeactivateMember(int /*i*/) { return false; }

  // Processes one tuple arriving on `input_port`.
  virtual void Process(int input_port, const ChannelTuple& tuple,
                       Emitter& out) = 0;

  // Processes a run of consecutive tuples arriving on `input_port`. Must
  // update state and emit exactly as calling Process on each tuple in
  // order would; the default does exactly that. Overrides may amortize
  // per-tuple setup (the batched executor path calls this once per m-op
  // per batch).
  virtual void ProcessBatch(int input_port, const ChannelTuple* tuples,
                            size_t n, Emitter& out) {
    for (size_t i = 0; i < n; ++i) Process(input_port, tuples[i], out);
  }

  // Short display name, e.g. "σ{1,2}" or "µ[3]".
  virtual std::string name() const;

  // Approximate heap bytes of this m-op's *operator state* — buffered window
  // tuples, join/sequence partial matches, aggregation groups, predicate
  // index tables. Stateless m-ops report 0 (the default). Estimates count
  // container footprints (tuple *payload* blocks are accounted by the
  // TupleArena); they are for memory budgeting, not exact accounting.
  virtual int64_t StateBytes() const { return 0; }

  // --- checkpoint/restore ---------------------------------------------------
  // Fills `out` with this m-op's serializable runtime state and returns
  // true. Stateless m-ops return false (the default) and are skipped by the
  // checkpoint. The m-op must be quiescent (no Process in flight).
  virtual bool SaveState(MopState* /*out*/) const { return false; }

  // Loads saved state into this (freshly built, empty) m-op according to
  // `binding` (see mop_state.h). Members without a saved source are left
  // empty. Implemented by exactly the m-ops whose SaveState returns true.
  virtual Status LoadState(const MopState& src, const MopStateBinding& binding);

  // --- lightweight metrics --------------------------------------------------
  // Tuple/batch counters are maintained by the executor (in) and the m-op
  // implementations (out); timing is sampled by the executor. Everything
  // compiles out under -DRUMOR_METRICS=OFF (see common/metrics.h).
  const MopMetrics& metrics() const { return metrics_; }
  MopMetrics& mutable_metrics() { return metrics_; }
  int64_t tuples_in() const { return metrics_.tuples_in; }
  int64_t tuples_out() const { return metrics_.tuples_out; }
  void CountIn(int64_t n = 1) { RUMOR_METRIC(metrics_.tuples_in += n); }
  void CountOut(int64_t n = 1) { RUMOR_METRIC(metrics_.tuples_out += n); }
  void CountBatch() { RUMOR_METRIC(++metrics_.batches); }

 protected:
  // Emits `tuple` for `members` (see EmitForMembers) and counts it.
  void EmitCounted(OutputMode mode, const BitVector& members,
                   const Tuple& tuple, Emitter& out);

  void set_num_outputs(int n) { num_outputs_ = n; }
  // For m-ops whose sharing mode changes in place (e.g. a warm isolated
  // aggregate absorbing a second member becomes an sα target).
  void set_type(MopType type) { type_ = type; }

 private:
  MopType type_;
  int num_inputs_;
  int num_outputs_;
  MopId id_ = kInvalidMop;
  MopMetrics metrics_;
};

// Emits `tuple` for the member set `members` according to `mode`:
// per-member ports get one singleton channel tuple per set bit; channel mode
// gets a single channel tuple whose membership is `members`.
void EmitForMembers(OutputMode mode, const BitVector& members,
                    const Tuple& tuple, Emitter& out);

}  // namespace rumor

#endif  // RUMOR_MOP_MOP_H_
