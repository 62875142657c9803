#include "plan/fingerprint.h"

#include <unordered_map>

#include "common/hash.h"
#include "common/str_util.h"
#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/projection_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"
#include "mop/zip_mop.h"

namespace rumor {

namespace {

// Sharing-independent operator class of an m-op type.
enum class KindClass : uint64_t {
  kSelection = 0xA11CE001,
  kProjection = 0xA11CE002,
  kAggregate = 0xA11CE003,
  kJoin = 0xA11CE004,
  kSequence = 0xA11CE005,
  kIterate = 0xA11CE006,
  kZip = 0xA11CE007,
};

KindClass ClassOf(MopType type) {
  switch (type) {
    case MopType::kSelection:
    case MopType::kPredicateIndex:
    case MopType::kChannelSelect:
      return KindClass::kSelection;
    case MopType::kProjection:
    case MopType::kChannelProject:
      return KindClass::kProjection;
    case MopType::kAggregate:
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate:
      return KindClass::kAggregate;
    case MopType::kJoin:
    case MopType::kSharedJoin:
    case MopType::kPrecisionJoin:
      return KindClass::kJoin;
    case MopType::kSequence:
    case MopType::kSharedSequence:
    case MopType::kChannelSequence:
      return KindClass::kSequence;
    case MopType::kIterate:
    case MopType::kSharedIterate:
    case MopType::kChannelIterate:
      return KindClass::kIterate;
    case MopType::kZip:
      return KindClass::kZip;
  }
  return KindClass::kSelection;
}

// The input channel slot member `i` reads on each input port. Container
// m-ops (predicate index, channel variants) encode the member-slot mapping
// in their type; the others record it per member.
struct MemberInputs {
  // Parallel arrays: port p reads slot slots[p] of input channel p.
  std::vector<int> ports;
  std::vector<int> slots;
};

MemberInputs InputsOf(const Mop& m, int i) {
  switch (m.type()) {
    case MopType::kSelection:
      return {{0}, {static_cast<const SelectionMop&>(m).member().input_slot}};
    case MopType::kChannelSelect:
      return {{0}, {i}};
    case MopType::kPredicateIndex:
      return {{0}, {0}};
    case MopType::kProjection:
      return {{0},
              {static_cast<const ProjectionMop&>(m).member().input_slot}};
    case MopType::kChannelProject:
      return {{0}, {i}};
    case MopType::kAggregate:
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate:
      return {{0}, {static_cast<const AggregateMop&>(m).member(i).input_slot}};
    case MopType::kJoin:
    case MopType::kSharedJoin:
    case MopType::kPrecisionJoin: {
      const auto& member = static_cast<const JoinMop&>(m).member(i);
      return {{0, 1}, {member.left_slot, member.right_slot}};
    }
    case MopType::kSequence:
    case MopType::kSharedSequence:
    case MopType::kChannelSequence: {
      const auto& member = static_cast<const SequenceMop&>(m).member(i);
      return {{0, 1}, {member.left_slot, member.right_slot}};
    }
    case MopType::kIterate:
    case MopType::kSharedIterate:
    case MopType::kChannelIterate: {
      const auto& member = static_cast<const IterateMop&>(m).member(i);
      return {{0, 1}, {member.left_slot, member.right_slot}};
    }
    case MopType::kZip:
      return {{0, 1}, {0, 0}};
  }
  return {{}, {}};
}

class FingerprintBuilder {
 public:
  explicit FingerprintBuilder(const Plan& plan) : plan_(plan) {}

  // Fingerprints the members the query outputs reach, upstream from each
  // output stream. The others keep 0: a deactivated member, and a channel
  // member whose query was removed (its m-op serves the other members).
  Result<PlanFingerprints> Build() {
    out_.members.resize(plan_.num_mops());
    for (MopId id : plan_.LiveMops()) {
      out_.members[id].resize(plan_.mop(id).num_members(), 0);
    }
    for (const Plan::OutputDef& def : plan_.outputs()) {
      uint64_t fp = 0;
      RUMOR_RETURN_IF_ERROR(StreamFp(def.stream, &fp));
    }
    return std::move(out_);
  }

 private:
  Status MemberFp(MopId id, int i, uint64_t* out) {
    const Mop& m = plan_.mop(id);
    uint64_t h = Mix64(static_cast<uint64_t>(ClassOf(m.type())));
    h = HashCombine(h, m.MemberSignature(i));
    const MemberInputs inputs = InputsOf(m, i);
    for (size_t k = 0; k < inputs.ports.size(); ++k) {
      const ChannelId ch = plan_.input_channel(id, inputs.ports[k]);
      if (ch < 0) {
        return Status::Internal(
            StrCat("m-op ", m.name(), " has an unbound input port ",
                   inputs.ports[k]));
      }
      const StreamId stream = plan_.channel(ch).stream_at(inputs.slots[k]);
      uint64_t sfp = 0;
      RUMOR_RETURN_IF_ERROR(StreamFp(stream, &sfp));
      h = HashCombine(h, sfp);
    }
    *out = h == 0 ? 1 : h;  // 0 is reserved for "inactive slot"
    return Status::OK();
  }

  Status StreamFp(StreamId stream, uint64_t* out) {
    auto it = stream_fp_.find(stream);
    if (it != stream_fp_.end()) {
      if (it->second == kInProgress) {
        return Status::Internal("plan contains a channel cycle");
      }
      *out = it->second;
      return Status::OK();
    }
    const StreamDef& def = plan_.streams().Get(stream);
    uint64_t fp = 0;
    if (def.is_source) {
      fp = HashCombine(Mix64(0x5EC0DE), HashBytes(def.name));
      if (fp == 0 || fp == kInProgress) fp = 1;
      stream_fp_[stream] = fp;
      *out = fp;
      return Status::OK();
    }
    stream_fp_[stream] = kInProgress;
    // Find the producing (m-op, member) of the derived stream: the channel
    // carrying it with a producer end. Member resolution follows the port
    // conventions of mop.h — channel-output m-ops (one output port, wide
    // channel) map member i to slot i; per-member-ports m-ops map member i
    // to port i.
    MopId producer = kInvalidMop;
    int member = -1;
    for (ChannelId ch : plan_.ChannelsOfStream(stream)) {
      std::optional<ChannelEnd> end = plan_.ProducerOf(ch);
      if (!end.has_value()) continue;
      const ChannelDef& channel = plan_.channel(ch);
      std::optional<int> slot = channel.SlotOf(stream);
      if (!slot.has_value()) continue;
      producer = end->mop;
      const Mop& p = plan_.mop(producer);
      member = (p.num_outputs() == 1 && channel.capacity() > 1) ? *slot
                                                                : end->port;
      break;
    }
    if (producer == kInvalidMop) {
      return Status::Internal(
          StrCat("derived stream '", def.name, "' has no producer"));
    }
    RUMOR_RETURN_IF_ERROR(MemberFp(producer, member, &fp));
    if (plan_.mop(producer).member_active(member)) {
      out_.members[producer][member] = fp;
    }
    stream_fp_[stream] = fp;
    *out = fp;
    return Status::OK();
  }

  static constexpr uint64_t kInProgress = ~0ull;

  const Plan& plan_;
  PlanFingerprints out_;
  std::unordered_map<StreamId, uint64_t> stream_fp_;
};

}  // namespace

Result<PlanFingerprints> ComputeMemberFingerprints(const Plan& plan) {
  return FingerprintBuilder(plan).Build();
}

}  // namespace rumor
