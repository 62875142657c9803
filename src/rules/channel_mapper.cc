// ChannelRule — the c-family of m-rules (cσ, cπ, cα, c⋈, c;, cµ; paper §3.3
// and §4.4) together with the stream-to-channel mapping decision of §3.2.
//
// Channel-based MQO sharing criteria (§3.2): streams S1..Sn are mapped to
// one channel only if
//   (a) they belong to the same ~ equivalence class (SharableAnalysis),
//   (b) they are produced by the same m-op (or are sources explicitly
//       labeled sharable — the Workload-3 setting where the generator feeds
//       the channel directly), and
//   (c) their consumers have identical definitions.
//
// When the criteria hold, the rule (i) re-emits the producer in channel
// output mode — one channel tuple with a membership component instead of n
// per-port tuples, (ii) creates the channel encoding S1..Sn, and (iii)
// merges the n consumers into the channel-sharing target m-op of their type
// (ChannelSelectMop, ChannelProjectMop, fragment AggregateMop, precision
// JoinMop, channel SequenceMop/IterateMop). Consumer output channels are
// preserved, so the rule composes: the merged consumer becomes a candidate
// producer for the next application (the Fig. 6(c) chain sσ → cµ → cσ).
#include <unordered_map>

#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/projection_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"
#include "rules/rule.h"

namespace rumor {

namespace {

// A validated candidate group: n sharable streams (with their capacity-1
// channels) from one producer, and the n same-definition consumers.
struct Candidate {
  std::vector<ChannelId> stream_channels;  // capacity-1, in slot order
  std::vector<StreamId> streams;
  std::vector<MopId> consumers;  // consumer i reads stream i on port 0
  MopType consumer_type;
  // Sequence/Iterate: the common right input channel.
  ChannelId common_right = kInvalidChannel;
  // Join: right-side group (aligned with left slots).
  std::vector<ChannelId> right_channels;
  MopId right_producer = kInvalidMop;
};

// Checks consumers of the given capacity-1 channels: exactly one consumer
// per channel, reading on port 0, all single-member with one output port and
// identical definitions. Fills consumer fields of `cand`.
bool ValidateConsumers(const Plan& plan, Candidate* cand) {
  cand->consumers.clear();
  for (ChannelId c : cand->stream_channels) {
    auto ends = plan.ConsumersOf(c);
    if (ends.size() != 1 || ends[0].port != 0) return false;
    cand->consumers.push_back(ends[0].mop);
  }
  // Consumers must be distinct m-ops.
  for (size_t i = 0; i < cand->consumers.size(); ++i) {
    for (size_t j = i + 1; j < cand->consumers.size(); ++j) {
      if (cand->consumers[i] == cand->consumers[j]) return false;
    }
  }
  const Mop& first = plan.mop(cand->consumers[0]);
  if (first.num_members() != 1 || first.num_outputs() != 1) return false;
  cand->consumer_type = first.type();
  switch (cand->consumer_type) {
    case MopType::kSelection:
    case MopType::kProjection:
    case MopType::kAggregate:
    case MopType::kJoin:
    case MopType::kSequence:
    case MopType::kIterate:
      break;
    default:
      return false;  // only compile-shaped reference consumers are merged
  }
  for (MopId id : cand->consumers) {
    const Mop& m = plan.mop(id);
    if (m.type() != cand->consumer_type || m.num_members() != 1 ||
        m.num_outputs() != 1) {
      return false;
    }
    if (m.MemberSignature(0) != first.MemberSignature(0)) return false;
  }
  // Binary consumers: criterion on the second input.
  if (cand->consumer_type == MopType::kSequence ||
      cand->consumer_type == MopType::kIterate) {
    cand->common_right = plan.input_channel(cand->consumers[0], 1);
    for (MopId id : cand->consumers) {
      if (plan.input_channel(id, 1) != cand->common_right) return false;
    }
  } else if (cand->consumer_type == MopType::kJoin) {
    // Precision sharing: the right inputs must be the aligned outputs of a
    // single second producer over sharable streams.
    cand->right_channels.clear();
    for (MopId id : cand->consumers) {
      cand->right_channels.push_back(plan.input_channel(id, 1));
    }
    std::optional<ChannelEnd> producer =
        plan.ProducerOf(cand->right_channels[0]);
    if (!producer.has_value()) return false;
    MopId p2 = producer->mop;
    cand->right_producer = p2;
    if (plan.mop(p2).num_outputs() !=
        static_cast<int>(cand->right_channels.size())) {
      return false;
    }
    for (size_t i = 0; i < cand->right_channels.size(); ++i) {
      if (plan.output_channel(p2, static_cast<int>(i)) !=
          cand->right_channels[i]) {
        return false;
      }
      if (plan.channel(cand->right_channels[i]).capacity() != 1)
        return false;
      auto ends = plan.ConsumersOf(cand->right_channels[i]);
      if (ends.size() != 1 || ends[0].mop != cand->consumers[i] ||
          ends[0].port != 1) {
        return false;
      }
    }
  }
  return true;
}

// Builds the merged channel-sharing consumer m-op.
std::unique_ptr<Mop> MakeChannelConsumer(const Plan& plan,
                                         const Candidate& cand) {
  const int n = static_cast<int>(cand.consumers.size());
  switch (cand.consumer_type) {
    case MopType::kSelection: {
      const auto& c0 =
          static_cast<const SelectionMop&>(plan.mop(cand.consumers[0]));
      return std::make_unique<ChannelSelectMop>(c0.member().def, n,
                                                OutputMode::kPerMemberPorts);
    }
    case MopType::kProjection: {
      const auto& c0 =
          static_cast<const ProjectionMop&>(plan.mop(cand.consumers[0]));
      return std::make_unique<ChannelProjectMop>(
          c0.member().def, n, OutputMode::kPerMemberPorts);
    }
    case MopType::kAggregate: {
      std::vector<AggregateMop::Member> members;
      for (int i = 0; i < n; ++i) {
        const auto& ci =
            static_cast<const AggregateMop&>(plan.mop(cand.consumers[i]));
        members.push_back({i, ci.member(0).spec});
      }
      return std::make_unique<AggregateMop>(std::move(members),
                                            AggregateMop::Sharing::kFragment,
                                            OutputMode::kPerMemberPorts);
    }
    case MopType::kJoin: {
      std::vector<JoinMop::Member> members;
      for (int i = 0; i < n; ++i) {
        const auto& ci =
            static_cast<const JoinMop&>(plan.mop(cand.consumers[i]));
        members.push_back({i, i, ci.member(0).def});
      }
      return std::make_unique<JoinMop>(std::move(members),
                                       JoinMop::Sharing::kPrecision,
                                       OutputMode::kPerMemberPorts);
    }
    case MopType::kSequence: {
      std::vector<SequenceMop::Member> members;
      for (int i = 0; i < n; ++i) {
        const auto& ci =
            static_cast<const SequenceMop&>(plan.mop(cand.consumers[i]));
        members.push_back({i, 0, ci.member(0).def});
      }
      return std::make_unique<SequenceMop>(std::move(members),
                                           SequenceMop::Sharing::kChannel,
                                           OutputMode::kPerMemberPorts);
    }
    case MopType::kIterate: {
      std::vector<IterateMop::Member> members;
      for (int i = 0; i < n; ++i) {
        const auto& ci =
            static_cast<const IterateMop&>(plan.mop(cand.consumers[i]));
        members.push_back({i, 0, ci.member(0).def});
      }
      return std::make_unique<IterateMop>(std::move(members),
                                          IterateMop::Sharing::kChannel,
                                          OutputMode::kPerMemberPorts);
    }
    default:
      RUMOR_CHECK(false) << "unexpected consumer type";
      return nullptr;
  }
}

// Applies one validated candidate. `producer` is kInvalidMop for
// source-group candidates.
void ApplyCandidate(Plan* plan, const Candidate& cand, MopId producer) {
  const int n = static_cast<int>(cand.streams.size());
  // (ii) the channel encoding S1..Sn.
  ChannelId ch = plan->AddChannel(
      cand.streams, plan->streams().SchemaOf(cand.streams[0]));

  // (i) producer switches to channel-output mode.
  if (producer != kInvalidMop) {
    std::unique_ptr<Mop> clone =
        CloneWithOutputMode(plan->mop(producer), OutputMode::kChannel);
    std::vector<ChannelId> inputs = plan->input_channels(producer);
    MopId new_producer = plan->AddMop(std::move(clone));
    for (size_t p = 0; p < inputs.size(); ++p) {
      plan->BindInput(new_producer, static_cast<int>(p), inputs[p]);
    }
    plan->BindOutput(new_producer, 0, ch);
    plan->RemoveMop(producer);
  }

  // Right-side channel for precision joins.
  ChannelId right_ch = kInvalidChannel;
  if (cand.consumer_type == MopType::kJoin) {
    std::vector<StreamId> right_streams;
    for (ChannelId c : cand.right_channels) {
      right_streams.push_back(plan->channel(c).stream_at(0));
    }
    right_ch = plan->AddChannel(
        right_streams, plan->streams().SchemaOf(right_streams[0]));
    std::unique_ptr<Mop> clone = CloneWithOutputMode(
        plan->mop(cand.right_producer), OutputMode::kChannel);
    std::vector<ChannelId> inputs =
        plan->input_channels(cand.right_producer);
    MopId new_p2 = plan->AddMop(std::move(clone));
    for (size_t p = 0; p < inputs.size(); ++p) {
      plan->BindInput(new_p2, static_cast<int>(p), inputs[p]);
    }
    plan->BindOutput(new_p2, 0, right_ch);
    plan->RemoveMop(cand.right_producer);
  }

  // (iii) the merged consumer.
  std::unique_ptr<Mop> target = MakeChannelConsumer(*plan, cand);
  std::vector<ChannelId> outputs;
  for (MopId id : cand.consumers) {
    outputs.push_back(plan->output_channel(id, 0));
  }
  MopId merged = plan->AddMop(std::move(target));
  plan->BindInput(merged, 0, ch);
  if (cand.consumer_type == MopType::kSequence ||
      cand.consumer_type == MopType::kIterate) {
    plan->BindInput(merged, 1, cand.common_right);
  } else if (cand.consumer_type == MopType::kJoin) {
    plan->BindInput(merged, 1, right_ch);
  }
  for (int i = 0; i < n; ++i) plan->BindOutput(merged, i, outputs[i]);
  for (MopId id : cand.consumers) plan->RemoveMop(id);
}

// Scans for a producer-group candidate: a live m-op with n >= 2 per-member
// output ports over sharable streams whose consumers qualify. Returns true
// after applying one rewrite.
bool TryProducerGroups(Plan* plan, const SharableAnalysis& sharable) {
  for (MopId p : plan->LiveMops()) {
    const Mop& mop = plan->mop(p);
    if (mop.num_outputs() < 2) continue;
    Candidate cand;
    bool ok = true;
    for (int i = 0; i < mop.num_outputs() && ok; ++i) {
      ChannelId c = plan->output_channel(p, i);
      if (plan->channel(c).capacity() != 1) {
        ok = false;
        break;
      }
      cand.stream_channels.push_back(c);
      cand.streams.push_back(plan->channel(c).stream_at(0));
    }
    if (!ok) continue;
    if (!sharable.AllSharable(cand.streams)) continue;  // criterion (a)
    // Criterion (b) holds: one producer. Criterion (c):
    if (!ValidateConsumers(*plan, &cand)) continue;
    // Joins: left and right producers must differ (self-alignment of one
    // producer's ports on both sides is not supported).
    if (cand.consumer_type == MopType::kJoin && cand.right_producer == p) {
      continue;
    }
    ApplyCandidate(plan, cand, p);
    return true;
  }
  return false;
}

// Scans for groups of sharable-labeled source streams whose capacity-1
// channels feed qualifying consumers (§5.2 Workload 3: the generator feeds
// the channel directly).
bool TrySourceGroups(Plan* plan, const SharableAnalysis& sharable) {
  std::unordered_map<int, std::vector<StreamId>> by_label;
  for (StreamId s = 0; s < plan->streams().size(); ++s) {
    const StreamDef& def = plan->streams().Get(s);
    if (def.is_source && def.sharable_label >= 0 &&
        plan->FindSourceChannel(s).has_value()) {
      by_label[def.sharable_label].push_back(s);
    }
  }
  for (auto& [label, streams] : by_label) {
    if (streams.size() < 2) continue;
    Candidate cand;
    cand.streams = streams;
    for (StreamId s : streams) {
      cand.stream_channels.push_back(*plan->FindSourceChannel(s));
    }
    if (!sharable.AllSharable(cand.streams)) continue;
    if (!ValidateConsumers(*plan, &cand)) continue;
    if (cand.consumer_type == MopType::kJoin) continue;  // sources only left
    ApplyCandidate(plan, cand, kInvalidMop);
    return true;
  }
  return false;
}

}  // namespace

int ChannelRule::ApplyAll(Plan* plan, const SharableAnalysis* analysis) {
  RUMOR_CHECK(analysis != nullptr)
      << "the channel rule needs the ~ analysis (not applied incrementally)";
  const SharableAnalysis& sharable = *analysis;
  int merges = 0;
  while (TryProducerGroups(plan, sharable) ||
         TrySourceGroups(plan, sharable)) {
    ++merges;
  }
  return merges;
}

}  // namespace rumor
