#include "rules/share_index.h"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "common/hash.h"
#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"

namespace rumor {
namespace {

// Benefit tiers follow rule precedence (see header); the traffic bonus is
// bounded below the tier gap so greedy order never crosses precedence.
constexpr double kBenefitCseExact = 4000.0;
constexpr double kBenefitCseMember = 3000.0;
constexpr double kBenefitAttachSelection = 2000.0;
constexpr double kBenefitAttachAggregate = 1500.0;
constexpr double kBenefitFormIndex = 1000.0;

double BenefitOf(double base, const Mop* target) {
  double traffic = target == nullptr
                       ? 0.0
                       : static_cast<double>(target->tuples_in());
  return base + 99.0 * traffic / (traffic + 1024.0);
}

// Bit-identical to CseRule's group key (rules/rule.cc) — probes against this
// table reproduce the scan-based rule's grouping exactly, hash collisions
// and all.
uint64_t ExactKey(const Plan& plan, MopId id, const Mop& m) {
  uint64_t key = Mix64(static_cast<uint64_t>(m.type()));
  key = HashCombine(key, m.MemberSignature(0));
  for (ChannelId c : plan.input_channels(id)) {
    key = HashCombine(key, static_cast<uint64_t>(c));
  }
  return key;
}

uint64_t MemberKey(MopType shared_type, uint64_t signature,
                   const std::vector<ChannelId>& inputs) {
  uint64_t key = Mix64(0x6d656d6265726373ull ^
                       static_cast<uint64_t>(shared_type));
  key = HashCombine(key, signature);
  for (ChannelId c : inputs) {
    key = HashCombine(key, static_cast<uint64_t>(c));
  }
  return key;
}

// The sα attach key: input channel, fn, attr and input slot.
uint64_t AggKey(const Plan& plan, MopId id, const AggregateMop& agg) {
  uint64_t key = Mix64(static_cast<uint64_t>(plan.input_channel(id, 0)));
  key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.fn));
  key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.attr));
  key = HashCombine(key, static_cast<uint64_t>(agg.member(0).input_slot));
  return key;
}

bool IsMemberTargetType(MopType type) {
  return type == MopType::kPredicateIndex ||
         type == MopType::kSharedAggregate || type == MopType::kSharedJoin ||
         type == MopType::kSharedSequence || type == MopType::kSharedIterate;
}

template <typename M>
bool SameSlots(const Mop& target, int i, const Mop& fresh) {
  const auto& t = static_cast<const M&>(target).member(i);
  const auto& f = static_cast<const M&>(fresh).member(0);
  return t.left_slot == f.left_slot && t.right_slot == f.right_slot;
}

}  // namespace

bool MemberCseTargetType(MopType type, MopType* shared) {
  switch (type) {
    case MopType::kSelection: *shared = MopType::kPredicateIndex; return true;
    case MopType::kAggregate: *shared = MopType::kSharedAggregate; return true;
    case MopType::kJoin: *shared = MopType::kSharedJoin; return true;
    case MopType::kSequence: *shared = MopType::kSharedSequence; return true;
    case MopType::kIterate: *shared = MopType::kSharedIterate; return true;
    default: return false;
  }
}

bool MemberCseMatches(const Mop& target, int i, const Mop& fresh) {
  if (target.MemberSignature(i) != fresh.MemberSignature(0) ||
      !target.member_active(i)) {
    return false;
  }
  switch (target.type()) {
    case MopType::kPredicateIndex:
      return static_cast<const SelectionMop&>(fresh).member().input_slot == 0;
    case MopType::kSharedAggregate:
      return static_cast<const AggregateMop&>(target).member(i).input_slot ==
             static_cast<const AggregateMop&>(fresh).member(0).input_slot;
    case MopType::kSharedJoin: return SameSlots<JoinMop>(target, i, fresh);
    case MopType::kSharedSequence:
      return SameSlots<SequenceMop>(target, i, fresh);
    case MopType::kSharedIterate:
      return SameSlots<IterateMop>(target, i, fresh);
    default: return false;
  }
}

ShareIndex::ShareIndex(Plan* plan) : plan_(plan) {
  cursor_ = plan_->mutation_seq();
  Rebuild();
}

void ShareIndex::Sync() {
  std::vector<PlanEvent> events;
  if (!plan_->ReadEventsSince(cursor_, &events)) {
    cursor_ = plan_->mutation_seq();
    Rebuild();
    return;
  }
  cursor_ = plan_->mutation_seq();
  if (events.empty()) return;
  for (const PlanEvent& e : events) {
    if (e.kind == PlanEvent::kBulk) {
      Rebuild();
      return;
    }
  }
  // A target that grew a member port or reused a member slot (an attach)
  // re-posts just that member; any other event on an m-op (rebinds, adds,
  // removal) reindexes it. The dirty ids are deduplicated by sorting: a
  // lookup per event was quadratic when a rule pass removes a hundred m-ops.
  std::vector<MopId> dirty;
  std::vector<std::pair<MopId, int>> members;
  for (const PlanEvent& e : events) {
    switch (e.kind) {
      case PlanEvent::kMopGrew:
      case PlanEvent::kMemberReused:
        members.push_back({e.a, e.b});
        break;
      case PlanEvent::kMopAdded:
      case PlanEvent::kMopRemoved:
      case PlanEvent::kInputBound:
      case PlanEvent::kOutputBound:
        dirty.push_back(e.a);
        break;
      default:
        break;  // channel/output-mark events do not change index content
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (MopId id : dirty) ReindexMop(id);
  // After any reindex above, which re-keys harmlessly again here.
  for (const auto& [id, member] : members) {
    if (!PostMember(id, member)) ReindexMop(id);
  }
}

// Member postings ascend, with at most the target posting among them, so
// member i's is the i-th or the next. An attach thus costs O(1), not
// O(members): that keeps per-add latency flat as a popular σ-index or sα
// target accumulates thousands of members.
bool ShareIndex::PostMember(MopId id, int member) {
  auto it = postings_.find(id);
  if (it == postings_.end() || !plan_->IsLive(id)) return false;
  const Mop& m = plan_->mop(id);
  if (!IsMemberTargetType(m.type()) || member >= m.num_members() ||
      m.num_outputs() != m.num_members()) {
    return false;
  }
  std::vector<Posting>& posts = it->second;
  const int32_t n = static_cast<int32_t>(posts.size());
  const uint64_t key =
      MemberKey(m.type(), m.MemberSignature(member), plan_->input_channels(id));
  for (int32_t k = member; k <= member + 1 && k < n; ++k) {
    Posting& p = posts[k];
    if (p.table != Posting::kMember || p.member != member) continue;
    Unpost(member_, p, id, k);  // a reused slot, re-keyed in place
    p.key = key;
    std::vector<MemberRef>& bucket = member_[key];
    p.pos = static_cast<int32_t>(bucket.size());
    bucket.push_back({id, member, k});
    return true;
  }
  // A grown member follows member - 1's posting, last or before the target
  // posting. Growing past one member retracts exact_, which needs a reindex.
  int32_t last = n - 1;
  if (last > 0 && posts[last].table != Posting::kMember) --last;
  if (member < 2 || last < 0 || posts[last].table != Posting::kMember ||
      posts[last].member != member - 1) {
    return false;
  }
  Post(member_, Posting::kMember, key, id, member, &posts);
  return true;
}

template <typename Table>
void ShareIndex::Post(Table& table, Posting::Table which, uint64_t key,
                      MopId id, int member, std::vector<Posting>* posts) {
  auto& bucket = table[static_cast<typename Table::key_type>(key)];
  const int32_t post = static_cast<int32_t>(posts->size());
  posts->push_back(
      {which, key, member, static_cast<int32_t>(bucket.size())});
  if constexpr (std::is_same_v<Table, decltype(member_)>) {
    bucket.push_back({id, member, post});
  } else {
    bucket.push_back({id, post});
  }
}

template <typename Table>
void ShareIndex::Unpost(Table& table, const Posting& p, MopId id,
                        int32_t post) {
  auto bucket = table.find(static_cast<typename Table::key_type>(p.key));
  RUMOR_CHECK(bucket != table.end());
  auto& v = bucket->second;
  RUMOR_CHECK(p.pos >= 0 && p.pos < static_cast<int32_t>(v.size()) &&
              v[p.pos].mop == id && v[p.pos].post == post)
      << "share-index posting out of sync for m-op " << id;
  v[p.pos] = v.back();
  v.pop_back();
  if (p.pos < static_cast<int32_t>(v.size())) {
    // The entry moved into the hole: repoint its posting. (Its m-op may be
    // `id` itself — a merged target with two equal members — whose
    // postings the caller is still walking; they stay in place.)
    const auto& moved = v[p.pos];
    postings_.find(moved.mop)->second[moved.post].pos = p.pos;
  }
  if (v.empty()) table.erase(bucket);
}

void ShareIndex::Rebuild() {
  exact_.clear();
  member_.clear();
  index_targets_.clear();
  sel_singles_.clear();
  agg_targets_.clear();
  postings_.clear();
  for (MopId id : plan_->LiveMops()) IndexMop(id);
}

void ShareIndex::ReindexMop(MopId id) {
  UnindexMop(id);
  IndexMop(id);
}

void ShareIndex::UnindexMop(MopId id) {
  auto it = postings_.find(id);
  if (it == postings_.end()) return;
  // By index: Unpost may repoint a later posting of this same m-op.
  const std::vector<Posting>& posts = it->second;
  for (int32_t k = 0; k < static_cast<int32_t>(posts.size()); ++k) {
    const Posting& p = posts[k];
    switch (p.table) {
      case Posting::kExact: Unpost(exact_, p, id, k); break;
      case Posting::kMember: Unpost(member_, p, id, k); break;
      case Posting::kIndexTarget: Unpost(index_targets_, p, id, k); break;
      case Posting::kSelSingle: Unpost(sel_singles_, p, id, k); break;
      case Posting::kAggTarget: Unpost(agg_targets_, p, id, k); break;
    }
  }
  postings_.erase(it);
}

void ShareIndex::IndexMop(MopId id) {
  if (!plan_->IsLive(id)) return;
  const Mop& m = plan_->mop(id);
  // Only fully wired m-ops are indexed; a partially compiled one is
  // re-indexed when its remaining bind events arrive.
  for (ChannelId c : plan_->input_channels(id)) {
    if (c == kInvalidChannel) return;
  }
  if (static_cast<int>(plan_->output_channels(id).size()) !=
      m.num_outputs()) {
    return;
  }
  for (ChannelId c : plan_->output_channels(id)) {
    if (c == kInvalidChannel) return;
  }
  std::vector<Posting> posts;
  if (m.num_members() == 1 && m.num_outputs() == 1) {
    Post(exact_, Posting::kExact, ExactKey(*plan_, id, m), id, -1, &posts);
  }
  if (IsMemberTargetType(m.type())) {
    for (int i = 0; i < m.num_members(); ++i) {
      uint64_t key =
          MemberKey(m.type(), m.MemberSignature(i), plan_->input_channels(id));
      Post(member_, Posting::kMember, key, id, i, &posts);
    }
  }
  if (m.type() == MopType::kPredicateIndex) {
    const auto& index = static_cast<const PredicateIndexMop&>(m);
    if (index.output_mode() == OutputMode::kPerMemberPorts) {
      ChannelId in = plan_->input_channel(id, 0);
      Post(index_targets_, Posting::kIndexTarget, static_cast<uint64_t>(in),
           id, -1, &posts);
    }
  }
  if (m.type() == MopType::kSelection &&
      static_cast<const SelectionMop&>(m).member().input_slot == 0) {
    ChannelId in = plan_->input_channel(id, 0);
    Post(sel_singles_, Posting::kSelSingle, static_cast<uint64_t>(in), id, -1,
         &posts);
  }
  if (m.type() == MopType::kAggregate ||
      m.type() == MopType::kSharedAggregate) {
    const auto& agg = static_cast<const AggregateMop&>(m);
    if (agg.output_mode() == OutputMode::kPerMemberPorts) {
      Post(agg_targets_, Posting::kAggTarget, AggKey(*plan_, id, agg), id, -1,
           &posts);
    }
  }
  if (!posts.empty()) postings_[id] = std::move(posts);
}

ShareIndex::Candidate ShareIndex::Probe(MopId fresh,
                                        uint32_t kind_mask) const {
  Candidate none;
  if (!plan_->IsLive(fresh)) return none;
  const Mop& m = plan_->mop(fresh);
  if (m.num_members() != 1 || m.num_outputs() != 1) return none;
  const std::vector<ChannelId>& ins = plan_->input_channels(fresh);
  for (ChannelId c : ins) {
    if (c == kInvalidChannel) return none;
  }
  if (plan_->output_channels(fresh).empty() ||
      plan_->output_channel(fresh, 0) == kInvalidChannel) {
    return none;
  }

  // 1. Exact CSE. The kept m-op is always the lowest id of the duplicate
  // group (the warm twin), exactly as CseRule resolves it — so only targets
  // older than the fresh m-op qualify.
  if (kind_mask & MaskOf(Candidate::kCseExact)) {
    auto bucket = exact_.find(ExactKey(*plan_, fresh, m));
    if (bucket != exact_.end()) {
      MopId best = kInvalidMop;
      for (const Entry& e : bucket->second) {
        if (e.mop < fresh && (best == kInvalidMop || e.mop < best)) {
          best = e.mop;
        }
      }
      if (best != kInvalidMop) {
        Candidate c;
        c.kind = Candidate::kCseExact;
        c.fresh = fresh;
        c.target = best;
        c.benefit = BenefitOf(kBenefitCseExact, &plan_->mop(best));
        return c;
      }
    }
  }

  // 2. Member-level CSE onto a warm merged target (MemberCseMatches),
  // resolved to the lowest (target, member) pair.
  MopType shared_type;
  if ((kind_mask & MaskOf(Candidate::kCseMember)) &&
      MemberCseTargetType(m.type(), &shared_type)) {
    auto bucket =
        member_.find(MemberKey(shared_type, m.MemberSignature(0), ins));
    if (bucket != member_.end()) {
      MopId best = kInvalidMop;
      int best_member = -1;
      for (const MemberRef& ref : bucket->second) {
        if (ref.mop == fresh || !plan_->IsLive(ref.mop)) continue;
        if (best != kInvalidMop &&
            (ref.mop > best || (ref.mop == best && ref.member > best_member))) {
          continue;
        }
        const Mop& t = plan_->mop(ref.mop);
        if (t.type() != shared_type || t.num_members() < 2 ||
            t.num_outputs() != t.num_members()) {
          continue;
        }
        bool same_inputs = t.num_inputs() == m.num_inputs();
        for (int p = 0; same_inputs && p < m.num_inputs(); ++p) {
          same_inputs =
              plan_->input_channel(ref.mop, p) == plan_->input_channel(fresh, p);
        }
        if (!same_inputs) continue;
        if (!MemberCseMatches(t, ref.member, m)) continue;
        best = ref.mop;
        best_member = ref.member;
      }
      if (best != kInvalidMop) {
        Candidate c;
        c.kind = Candidate::kCseMember;
        c.fresh = fresh;
        c.target = best;
        c.member = best_member;
        c.benefit = BenefitOf(kBenefitCseMember, &plan_->mop(best));
        return c;
      }
    }
  }

  // 3. sσ: attach to the oldest per-member-port predicate index on the
  // input channel, or — with no index but ≥2 single selections — form one.
  if (m.type() == MopType::kSelection &&
      static_cast<const SelectionMop&>(m).member().input_slot == 0) {
    ChannelId in = ins[0];
    auto targets = index_targets_.find(in);
    if ((kind_mask & MaskOf(Candidate::kAttachSelection)) &&
        targets != index_targets_.end() && !targets->second.empty()) {
      MopId best = kInvalidMop;
      for (const Entry& e : targets->second) {
        if (plan_->IsLive(e.mop) && (best == kInvalidMop || e.mop < best)) {
          best = e.mop;
        }
      }
      if (best != kInvalidMop) {
        Candidate c;
        c.kind = Candidate::kAttachSelection;
        c.fresh = fresh;
        c.target = best;
        c.benefit = BenefitOf(kBenefitAttachSelection, &plan_->mop(best));
        return c;
      }
    }
    auto singles = sel_singles_.find(in);
    if ((kind_mask & MaskOf(Candidate::kFormIndex)) &&
        singles != sel_singles_.end() && singles->second.size() >= 2) {
      Candidate c;
      c.kind = Candidate::kFormIndex;
      c.fresh = fresh;
      c.channel = in;
      c.benefit = BenefitOf(kBenefitFormIndex, nullptr);
      return c;
    }
  }

  // 4. sα: attach to the oldest shared-aggregation target with the same
  // (channel, fn, attr, slot) key. Only older targets qualify, and if the
  // chosen target cannot absorb the member, no other target is tried.
  if ((kind_mask & MaskOf(Candidate::kAttachAggregate)) &&
      m.type() == MopType::kAggregate) {
    const auto& agg = static_cast<const AggregateMop&>(m);
    if (agg.sharing() == AggregateMop::Sharing::kIsolated) {
      auto bucket = agg_targets_.find(AggKey(*plan_, fresh, agg));
      if (bucket != agg_targets_.end()) {
        MopId best = kInvalidMop;
        for (const Entry& e : bucket->second) {
          if (e.mop < fresh && plan_->IsLive(e.mop) &&
              (best == kInvalidMop || e.mop < best)) {
            best = e.mop;
          }
        }
        if (best != kInvalidMop) {
          const auto& target = static_cast<const AggregateMop&>(
              plan_->mop(best));
          if (target.CanAttach(agg.member(0))) {
            Candidate c;
            c.kind = Candidate::kAttachAggregate;
            c.fresh = fresh;
            c.target = best;
            c.benefit = BenefitOf(kBenefitAttachAggregate, &plan_->mop(best));
            return c;
          }
        }
      }
    }
  }
  return none;
}

std::vector<MopId> ShareIndex::SinglesOn(ChannelId channel) const {
  std::vector<MopId> out;
  auto it = sel_singles_.find(channel);
  if (it == sel_singles_.end()) return out;
  for (const Entry& e : it->second) {
    if (plan_->IsLive(e.mop)) out.push_back(e.mop);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ShareIndex::DebugDump() const {
  std::vector<std::string> lines;
  auto dump_ids = [&lines](const char* tag, auto key,
                           const std::vector<Entry>& entries) {
    std::vector<MopId> ids;
    for (const Entry& e : entries) ids.push_back(e.mop);
    std::sort(ids.begin(), ids.end());
    std::ostringstream os;
    os << tag << " " << key << " ->";
    for (MopId id : ids) os << " " << id;
    lines.push_back(os.str());
  };
  for (const auto& [key, ids] : exact_) dump_ids("exact", key, ids);
  for (const auto& [key, ids] : index_targets_) {
    dump_ids("index_target", key, ids);
  }
  for (const auto& [key, ids] : sel_singles_) dump_ids("sel_single", key, ids);
  for (const auto& [key, ids] : agg_targets_) dump_ids("agg_target", key, ids);
  for (const auto& [key, refs] : member_) {
    std::vector<std::pair<MopId, int>> entries;
    for (const MemberRef& ref : refs) entries.push_back({ref.mop, ref.member});
    std::sort(entries.begin(), entries.end());
    std::ostringstream os;
    os << "member " << key << " ->";
    for (const auto& [mop, idx] : entries) {
      os << " (" << mop << "," << idx << ")";
    }
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const std::string& line : lines) os << line << "\n";
  return os.str();
}

ShareIndex::Stats ShareIndex::GetStats() const {
  // Hash-node bookkeeping estimate (pointers, hash, allocator rounding).
  constexpr int64_t kNodeOverhead = 48;
  Stats s;
  auto table = [&s](const auto& map, int64_t* entries) {
    for (const auto& [key, bucket] : map) {
      *entries += static_cast<int64_t>(bucket.size());
      s.approx_bytes +=
          kNodeOverhead + static_cast<int64_t>(sizeof(key)) +
          static_cast<int64_t>(bucket.capacity() *
                               sizeof(typename std::decay_t<
                                      decltype(bucket)>::value_type));
    }
  };
  table(exact_, &s.exact_entries);
  table(member_, &s.member_entries);
  table(index_targets_, &s.index_target_entries);
  table(sel_singles_, &s.sel_single_entries);
  table(agg_targets_, &s.agg_target_entries);
  table(postings_, &s.posting_entries);
  return s;
}

}  // namespace rumor
