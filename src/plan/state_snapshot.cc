#include "plan/state_snapshot.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/snapshot_io.h"
#include "common/str_util.h"
#include "plan/fingerprint.h"

namespace rumor {

namespace {

// --- MopState wire encoding ---------------------------------------------------

void WriteBitVector(SnapshotWriter& w, const BitVector& bv) {
  w.U32(static_cast<uint32_t>(bv.size()));
  w.U32(static_cast<uint32_t>(bv.Count()));
  bv.ForEach([&](int i) { w.U32(static_cast<uint32_t>(i)); });
}

Status ReadBitVector(SnapshotReader& r, BitVector* out) {
  uint32_t size = 0, count = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&size));
  RUMOR_RETURN_IF_ERROR(r.U32(&count));
  if (count > size) {
    return Status::InvalidArgument("bit vector has more set bits than bits");
  }
  BitVector bv(static_cast<int>(size));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t index = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&index));
    if (index >= size) {
      return Status::InvalidArgument("bit vector index out of range");
    }
    bv.Set(static_cast<int>(index));
  }
  *out = std::move(bv);
  return Status::OK();
}

void WriteStateTuple(SnapshotWriter& w, const StateTuple& t) {
  w.I64(t.ts);
  w.U32(static_cast<uint32_t>(t.values.size()));
  for (const Value& v : t.values) w.WriteValue(v);
}

Status ReadStateTuple(SnapshotReader& r, StateTuple* out) {
  RUMOR_RETURN_IF_ERROR(r.I64(&out->ts));
  uint32_t n = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&n));
  out->values.clear();
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    RUMOR_RETURN_IF_ERROR(r.ReadValue(&v));
    out->values.push_back(std::move(v));
  }
  return Status::OK();
}

void WriteBufferState(SnapshotWriter& w, const BufferState& b) {
  w.U32(static_cast<uint32_t>(b.slots.size()));
  for (const BufferSlotState& s : b.slots) {
    w.I64(s.ts);
    w.WriteValue(s.key);
    WriteStateTuple(w, s.tuple);
    WriteBitVector(w, s.membership);
  }
}

Status ReadBufferState(SnapshotReader& r, BufferState* out) {
  uint32_t n = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&n));
  out->slots.clear();
  for (uint32_t i = 0; i < n; ++i) {
    BufferSlotState s;
    RUMOR_RETURN_IF_ERROR(r.I64(&s.ts));
    RUMOR_RETURN_IF_ERROR(r.ReadValue(&s.key));
    RUMOR_RETURN_IF_ERROR(ReadStateTuple(r, &s.tuple));
    RUMOR_RETURN_IF_ERROR(ReadBitVector(r, &s.membership));
    out->slots.push_back(std::move(s));
  }
  return Status::OK();
}

void WriteEngineState(SnapshotWriter& w, const AggEngineState& e) {
  w.U32(static_cast<uint32_t>(e.slots.size()));
  for (int s : e.slots) w.U32(static_cast<uint32_t>(s));
  w.U32(static_cast<uint32_t>(e.entries.size()));
  for (const AggLogEntry& entry : e.entries) {
    w.I64(entry.ts);
    w.WriteValue(entry.value);
    WriteStateTuple(w, entry.tuple);
    WriteBitVector(w, entry.membership);
  }
  w.U32(static_cast<uint32_t>(e.members.size()));
  for (const AggMemberState& m : e.members) {
    w.I64(m.cursor);
    w.U32(static_cast<uint32_t>(m.groups.size()));
    for (const AggGroupState& g : m.groups) {
      w.U32(static_cast<uint32_t>(g.key.size()));
      for (const Value& v : g.key) w.WriteValue(v);
      w.I64(g.count);
      w.I64(g.isum);
      w.I64(g.double_count);
      w.F64(g.dsum);
    }
  }
}

Status ReadEngineState(SnapshotReader& r, AggEngineState* out) {
  uint32_t n = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&n));
  out->slots.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t slot = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&slot));
    out->slots.push_back(static_cast<int>(slot));
  }
  RUMOR_RETURN_IF_ERROR(r.U32(&n));
  out->entries.clear();
  for (uint32_t i = 0; i < n; ++i) {
    AggLogEntry entry;
    RUMOR_RETURN_IF_ERROR(r.I64(&entry.ts));
    RUMOR_RETURN_IF_ERROR(r.ReadValue(&entry.value));
    RUMOR_RETURN_IF_ERROR(ReadStateTuple(r, &entry.tuple));
    RUMOR_RETURN_IF_ERROR(ReadBitVector(r, &entry.membership));
    out->entries.push_back(std::move(entry));
  }
  RUMOR_RETURN_IF_ERROR(r.U32(&n));
  out->members.clear();
  for (uint32_t i = 0; i < n; ++i) {
    AggMemberState m;
    RUMOR_RETURN_IF_ERROR(r.I64(&m.cursor));
    uint32_t groups = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&groups));
    for (uint32_t g = 0; g < groups; ++g) {
      AggGroupState group;
      uint32_t key_size = 0;
      RUMOR_RETURN_IF_ERROR(r.U32(&key_size));
      for (uint32_t k = 0; k < key_size; ++k) {
        Value v;
        RUMOR_RETURN_IF_ERROR(r.ReadValue(&v));
        group.key.push_back(std::move(v));
      }
      RUMOR_RETURN_IF_ERROR(r.I64(&group.count));
      RUMOR_RETURN_IF_ERROR(r.I64(&group.isum));
      RUMOR_RETURN_IF_ERROR(r.I64(&group.double_count));
      RUMOR_RETURN_IF_ERROR(r.F64(&group.dsum));
      m.groups.push_back(std::move(group));
    }
    out->members.push_back(std::move(m));
  }
  return Status::OK();
}

void WriteMopState(SnapshotWriter& w, const MopState& ms) {
  w.U8(static_cast<uint8_t>(ms.kind));
  w.U32(static_cast<uint32_t>(ms.member_fps.size()));
  for (uint64_t fp : ms.member_fps) w.U64(fp);
  for (char a : ms.member_active) w.U8(static_cast<uint8_t>(a));
  w.U8(ms.shared_state ? 1 : 0);
  w.U8(ms.member_filtered ? 1 : 0);
  w.U32(static_cast<uint32_t>(ms.engines.size()));
  for (const AggEngineState& e : ms.engines) WriteEngineState(w, e);
  w.U32(static_cast<uint32_t>(ms.left.size()));
  for (const BufferState& b : ms.left) WriteBufferState(w, b);
  w.U32(static_cast<uint32_t>(ms.right.size()));
  for (const BufferState& b : ms.right) WriteBufferState(w, b);
  w.U32(static_cast<uint32_t>(ms.stores.size()));
  for (const BufferState& b : ms.stores) WriteBufferState(w, b);
}

Status ReadMopState(SnapshotReader& r, MopState* out) {
  uint8_t kind = 0;
  RUMOR_RETURN_IF_ERROR(r.U8(&kind));
  if (kind < 1 || kind > 4) {
    return Status::InvalidArgument(
        StrCat("unknown m-op state kind ", static_cast<int>(kind)));
  }
  out->kind = static_cast<MopState::Kind>(kind);
  uint32_t members = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&members));
  out->member_fps.clear();
  out->member_active.clear();
  for (uint32_t i = 0; i < members; ++i) {
    uint64_t fp = 0;
    RUMOR_RETURN_IF_ERROR(r.U64(&fp));
    out->member_fps.push_back(fp);
  }
  for (uint32_t i = 0; i < members; ++i) {
    uint8_t a = 0;
    RUMOR_RETURN_IF_ERROR(r.U8(&a));
    out->member_active.push_back(static_cast<char>(a));
  }
  uint8_t flag = 0;
  RUMOR_RETURN_IF_ERROR(r.U8(&flag));
  out->shared_state = flag != 0;
  RUMOR_RETURN_IF_ERROR(r.U8(&flag));
  out->member_filtered = flag != 0;
  uint32_t n = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&n));
  out->engines.clear();
  for (uint32_t i = 0; i < n; ++i) {
    AggEngineState e;
    RUMOR_RETURN_IF_ERROR(ReadEngineState(r, &e));
    out->engines.push_back(std::move(e));
  }
  for (auto* buffers : {&out->left, &out->right, &out->stores}) {
    RUMOR_RETURN_IF_ERROR(r.U32(&n));
    buffers->clear();
    for (uint32_t i = 0; i < n; ++i) {
      BufferState b;
      RUMOR_RETURN_IF_ERROR(ReadBufferState(r, &b));
      buffers->push_back(std::move(b));
    }
  }
  return Status::OK();
}

// --- shard merging ------------------------------------------------------------

// Timestamp-merge of per-shard slot lists. Each input is already sorted;
// stable sort of the concatenation keeps lower shards first on equal
// timestamps and preserves in-shard order — the deterministic merge order
// restore depends on.
std::vector<BufferSlotState> MergeSlots(
    std::vector<std::vector<BufferSlotState>> per_shard) {
  std::vector<BufferSlotState> all;
  for (auto& shard : per_shard) {
    for (auto& slot : shard) all.push_back(std::move(slot));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const BufferSlotState& a, const BufferSlotState& b) {
                     return a.ts < b.ts;
                   });
  return all;
}

Status MergeEngines(std::vector<const AggEngineState*> shards,
                    AggEngineState* out) {
  const AggEngineState& first = *shards[0];
  for (const AggEngineState* e : shards) {
    if (e->slots != first.slots ||
        e->members.size() != first.members.size()) {
      return Status::InvalidArgument(
          "shard state images disagree on aggregate engine layout");
    }
  }
  out->slots = first.slots;
  // Entries: concatenate in shard order, stable-sort by timestamp.
  for (const AggEngineState* e : shards) {
    for (const AggLogEntry& entry : e->entries) {
      out->entries.push_back(entry);
    }
  }
  std::stable_sort(out->entries.begin(), out->entries.end(),
                   [](const AggLogEntry& a, const AggLogEntry& b) {
                     return a.ts < b.ts;
                   });
  // Members: union the group tables. Shards partition state by key, so a
  // key normally lives on exactly one shard; accumulators are summed if one
  // ever appears on several (sums and counts are additive).
  out->members.resize(first.members.size());
  for (size_t m = 0; m < first.members.size(); ++m) {
    AggMemberState& merged = out->members[m];
    merged.cursor = 0;  // re-derived from membership bits at load time
    for (const AggEngineState* e : shards) {
      for (const AggGroupState& g : e->members[m].groups) {
        AggGroupState* found = nullptr;
        for (AggGroupState& have : merged.groups) {
          if (have.key == g.key) {
            found = &have;
            break;
          }
        }
        if (found == nullptr) {
          merged.groups.push_back(g);
        } else {
          found->count += g.count;
          found->isum += g.isum;
          found->double_count += g.double_count;
          found->dsum += g.dsum;
        }
      }
    }
  }
  return Status::OK();
}

// Which restored members draw from which saved (record, slot): equal
// fingerprints queue up in occurrence order; a queue that runs dry re-uses
// its first match (equal fingerprints imply identical state, so a CSE'd
// restored member and a duplicated saved member are both fine).
struct FpSources {
  std::deque<std::pair<int, int>> pending;  // (record index, member slot)
  std::pair<int, int> first{-1, -1};
  bool consumed = false;
};

}  // namespace

Result<std::string> SavePlanState(const Plan& plan) {
  Result<PlanFingerprints> fps_or = ComputeMemberFingerprints(plan);
  if (!fps_or.ok()) return fps_or.status();
  const PlanFingerprints& fps = fps_or.value();
  std::vector<MopState> records;
  for (MopId id : plan.LiveMops()) {
    MopState ms;
    const Mop& m = plan.mop(id);
    if (!m.SaveState(&ms)) continue;
    ms.member_fps = fps.members[id];
    for (int i = 0; i < m.num_members(); ++i) {
      ms.member_active.push_back(m.member_active(i) ? 1 : 0);
    }
    records.push_back(std::move(ms));
  }
  SnapshotWriter w;
  w.U32(static_cast<uint32_t>(records.size()));
  for (const MopState& ms : records) WriteMopState(w, ms);
  return w.Take();
}

Status ParsePlanState(std::string_view payload, std::vector<MopState>* out) {
  SnapshotReader r(payload);
  uint32_t count = 0;
  RUMOR_RETURN_IF_ERROR(r.U32(&count));
  std::vector<MopState> records;
  for (uint32_t i = 0; i < count; ++i) {
    MopState ms;
    RUMOR_RETURN_IF_ERROR(ReadMopState(r, &ms));
    records.push_back(std::move(ms));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after m-op state records");
  }
  *out = std::move(records);
  return Status::OK();
}

Result<std::vector<MopState>> MergeShardStates(
    std::vector<std::vector<MopState>> shards) {
  if (shards.empty()) return std::vector<MopState>{};
  if (shards.size() == 1) return std::move(shards[0]);
  const size_t num_records = shards[0].size();
  for (const auto& shard : shards) {
    if (shard.size() != num_records) {
      return Status::InvalidArgument(
          "shard state images have different record counts");
    }
  }
  std::vector<MopState> merged;
  for (size_t k = 0; k < num_records; ++k) {
    const MopState& first = shards[0][k];
    for (const auto& shard : shards) {
      const MopState& ms = shard[k];
      if (ms.kind != first.kind || ms.member_fps != first.member_fps ||
          ms.member_active != first.member_active ||
          ms.shared_state != first.shared_state ||
          ms.member_filtered != first.member_filtered ||
          ms.engines.size() != first.engines.size() ||
          ms.left.size() != first.left.size() ||
          ms.right.size() != first.right.size() ||
          ms.stores.size() != first.stores.size()) {
        return Status::InvalidArgument(
            StrCat("shard state images disagree on record ", k));
      }
    }
    MopState out;
    out.kind = first.kind;
    out.member_fps = first.member_fps;
    out.member_active = first.member_active;
    out.shared_state = first.shared_state;
    out.member_filtered = first.member_filtered;
    for (size_t e = 0; e < first.engines.size(); ++e) {
      std::vector<const AggEngineState*> sources;
      for (const auto& shard : shards) sources.push_back(&shard[k].engines[e]);
      AggEngineState merged_engine;
      RUMOR_RETURN_IF_ERROR(MergeEngines(sources, &merged_engine));
      out.engines.push_back(std::move(merged_engine));
    }
    auto merge_buffers = [&](std::vector<BufferState> MopState::* field) {
      std::vector<BufferState> result;
      const size_t count = (first.*field).size();
      for (size_t b = 0; b < count; ++b) {
        std::vector<std::vector<BufferSlotState>> per_shard;
        for (auto& shard : shards) {
          per_shard.push_back(std::move((shard[k].*field)[b].slots));
        }
        BufferState bs;
        bs.slots = MergeSlots(std::move(per_shard));
        result.push_back(std::move(bs));
      }
      return result;
    };
    out.left = merge_buffers(&MopState::left);
    out.right = merge_buffers(&MopState::right);
    out.stores = merge_buffers(&MopState::stores);
    merged.push_back(std::move(out));
  }
  return merged;
}

Status LoadPlanState(Plan& plan, const std::vector<MopState>& saved,
                     const ShardPlan* sharding, int shard) {
  Result<PlanFingerprints> fps_or = ComputeMemberFingerprints(plan);
  if (!fps_or.ok()) return fps_or.status();
  const PlanFingerprints& fps = fps_or.value();

  std::unordered_map<uint64_t, FpSources> sources;
  for (size_t rec = 0; rec < saved.size(); ++rec) {
    const MopState& ms = saved[rec];
    for (size_t s = 0; s < ms.member_fps.size(); ++s) {
      if (ms.member_fps[s] == 0) continue;  // inactive slot
      FpSources& fs = sources[ms.member_fps[s]];
      const auto entry = std::make_pair(static_cast<int>(rec),
                                        static_cast<int>(s));
      if (fs.first.first < 0) fs.first = entry;
      fs.pending.push_back(entry);
    }
  }

  // Resolve every restored stateful member to a saved source and apply the
  // bindings. Nothing is loaded until the whole match is validated, so a
  // mismatched snapshot leaves the plan untouched.
  struct PendingLoad {
    MopId id = kInvalidMop;
    MopStateBinding binding;
  };
  std::vector<PendingLoad> loads;
  for (MopId id : plan.LiveMops()) {
    Mop& m = plan.mop(id);
    MopState probe;
    if (!m.SaveState(&probe)) continue;  // stateless m-op
    PendingLoad load;
    load.id = id;
    load.binding.saved_slot.assign(m.num_members(), -1);
    int record = -1;
    for (int r = 0; r < m.num_members(); ++r) {
      const uint64_t fp = fps.members[id][r];
      if (fp == 0) continue;
      auto it = sources.find(fp);
      if (it == sources.end()) {
        return Status::InvalidArgument(
            StrCat("restored member ", r, " of m-op ", m.name(),
                   " has no saved state in the snapshot (snapshot/plan "
                   "mismatch)"));
      }
      FpSources& fs = it->second;
      std::pair<int, int> src = fs.first;
      if (!fs.pending.empty()) {
        src = fs.pending.front();
        fs.pending.pop_front();
      }
      fs.consumed = true;
      if (saved[src.first].kind != probe.kind) {
        return Status::InvalidArgument(
            StrCat("saved state kind mismatch for m-op ", m.name()));
      }
      if (record >= 0 && src.first != record) {
        return Status::Unimplemented(
            StrCat("members of restored m-op ", m.name(),
                   " draw state from several saved m-ops"));
      }
      record = src.first;
      load.binding.saved_slot[r] = src.second;
    }
    if (record < 0) continue;  // no active members (cannot happen today)
    load.binding.src = &saved[record];
    for (int p = 0; p < m.num_inputs(); ++p) {
      const ChannelId ch = plan.input_channel(id, p);
      load.binding.input_capacities.push_back(
          ch >= 0 ? plan.channel(ch).capacity() : 0);
    }
    loads.push_back(std::move(load));
  }

  // Every saved fingerprint must have fed at least one restored member —
  // otherwise part of the checkpointed state would silently vanish.
  for (const auto& [fp, fs] : sources) {
    if (!fs.consumed) {
      return Status::InvalidArgument(
          StrCat("saved state of m-op record ", fs.first.first, " member ",
                 fs.first.second,
                 " matches no member of the restored plan"));
    }
  }

  const bool placed = sharding != nullptr && sharding->num_shards > 1;
  for (PendingLoad& load : loads) {
    MopState mine;
    if (placed) {
      mine = StateOnShard(*load.binding.src, sharding->state[load.id], shard,
                          sharding->num_shards);
      load.binding.src = &mine;
    }
    RUMOR_RETURN_IF_ERROR(
        plan.mop(load.id).LoadState(*load.binding.src, load.binding));
  }
  return Status::OK();
}

}  // namespace rumor
