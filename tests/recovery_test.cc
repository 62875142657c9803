// Durability: snapshot round-trips, shared ⋈/;/µ state across windows
// (Fig. 10 mixes), restored state placed on the shard that owns it, the
// per-source last timestamp (and version-1 snapshots without it), and
// corrupted-snapshot rejection. That a restored engine's
// suffix outputs match an uninterrupted run's, at any cut, shard counts and
// churn around the cut, is the MQO oracle's checkpoint axis
// (mqo_oracle_test).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "common/snapshot_io.h"

namespace rumor {
namespace {

// --- snapshot_io unit round-trips --------------------------------------------

TEST(SnapshotIoTest, PrimitivesRoundTrip) {
  SnapshotWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.14159);
  w.Str("hello");
  w.Str("");
  w.WriteValue(Value());
  w.WriteValue(Value(int64_t{-7}));
  w.WriteValue(Value(2.5));
  w.WriteValue(Value("s"));
  w.WriteValue(Value(true));

  SnapshotReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.U32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(r.U64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(r.I64(&i64).ok());
  EXPECT_EQ(i64, -42);
  ASSERT_TRUE(r.F64(&f64).ok());
  EXPECT_EQ(f64, 3.14159);
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(s, "");
  Value v;
  ASSERT_TRUE(r.ReadValue(&v).ok());
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(r.ReadValue(&v).ok());
  EXPECT_EQ(v.AsInt(), -7);
  ASSERT_TRUE(r.ReadValue(&v).ok());
  EXPECT_EQ(v.AsDouble(), 2.5);
  ASSERT_TRUE(r.ReadValue(&v).ok());
  EXPECT_EQ(v.AsString(), "s");
  ASSERT_TRUE(r.ReadValue(&v).ok());
  EXPECT_TRUE(v.AsBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotIoTest, ReaderRejectsTruncation) {
  SnapshotWriter w;
  w.U64(1);
  SnapshotReader r(std::string_view(w.bytes()).substr(0, 3));
  uint64_t v = 0;
  EXPECT_FALSE(r.U64(&v).ok());
}

TEST(SnapshotIoTest, SectionsRoundTripThroughContainer) {
  SnapshotBuilder builder;
  SnapshotWriter w1;
  w1.Str("engine");
  builder.AddSection(SnapshotSection::kEngine, w1.Take());
  SnapshotWriter w2;
  w2.Str("state");
  builder.AddSection(SnapshotSection::kState, w2.Take());
  const std::string bytes = builder.Take();

  std::vector<SnapshotSectionView> sections;
  ASSERT_TRUE(ParseSnapshot(bytes, &sections).ok());
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].id, SnapshotSection::kEngine);
  EXPECT_EQ(sections[1].id, SnapshotSection::kState);
  std::string s;
  SnapshotReader r(sections[1].payload);
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(s, "state");
}

// --- equivalence harness ------------------------------------------------------

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}
Schema NetSchema() {
  return Schema({{"pid", ValueType::kInt}, {"bytes", ValueType::kInt}});
}

// Per-query output transcript; per-tuple pushes keep even the sharded merge
// order fully deterministic, so equality below is byte-identical equality.
using Outputs = std::map<std::string, std::vector<std::string>>;

void Attach(StreamEngine& engine, Outputs* out) {
  engine.SetOutputHandler([out](const std::string& q, const Tuple& t) {
    (*out)[q].push_back(t.ToString());
  });
}

// A workload exercising every stateful operator: selections (stateless),
// grouped AVG and MAX windows (extrema-queue state), a windowed equi-join,
// a sequence, and an iterate over a derived aggregate stream.
void AddWorkload(StreamEngine& engine) {
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.RegisterSource("NET", NetSchema()).ok());
  ASSERT_TRUE(engine.AddScript(
                  "HOT: SELECT * FROM CPU WHERE load > 50;"
                  "AVGQ: SELECT pid, AVG(load) FROM CPU [RANGE 20] "
                  "GROUP BY pid;"
                  "MAXQ: SELECT pid, MAX(load) FROM CPU [RANGE 15] "
                  "GROUP BY pid;"
                  "JQ: SELECT * FROM CPU [RANGE 10] JOIN NET [RANGE 10] "
                  "ON CPU.pid = NET.pid;"
                  "SQ: SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid "
                  "WITHIN 12;"
                  "RAMPS: SELECT * FROM (SELECT * FROM AVGQ WHERE "
                  "avg_load < 80) AS B ITERATE AVGQ AS E ON B.pid = E.pid "
                  "AND E.avg_load > last.avg_load WITHIN 30;")
                  .ok());
}

// Deterministic interleaved input: tuple i goes to CPU (even) or NET (odd).
void PushRange(StreamEngine& engine, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(engine
                      .Push("CPU", Tuple::MakeInts(
                                       {i % 5, (i * 37) % 100}, i))
                      .ok());
    } else {
      ASSERT_TRUE(engine
                      .Push("NET", Tuple::MakeInts(
                                       {i % 5, (i * 53) % 100}, i))
                      .ok());
    }
  }
}

// Attaches `out`, builds and starts an engine, and pushes up to some tuple.
using PrefixFn = std::function<void(StreamEngine&, Outputs*)>;

// The outputs of tuples [split, total) on an engine that ran `prefix`.
Outputs ReferenceSuffix(const PrefixFn& prefix, int split, int total) {
  Outputs out;
  StreamEngine engine;
  prefix(engine, &out);
  engine.Flush();
  out.clear();
  PushRange(engine, split, total);
  engine.Flush();
  return out;
}

// Runs `prefix` (up to tuple `split`), checkpoints, "crashes" (drops the
// engine), restores into a fresh engine at `restore_shards` and replays
// tuples [split, total) there. That suffix must be byte-identical to an
// uninterrupted run's, and non-empty.
void ExpectRestoreReplaysSuffix(const PrefixFn& prefix, int split, int total,
                                int restore_shards) {
  SCOPED_TRACE(testing::Message() << "restored at " << restore_shards
                                  << " shards");
  const Outputs expected = ReferenceSuffix(prefix, split, total);
  EXPECT_FALSE(expected.empty());
  std::string snapshot;
  {
    Outputs ignored;
    StreamEngine engine;
    prefix(engine, &ignored);
    ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
  }
  StreamEngine restored;
  ASSERT_TRUE(restored.SetShardCount(restore_shards).ok());
  Outputs actual;
  Attach(restored, &actual);
  const Status st = restored.Restore(snapshot);
  ASSERT_TRUE(st.ok()) << st.ToString();
  PushRange(restored, split, total);
  restored.Flush();
  EXPECT_EQ(actual, expected);
}

// --- Fig. 10 mixes: ;, µ and ⋈ queries that differ only in window ---------

// Four SEQ, four ITERATE and four JOIN queries over CPU and NET that differ
// only in the window (0 = no WITHIN); s⋈/s;/sµ fold each kind into one
// shared m-op. The widest member of each kind is listed first.
constexpr const char* kFig10Mix =
    "S0: SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid;"
    "S1: SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid WITHIN 6;"
    "S2: SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid WITHIN 17;"
    "S3: SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid WITHIN 6;"
    "I0: SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
    "NET.bytes > last.bytes WITHIN 40;"
    "I1: SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
    "NET.bytes > last.bytes WITHIN 7;"
    "I2: SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
    "NET.bytes > last.bytes WITHIN 16;"
    "I3: SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
    "NET.bytes > last.bytes WITHIN 26;"
    "J0: SELECT * FROM CPU [RANGE 40] JOIN NET [RANGE 35] "
    "ON CPU.pid = NET.pid;"
    "J1: SELECT * FROM CPU [RANGE 6] JOIN NET [RANGE 6] ON CPU.pid = NET.pid;"
    "J2: SELECT * FROM CPU [RANGE 16] JOIN NET [RANGE 5] "
    "ON CPU.pid = NET.pid;"
    "J3: SELECT * FROM CPU [RANGE 5] JOIN NET [RANGE 25] "
    "ON CPU.pid = NET.pid;";

void AddFig10Mix(StreamEngine& engine) {
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.RegisterSource("NET", NetSchema()).ok());
  ASSERT_TRUE(engine.AddScript(kFig10Mix).ok());
}

// The Fig. 10 mix at `shards`, up to tuple 120.
PrefixFn Fig10Prefix(int shards) {
  return [shards](StreamEngine& engine, Outputs* out) {
    Attach(engine, out);
    ASSERT_TRUE(engine.SetShardCount(shards).ok());
    AddFig10Mix(engine);
    ASSERT_TRUE(engine.Start().ok());
    EXPECT_EQ(engine.optimize_stats().shared_join_merges, 3);
    EXPECT_EQ(engine.optimize_stats().live_mops, 3);
    PushRange(engine, 0, 120);
  };
}

TEST(RecoveryTest, Fig10WindowMixRestoresAtOneAndFourShards) {
  // Every query has suffix outputs.
  EXPECT_EQ(ReferenceSuffix(Fig10Prefix(1), 120, 240).size(), 12u);
  ExpectRestoreReplaysSuffix(Fig10Prefix(1), 120, 240, 1);
  ExpectRestoreReplaysSuffix(Fig10Prefix(1), 120, 240, 4);
  ExpectRestoreReplaysSuffix(Fig10Prefix(4), 120, 240, 1);
}

// Removing the widest member of each shared m-op deactivates it: it stops
// emitting, the shared state shrinks to the widest remaining window, and
// its fingerprint leaves the snapshot, so the restored plan (built from the
// surviving queries) matches every saved member.
TEST(RecoveryTest, Fig10WindowMixSurvivesRemovingTheWidestMembers) {
  const PrefixFn prefix = [](StreamEngine& engine, Outputs* out) {
    Attach(engine, out);
    AddFig10Mix(engine);
    ASSERT_TRUE(engine.Start().ok());
    PushRange(engine, 0, 80);
    for (const char* q : {"S0", "I0", "J0"}) {
      ASSERT_TRUE(engine.RemoveQuery(q).ok()) << q;
    }
    EXPECT_EQ(engine.optimize_stats().pruned_members, 3);
    PushRange(engine, 80, 120);
  };
  for (int shards : {1, 4}) {
    ExpectRestoreReplaysSuffix(prefix, 120, 240, shards);
  }
}

// A live-added twin of an s;/sµ member is member-CSE'd onto the member's
// port, so it carries the member's fingerprint and history. The restored
// plan, whose CSE merges the twin into the same member, replays it byte for
// byte (a twin left as its own m-op would hand its fingerprint's saved
// state to the merged member twice and lose its own).
TEST(RecoveryTest, LiveTwinOfASharedPatternMemberRestores) {
  const PrefixFn prefix = [](StreamEngine& engine, Outputs* out) {
    Attach(engine, out);
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(engine.RegisterSource("NET", NetSchema()).ok());
    const std::string seq = "SELECT * FROM CPU SEQ NET ON CPU.pid = NET.pid";
    const std::string iter =
        "SELECT * FROM CPU ITERATE NET ON CPU.pid = NET.pid AND "
        "NET.bytes > last.bytes";
    ASSERT_TRUE(engine.AddQueryText(seq, "S0").ok());
    ASSERT_TRUE(engine.AddQueryText(seq + " WITHIN 6", "S1").ok());
    ASSERT_TRUE(engine.AddQueryText(iter, "I0").ok());
    ASSERT_TRUE(engine.AddQueryText(iter + " WITHIN 6", "I1").ok());
    ASSERT_TRUE(engine.Start().ok());
    EXPECT_EQ(engine.optimize_stats().live_mops, 2);
    PushRange(engine, 0, 61);
    ASSERT_TRUE(engine.AddQueryText(seq, "S0TWIN").ok());
    ASSERT_TRUE(engine.AddQueryText(iter, "I0TWIN").ok());
    EXPECT_EQ(engine.optimize_stats().incremental_cse_merges, 2);
    PushRange(engine, 61, 120);
  };
  for (int shards : {1, 4}) {
    ExpectRestoreReplaysSuffix(prefix, 120, 240, shards);
  }
}

// A COUNT(*), pinned with its source to one shard, and a SUM keyed on its
// GROUP BY column. A restore at several shards loads each state only where
// the routes send its tuples, so the restored engine's checkpoint holds it
// once, and restoring that checkpoint again reads what an uninterrupted
// engine reads: COUNT 50 over [RANGE 50], and the same SUM per key.
TEST(RecoveryTest, RestoredStateLivesOnTheShardThatOwnsIt) {
  const auto start = [](StreamEngine& engine, int shards, Outputs* out) {
    Attach(engine, out);
    ASSERT_TRUE(engine.SetShardCount(shards).ok());
    ASSERT_TRUE(engine.RegisterSource("S", CpuSchema()).ok());
    ASSERT_TRUE(engine.RegisterSource("T", NetSchema()).ok());
    ASSERT_TRUE(engine
                    .AddScript("C: SELECT COUNT(*) FROM S [RANGE 50];"
                               "K: SELECT pid, SUM(bytes) FROM T [RANGE 50] "
                               "GROUP BY pid;")
                    .ok());
    ASSERT_TRUE(engine.Start().ok());
  };
  const auto push = [](StreamEngine& engine, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({i % 7, i}, i)).ok());
      ASSERT_TRUE(
          engine.Push("T", Tuple::MakeInts({i % 5, (i * 37) % 100}, i)).ok());
    }
    engine.Flush();
  };
  // Checkpoints `engine` and restores the snapshot into `into`.
  const auto move = [](StreamEngine& engine, StreamEngine& into, int shards,
                       Outputs* out) {
    std::string snapshot;
    ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
    Attach(into, out);
    ASSERT_TRUE(into.SetShardCount(shards).ok());
    const Status st = into.Restore(snapshot);
    ASSERT_TRUE(st.ok()) << st.ToString();
  };

  Outputs expected;
  {
    StreamEngine engine;
    start(engine, 1, &expected);
    push(engine, 0, 120);
    expected.clear();
    push(engine, 120, 130);
  }
  ASSERT_EQ(expected["C"].size(), 10u);
  EXPECT_EQ(expected["C"].back(), "[ts=129| 50]");
  EXPECT_EQ(expected["K"].size(), 10u);

  for (const auto& [first, second] : {std::pair{1, 4}, std::pair{4, 2}}) {
    SCOPED_TRACE(testing::Message() << first << " -> " << second << " -> 1");
    Outputs ignored, actual;
    StreamEngine engine;
    start(engine, first, &ignored);
    push(engine, 0, 100);
    StreamEngine restored;
    move(engine, restored, second, &ignored);
    push(restored, 100, 120);
    StreamEngine again;
    move(restored, again, 1, &actual);
    push(again, 120, 130);
    EXPECT_EQ(actual, expected);
  }
}

// Pattern queries added after Start() stay isolated m-ops, each with its own
// consumption history; the restore's batch Optimize merges them into one
// shared m-op, which cannot take state from several saved m-ops. The
// restore fails with a Status instead of loading a wrong state.
TEST(RecoveryTest, RestoreRejectsMergingLiveAddedPatternQueries) {
  std::string snapshot;
  {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(engine.RegisterSource("NET", NetSchema()).ok());
    ASSERT_TRUE(engine
                    .AddQueryText("SELECT * FROM CPU SEQ NET ON CPU.pid = "
                                  "NET.pid WITHIN 6",
                                  "A")
                    .ok());
    ASSERT_TRUE(engine.Start().ok());
    PushRange(engine, 0, 40);
    ASSERT_TRUE(engine
                    .AddQueryText("SELECT * FROM CPU SEQ NET ON CPU.pid = "
                                  "NET.pid WITHIN 17",
                                  "B")
                    .ok());
    PushRange(engine, 40, 80);
    ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
  }
  StreamEngine restored;
  Outputs actual;
  Attach(restored, &actual);
  const Status st = restored.Restore(snapshot);
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st.ToString();
  // The failed restore put the engine back the way it found it, so another
  // restore into it works.
  EXPECT_FALSE(restored.started());
  EXPECT_EQ(restored.num_queries(), 0);
  std::string good;
  {
    Outputs ignored;
    StreamEngine engine;
    Fig10Prefix(1)(engine, &ignored);
    ASSERT_TRUE(engine.Checkpoint(&good).ok());
  }
  const Status retry = restored.Restore(good);
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  PushRange(restored, 120, 240);
  EXPECT_EQ(actual, ReferenceSuffix(Fig10Prefix(1), 120, 240));
}

// Frames `sections` as a snapshot of format `version`, the way
// SnapshotBuilder frames the current version.
std::string FrameSnapshot(uint32_t version,
                          const std::vector<std::pair<SnapshotSection,
                                                      std::string>>& sections) {
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  SnapshotWriter w;
  w.U32(version);
  for (const auto& [id, payload] : sections) {
    w.U32(static_cast<uint32_t>(id));
    w.U64(payload.size());
    w.U32(Crc32(payload));
    out += w.Take();
    out += payload;
  }
  return out;
}

// A checkpoint carries each source's last timestamp, so the restored engine
// rejects a push below it and accepts one at it, as the original would.
TEST(RecoveryTest, RestoredEngineKeepsEachSourcesLastTimestamp) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    std::string snapshot;
    {
      StreamEngine engine;
      ASSERT_TRUE(engine.SetShardCount(shards).ok());
      AddWorkload(engine);
      ASSERT_TRUE(engine.Start().ok());
      PushRange(engine, 0, 50);  // CPU's last ts is 48, NET's 49
      ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
    }
    StreamEngine restored;
    ASSERT_TRUE(restored.SetShardCount(shards).ok());
    ASSERT_TRUE(restored.Restore(snapshot).ok());
    EXPECT_EQ(restored.Push("CPU", Tuple::MakeInts({1, 1}, 47)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(restored.Push("NET", Tuple::MakeInts({1, 1}, 48)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(restored.Push("CPU", Tuple::MakeInts({1, 1}, 48)).ok());
    EXPECT_TRUE(restored.Push("NET", Tuple::MakeInts({1, 1}, 49)).ok());
  }
}

// A version-1 snapshot, whose sources carry no last timestamp, restores and
// runs on.
TEST(RecoveryTest, VersionOneSnapshotRestores) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    std::string snapshot;
    int64_t hot = 0;
    {
      StreamEngine engine;
      ASSERT_TRUE(engine.SetShardCount(shards).ok());
      AddWorkload(engine);
      ASSERT_TRUE(engine.Start().ok());
      PushRange(engine, 0, 50);
      ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());  // flushes first
      hot = engine.OutputCount("HOT");
    }
    std::vector<SnapshotSectionView> views;
    uint32_t version = 0;
    ASSERT_TRUE(ParseSnapshot(snapshot, &views, &version).ok());
    ASSERT_EQ(version, kSnapshotVersion);
    std::vector<std::pair<SnapshotSection, std::string>> sections;
    for (const SnapshotSectionView& v : views) {
      std::string payload(v.payload);
      if (v.id == SnapshotSection::kSources) {
        // Re-encode every source without its trailing last timestamp.
        SnapshotReader r(v.payload);
        SnapshotWriter w;
        uint32_t n = 0, attrs = 0;
        std::string name;
        int64_t i64 = 0;
        uint8_t type = 0;
        ASSERT_TRUE(r.U32(&n).ok());
        w.U32(n);
        for (uint32_t s = 0; s < n; ++s) {
          ASSERT_TRUE(r.Str(&name).ok());
          w.Str(name);
          ASSERT_TRUE(r.I64(&i64).ok());
          w.I64(i64);
          ASSERT_TRUE(r.U32(&attrs).ok());
          w.U32(attrs);
          for (uint32_t a = 0; a < attrs; ++a) {
            ASSERT_TRUE(r.Str(&name).ok());
            w.Str(name);
            ASSERT_TRUE(r.U8(&type).ok());
            w.U8(type);
          }
          ASSERT_TRUE(r.I64(&i64).ok());  // the last timestamp
        }
        ASSERT_TRUE(r.AtEnd());
        payload = w.Take();
      }
      sections.push_back({v.id, std::move(payload)});
    }
    StreamEngine restored;
    ASSERT_TRUE(restored.SetShardCount(shards).ok());
    Status st = restored.Restore(FrameSnapshot(1, sections));
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(restored.OutputCount("HOT"), hot);
    EXPECT_TRUE(restored.Push("CPU", Tuple::MakeInts({1, 99}, 50)).ok());
    restored.Flush();
    EXPECT_EQ(restored.OutputCount("HOT"), hot + 1);
  }
}

TEST(RecoveryTest, CheckpointRequiresStartedEngine) {
  StreamEngine engine;
  std::string snapshot;
  EXPECT_FALSE(engine.Checkpoint(&snapshot).ok());
}

TEST(RecoveryTest, RestoreRequiresFreshEngine) {
  std::string snapshot;
  {
    StreamEngine engine;
    AddWorkload(engine);
    ASSERT_TRUE(engine.Start().ok());
    ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
  }
  StreamEngine busy;
  ASSERT_TRUE(busy.RegisterSource("CPU", CpuSchema()).ok());
  EXPECT_FALSE(busy.Restore(snapshot).ok());
}

// Corrupted snapshots: every corruption is rejected cleanly, no partial
// state sticks, and the engine afterwards restores a pristine copy.
TEST(RecoveryTest, CorruptedSnapshotTable) {
  std::string snapshot;
  {
    StreamEngine engine;
    AddWorkload(engine);
    ASSERT_TRUE(engine.Start().ok());
    PushRange(engine, 0, 60);
    ASSERT_TRUE(engine.Checkpoint(&snapshot).ok());
  }

  struct Case {
    const char* name;
    std::string bytes;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", ""});
  cases.push_back({"truncated-header", snapshot.substr(0, 6)});
  cases.push_back({"truncated-half", snapshot.substr(0, snapshot.size() / 2)});
  cases.push_back({"truncated-tail", snapshot.substr(0, snapshot.size() - 1)});
  {
    std::string s = snapshot;
    s[2] ^= 0x01;  // magic
    cases.push_back({"bad-magic", std::move(s)});
  }
  {
    std::string s = snapshot;
    s[8] += 1;  // format version (little-endian u32 after the magic)
    cases.push_back({"version-bump", std::move(s)});
  }
  for (size_t offset : {snapshot.size() / 3, snapshot.size() - 2}) {
    std::string s = snapshot;
    s[offset] ^= 0x10;  // payload bit flips -> CRC mismatch
    cases.push_back({"bit-flip", std::move(s)});
  }
  {
    // A well-framed aggregate record holding two engines: an aggregate
    // m-op keeps one, so no restored m-op can take it.
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(engine
                    .AddQueryText("SELECT pid, AVG(load) FROM CPU [RANGE 20] "
                                  "GROUP BY pid",
                                  "A")
                    .ok());
    ASSERT_TRUE(engine.Start().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({i % 5, i}, i)).ok());
    }
    std::string one;
    ASSERT_TRUE(engine.Checkpoint(&one).ok());
    std::vector<SnapshotSectionView> views;
    ASSERT_TRUE(ParseSnapshot(one, &views).ok());
    std::vector<std::pair<SnapshotSection, std::string>> sections;
    for (const SnapshotSectionView& v : views) {
      std::string payload(v.payload);
      if (v.id == SnapshotSection::kState) {
        // One record: count u32, kind u8, 1 member (u32 count, u64
        // fingerprint, u8 active), shared and filtered u8s, then the engine
        // count at offset 20, the engine, and three empty buffer lists.
        const size_t kEngines = 20, kTail = 12;
        ASSERT_GT(payload.size(), kEngines + 4 + kTail);
        ASSERT_EQ(payload[kEngines], 1);
        const std::string engine_bytes =
            payload.substr(kEngines + 4, payload.size() - kEngines - 4 - kTail);
        SnapshotWriter w;
        w.U32(2);
        payload = payload.substr(0, kEngines) + w.Take() + engine_bytes +
                  engine_bytes + payload.substr(payload.size() - kTail);
      }
      sections.push_back({v.id, std::move(payload)});
    }
    cases.push_back(
        {"two-engine-aggregate", FrameSnapshot(kSnapshotVersion, sections)});
  }

  for (const Case& c : cases) {
    StreamEngine engine;
    Status st = engine.Restore(c.bytes);
    EXPECT_FALSE(st.ok()) << c.name;
    // No partial state: the engine is still fresh enough to restore the
    // intact snapshot and then run normally.
    Status ok = engine.Restore(snapshot);
    EXPECT_TRUE(ok.ok()) << c.name << ": " << ok.ToString();
    PushRange(engine, 60, 70);
  }
}

TEST(RecoveryTest, FileRoundTripWorks) {
  const std::string path =
      std::string(::testing::TempDir()) + "engine.snap";
  {
    StreamEngine engine;
    AddWorkload(engine);
    ASSERT_TRUE(engine.Start().ok());
    PushRange(engine, 0, 50);
    ASSERT_TRUE(engine.CheckpointToFile(path).ok());
  }
  StreamEngine restored;
  Outputs out;
  Attach(restored, &out);
  ASSERT_TRUE(restored.RestoreFromFile(path).ok());
  PushRange(restored, 50, 60);
  std::remove(path.c_str());
}

TEST(RecoveryTest, CheckpointRejectsLogicalObjectQueries) {
  // A query added as a logical object has no RQL text to re-parse; the
  // checkpoint must say so instead of writing an unrestorable snapshot.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "TEXTED").ok());
  ASSERT_TRUE(engine.Start().ok());
  auto parsed = ParseQuery("SELECT * FROM CPU WHERE load > 1",
                           Catalog());  // parse out-of-band: no text recorded
  ASSERT_TRUE(!parsed.ok());  // unknown source in an empty catalog
  Catalog catalog;
  catalog.AddSource("CPU", CpuSchema());
  auto q = ParseQuery("SELECT * FROM CPU WHERE load > 1", catalog);
  ASSERT_TRUE(q.ok());
  Query query = std::move(q).value();
  query.name = "OBJ";
  ASSERT_TRUE(engine.AddQuery(std::move(query)).ok());
  std::string snapshot;
  Status st = engine.Checkpoint(&snapshot);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("OBJ"), std::string::npos);
}

// Regression: the metrics ticker thread must always be joined — on engine
// destruction and on restart — even right after StartMetricsTicker.
TEST(RecoveryTest, MetricsTickerAlwaysJoined) {
  for (int i = 0; i < 3; ++i) {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Q").ok());
    ASSERT_TRUE(engine.Start().ok());
    engine.StartMetricsTicker(std::chrono::milliseconds(1));
    engine.StartMetricsTicker(std::chrono::milliseconds(1));  // replaces
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    if (i == 0) engine.StopMetricsTicker();  // explicit stop path
    // Otherwise the destructor must stop + join (ASan/TSan would flag a
    // leaked running thread).
  }
  SUCCEED();
}

}  // namespace
}  // namespace rumor
