// The MQO differential oracle: every query must get from the shared plan
// what it gets running alone (an m-op is the one-by-one execution of its
// members, §2.2, and m-rules apply in any order, §3.3). Each seed generates
// an RQL script over the parsed algebra and a bursty feed, and runs them
// through StreamEngine as the reference (every rule off, one shard, one
// Push per tuple, every query added before Start) and under a drawn rule
// subset and order, batch size, shard count, live add/remove churn or none,
// and checkpoint cut (restored at a drawn shard count; one restore in two
// is checkpointed again later and restored at another) or none. Per query,
// the outputs of each timestamp must match as multisets (a tuple reaching an
// m-op through two ports may do so in either order), in timestamp order
// where the run has one shard or batch size 1, and byte for byte against
// the same plan at batch size 1 on one shard. With churn, the queries that
// lived through it must match all along, and every query once a gap longer
// than every window has cleared what a live add inherits. One seed in eight
// shifts the feed to INT64_MIN, and one in eight starts there and jumps to 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "mop/mop.h"

namespace rumor {
namespace {

constexpr int kSeeds = 576;   // every rule configuration nine times
constexpr int64_t kGap = 40;  // longer than every window drawn below
constexpr Timestamp kOldest = std::numeric_limits<Timestamp>::min();

// S, T and P are plain sources; L0-L2 share sharable label 0. P and the
// labelled sources each feed one channel family only.
enum Source { kS, kT, kP, kL0, kNumSources = kL0 + 3 };
const char* const kSourceNames[kNumSources] = {"S",  "T",  "P",
                                               "L0", "L1", "L2"};

// A query shape: RQL with placeholders (Generator::Expand). A shape with a
// head, or whose member reads its own stream ($X), a labelled source ($L)
// or has a window of its own ($i, $V), is a family: it adds its `head` once
// and its `member` query for two to four members, each with its own
// constant and windows; the channel rules and s⋈/s;/sµ fire on families.
struct Shape {
  const char* name;
  const char* member;
  const char* head = nullptr;
};
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> kShapes = {
      {"σ =", "SELECT * FROM $B WHERE $a = $c"},
      {"σ range", "SELECT * FROM $B WHERE $a $o $c$q"},
      {"σ residual", "SELECT * FROM $B WHERE $r$c"},
      {"σ string", "SELECT * FROM $B WHERE s $e '$s'"},
      {"σ and/or/not", "SELECT * FROM $B WHERE $p"},
      {"σ ts", "SELECT * FROM $B WHERE ts % 4 = $c"},
      {"π", "SELECT $P FROM $B$u"},
      {"COUNT", "SELECT $gCOUNT(*) FROM $B [RANGE $w]$G"},
      {"SUM", "SELECT $gSUM($a) FROM $B [RANGE $w]$G"},
      {"AVG", "SELECT $gAVG($a) FROM $B [RANGE $w]$G"},
      {"MIN", "SELECT $gMIN($a) FROM $B [RANGE $w]$G"},
      {"MAX", "SELECT $gMAX($a) FROM $B [RANGE $w]$G"},
      {"zip", "SELECT $gSUM(a1), MAX(a2) FROM $B [RANGE $w]$G"},
      {"MIN/MAX string", "SELECT $g$m(s) FROM $B [RANGE $w]$G"},
      {"⋈", "SELECT * FROM $l [RANGE $i] AS A JOIN $R [RANGE $i] AS B ON $n"},
      {";", "SELECT * FROM $l AS A SEQ $R AS B ON $n$V"},
      {"µ",
       "SELECT * FROM $l AS A ITERATE $R AS B ON A.a0 = B.a0 AND "
       "B.a1 > last.a1$V"},
      {"σ over α", "SELECT * FROM $H WHERE a0 $o $c",
       "SELECT a0, $f FROM $B [RANGE $w] GROUP BY a0"},
      {"twin", ""},
      // Fig. 11: α, per-threshold σ, ITERATE over the α (sσ, cµ).
      {"Fig. 11",
       "SELECT * FROM (SELECT * FROM $H WHERE a0 <= $k) AS B ITERATE $H AS E "
       "ON B.a0 = E.a0 AND E.avg_a1 > last.avg_a1$W",
       "SELECT a0, AVG(a1) FROM $X [RANGE $w] GROUP BY a0"},
      // Fig. 2/3: per-constant σ, ITERATE, then a σ over it (cµ, cσ).
      {"Fig. 2/3",
       "SELECT * FROM (SELECT * FROM $X WHERE a0 = $k) AS B ITERATE T AS E "
       "ON B.a1 = E.a1 AND E.a2 > last.a2$W WHERE last.a0 > 0"},
      {"c⋈",
       "SELECT * FROM (SELECT * FROM $X WHERE a0 = $k) [RANGE $j] AS A JOIN "
       "(SELECT * FROM $Y WHERE a0 = $k) [RANGE $j] AS B ON A.a1 = B.a1"},
      {"c;",
       "SELECT * FROM (SELECT * FROM $X WHERE a0 = $k) AS A SEQ T AS B "
       "ON A.a1 = B.a1$W"},
      {"cπ", "SELECT a1, a2 FROM $X WHERE a0 = $k"},
      {"cα", "SELECT a1, $f FROM $L [RANGE $w] GROUP BY a1"},
  };
  return kShapes;
}
constexpr int kTwin = 18;
const int kChannelAggregate = static_cast<int>(Shapes().size()) - 1;

// What the other placeholders draw from; a draw may hold placeholders too.
const std::map<char, std::vector<const char*>>& Choices() {
  static const std::map<char, std::vector<const char*>> kChoices = {
      {'B', {"S", "T"}},
      {'a', {"a0", "a1", "a2"}},
      {'c', {"0", "1", "2", "3"}},
      {'o', {"<", "<=", ">", ">=", "!="}},
      {'q', {"", " AND a1 >= 1"}},
      {'r', {"a0 + a1 > ", "a2 - a0 >= ", "a1 * 2 < ", "a2 % 3 = "}},
      {'e', {"=", "!="}},
      {'s', {"x", "y", "z"}},
      {'P', {"a2, a0", "s, a1", "a1"}},
      {'u', {"", " WHERE a0 != 1"}},
      {'w', {"4", "8", "16"}},
      {'g', {"", "a0, ", "a1, ", "a0, a1, "}},
      {'m', {"MIN", "MAX"}},
      // σ(S) ; σ(T) is Workload 1; σ's of one source feed both ports.
      {'l', {"S", "(SELECT * FROM S WHERE a0 = $c)",
             "(SELECT * FROM $B WHERE a0 = $c)"}},
      {'R', {"T", "(SELECT * FROM T WHERE a0 = $c)",
             "(SELECT * FROM $B WHERE a1 = $c)"}},
      {'j', {"0", "4", "8", "16"}},
      {'i', {"0", "4", "8", "16"}},
      {'n',
       {"A.a0 = B.a0", "A.a0 = B.a0", "A.a0 = B.a0 AND B.a1 <= 2",
        "A.a1 < B.a1"}},
      // No WITHIN and WITHIN 0 are unbounded.
      {'W', {"", " WITHIN 0", " WITHIN 4", " WITHIN 8", " WITHIN 16"}},
      {'V', {"", " WITHIN 0", " WITHIN 4", " WITHIN 8", " WITHIN 16"}},
      {'f', {"SUM(a0)", "COUNT(*)", "AVG(a2)", "MIN(a0)", "MAX(s)"}},
      // AND, OR and NOT over attribute and double constant comparisons.
      {'p',
       {"($a $o $c AND $a < $a)", "(s = '$s' OR NOT $a >= $c)",
        "NOT ($a + $a <= $c OR $a < $c.5)",
        "(($a $o $c OR $a $o $c) AND NOT s = '$s')"}},
  };
  return kChoices;
}

struct QueryDef {
  std::string name, text;
  int shape = 0;
  uint32_t sources = 0;    // one bit per Source it reads, through its inputs
  bool stateful = false;   // has a window, ; or µ of its own
  bool unbounded = false;  // reads a ; or µ without a window
  bool reads_ts = false;
  std::vector<int> inputs;  // the queries it reads
};

struct Event {
  int source;
  Tuple tuple;
};

struct Op {
  int at;  // applied before event `at`
  bool add;
  int query;
};

// One seed: the script, the churn schedule, the feed and the configuration.
struct Case {
  std::vector<QueryDef> defs;  // every query ever added
  std::vector<int> initial;    // added before Start
  std::vector<Op> ops;
  std::vector<Event> feed;
  int gap = -1;  // first event after the window-clearing gap (churn only)
  int cut = -1;  // checkpoint before this event (-1: none)
  int cut2 = -1;  // the restored engine's checkpoint (-1: none)
  OptimizerOptions options;
  int batch = 1, shards = 1, restore_shards = 1, restore_shards2 = 1;
  int feed_kind = 0;  // 0: from 0, 1: shifted to INT64_MIN, 2: jump to 0
  std::vector<Event> unshifted;  // feed_kind 1: the feed from 0
};

// Generates queries into `defs`. With `live`, a query over queries and a
// twin read live queries only.
class Generator {
 public:
  Generator(Rng& rng, std::vector<QueryDef>* defs,
            const std::vector<char>* live = nullptr)
      : rng_(rng), defs_(defs), live_(live) {}

  // Appends one shape's queries; family shapes only where `families`.
  void Draw(bool families) {
    int shape = static_cast<int>(
        rng_.UniformInt(0, families ? Shapes().size() - 1 : kTwin));
    if (shape == kChannelAggregate && labelled_taken_) shape = 0;
    if (shape == kTwin && defs_->empty()) shape = 0;
    if (shape == kTwin) return Twin();
    const Shape& s = Shapes()[shape];
    scope_.clear();
    if (s.head != nullptr) head_ = Emit(shape, Expand(s.head, shape, 0, 0));
    // The labelled sources serve one cα family of at most three members.
    labelled_taken_ |= shape == kChannelAggregate;
    const std::string member = s.member;
    bool family = s.head != nullptr;
    for (const char* key : {"$X", "$L", "$i", "$V"}) {
      family |= member.find(key) != std::string::npos;
    }
    const int members =
        family ? rng_.UniformInt(2, shape == kChannelAggregate ? 3 : 4) : 1;
    const int constant = static_cast<int>(rng_.UniformInt(0, 3));
    for (int m = 0; m < members; ++m) {
      Emit(shape, Expand(s.member, shape, m, (constant + m) % 4));
    }
  }

  // The text of a live query under a new name.
  void Twin() {
    size_t q;
    do {
      q = rng_.UniformInt(0, defs_->size() - 1);
    } while (live_ != nullptr && q < live_->size() && !(*live_)[q]);
    Emit(kTwin, (*defs_)[q].text);
  }

 private:

  // Appends the query `text`, with the sources and queries (named Q<index>)
  // it reads; returns its index.
  int Emit(int shape, const std::string& text) {
    QueryDef q;
    q.name = StrCat("Q", defs_->size());
    q.text = text;
    q.shape = shape;
    q.reads_ts = text.find("ts %") != std::string::npos;
    const size_t within = text.find(" WITHIN ");
    const bool pattern = text.find(" SEQ ") != std::string::npos ||
                         text.find(" ITERATE ") != std::string::npos;
    q.stateful = pattern || text.find("[RANGE") != std::string::npos;
    q.unbounded =
        pattern && (within == std::string::npos || text[within + 8] == '0');
    std::string token;
    for (const char ch : text + " ") {
      if (std::isalnum(static_cast<unsigned char>(ch))) {
        token += ch;
        continue;
      }
      for (int s = 0; s < kNumSources; ++s) {
        if (token == kSourceNames[s]) q.sources |= 1u << s;
      }
      if (token.size() > 1 && token[0] == 'Q') {
        const int in = std::stoi(token.substr(1));
        const QueryDef& input = (*defs_)[in];
        q.inputs.push_back(in);
        q.sources |= input.sources;
        q.unbounded |= input.unbounded;
        q.reads_ts |= input.reads_ts;
      }
      token.clear();
    }
    defs_->push_back(std::move(q));
    return static_cast<int>(defs_->size()) - 1;
  }

  // A stream no other query reads, so that every output of the σ-index over
  // it feeds a consumer of one definition: P, once per script, or a σ of
  // its own that passes every tuple.
  std::string Own(int shape) {
    if (!p_taken_ && rng_.UniformInt(0, 1) == 0) {
      p_taken_ = true;
      return "P";
    }
    const char* base = rng_.UniformInt(0, 1) == 0 ? "S" : "T";
    return (*defs_)[Emit(shape, StrCat("SELECT * FROM ", base, " WHERE a2 > ",
                                       -1 - own_streams_++))]
        .name;
  }

  // Placeholders: $L the member's labelled source, $X and $Y the family's
  // own streams, $H the family head, $k the member's constant, $G the GROUP
  // BY of the keys $g drew; the others draw from Choices(). A draw holds for
  // the whole family, except that $a, $c, $o, $e, $s and $p draw anew at
  // each use, and $i and $V at each use within a member.
  std::string Expand(const std::string& text, int shape, int member,
                     int constant) {
    std::string out;
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] != '$') {
        out += text[i];
        continue;
      }
      const char key = text[++i];
      const bool fixed = std::string("acoesp").find(key) == std::string::npos;
      if (fixed && scope_.count(key)) {
        out += scope_[key];
        continue;
      }
      std::string value;
      switch (key) {
        case 'L': value = kSourceNames[kL0 + member]; break;
        case 'X': case 'Y': value = Own(shape); break;
        case 'H': value = (*defs_)[head_].name; break;
        case 'k': value = std::to_string(constant); break;
        case 'G': {
          const std::string& g = scope_.at('g');
          value = g.empty() ? "" : " GROUP BY " + g.substr(0, g.size() - 2);
          break;
        }
        default: {
          const auto& options = Choices().at(key);
          value = Expand(options[rng_.UniformInt(0, options.size() - 1)],
                         shape, member, constant);
        }
      }
      // Per-member values hold for their own query only.
      if (fixed && std::string("LkiV").find(key) == std::string::npos) {
        scope_[key] = value;
      }
      out += value;
    }
    return out;
  }

  Rng& rng_;
  std::vector<QueryDef>* defs_;
  const std::vector<char>* live_;
  std::map<char, std::string> scope_;  // the family's draws
  int head_ = -1;
  int own_streams_ = 0;
  bool p_taken_ = false;
  bool labelled_taken_ = false;
};

// --- feed and schedule -------------------------------------------------------

Value IntColumn(Rng& rng, int64_t hi) {
  // Some doubles in int columns, integral or not.
  if (rng.UniformInt(0, 19) == 0) {
    return Value(static_cast<double>(rng.UniformInt(0, hi)) +
                 (rng.UniformInt(0, 1) == 0 ? 0.0 : 0.5));
  }
  return Value(rng.UniformInt(0, hi));
}

// `n` events over the sources in `sources`: same-source bursts, small value
// domains, non-decreasing timestamps with repeats, from 0. The window-
// clearing gap (churn only) comes before event `gap`.
std::vector<Event> MakeFeed(Rng& rng, uint32_t sources, int n, int gap) {
  std::vector<int> active;
  for (int s = 0; s < kNumSources; ++s) {
    if (sources & (1u << s)) active.push_back(s);
  }
  const char* const strings[] = {"x", "y", "z"};
  std::vector<Event> feed;
  Timestamp ts = 0;
  int source = active[0], burst = 0;
  for (int i = 0; i < n; ++i) {
    if (burst-- == 0) {
      source = active[rng.UniformInt(0, active.size() - 1)];
      burst = static_cast<int>(rng.UniformInt(0, 11));
    }
    if (i == gap) ts += kGap;
    if (rng.UniformInt(0, 3) > 0) ts += rng.UniformInt(1, 3);
    feed.push_back({source, Tuple::Make({IntColumn(rng, 3), IntColumn(rng, 3),
                                         IntColumn(rng, 5),
                                         Value(strings[rng.UniformInt(0, 2)])},
                                        ts)});
  }
  return feed;
}

// Live adds (new queries, twins of live ones, re-adds of removed names) and
// removes of live queries, between pushes before the gap. A remove of a
// query that a live query reads is refused, and the query stays live.
void MakeChurn(Rng& rng, Case* c) {
  std::vector<char> live(c->defs.size(), 1);
  Generator gen(rng, &c->defs, &live);
  std::vector<int> at(rng.UniformInt(3, 10));
  for (int& a : at) a = static_cast<int>(rng.UniformInt(1, c->gap));
  std::sort(at.begin(), at.end());
  for (int when : at) {
    // Removable: live; re-addable: removed, reading live queries only.
    std::vector<int> read(live.size(), 0), choices[2];
    for (size_t q = 0; q < live.size(); ++q) {
      for (int in : c->defs[q].inputs) read[in] += live[q];
    }
    for (size_t q = 0; q < live.size(); ++q) {
      bool inputs_live = true;
      for (int in : c->defs[q].inputs) inputs_live &= live[in] != 0;
      if (live[q] || inputs_live) choices[!!live[q]].push_back(q);
    }
    const int64_t r = rng.UniformInt(0, 9);
    const bool remove = r < 4 && !choices[1].empty() &&
                        std::count(live.begin(), live.end(), 1) > 2;
    if (remove || (r < 6 && !choices[0].empty())) {
      const std::vector<int>& from = choices[remove ? 1 : 0];
      const int q = from[rng.UniformInt(0, from.size() - 1)];
      if (!remove || read[q] == 0) live[q] = !remove;
      c->ops.push_back({when, !remove, q});
    } else {
      // A draw may add its input stream first; every new query goes live.
      const size_t first = c->defs.size();
      if (r < 8) {
        gen.Draw(/*families=*/false);
      } else {
        gen.Twin();
      }
      for (size_t q = first; q < c->defs.size(); ++q) {
        c->ops.push_back({when, true, static_cast<int>(q)});
      }
      live.resize(c->defs.size(), 1);
    }
  }
}

Case MakeCase(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  Case c;
  Generator gen(rng, &c.defs);
  const size_t target = rng.UniformInt(10, 40);
  while (c.defs.size() < target) gen.Draw(/*families=*/true);
  for (size_t q = 0; q < c.defs.size(); ++q) c.initial.push_back(q);

  const int rules = static_cast<int>(seed % 64);  // one bit per flag
  c.options.enable_cse = rules & 1;
  c.options.enable_predicate_index = rules & 2;
  c.options.enable_shared_aggregate = rules & 4;
  c.options.enable_shared_join = rules & 8;
  c.options.enable_channels = rules & 16;
  c.options.channel_rules_first = rules & 32;
  const int kBatches[] = {1, 7, 64, 1024}, kShards[] = {1, 2, 4, 7};
  c.batch = kBatches[rng.UniformInt(0, 3)];
  c.shards = kShards[rng.UniformInt(0, 3)];
  c.restore_shards = kShards[rng.UniformInt(0, 3)];
  const int n = static_cast<int>(rng.UniformInt(300, 600));
  if (rng.UniformInt(0, 2) == 0) {
    c.gap = n * 2 / 3;
    MakeChurn(rng, &c);
  }
  // A cut before the first event, after the last, inside, or none.
  const int inside = static_cast<int>(rng.UniformInt(1, n - 1));
  const int cuts[] = {0, n, inside, inside, -1};
  c.cut = cuts[std::min<int64_t>(rng.UniformInt(0, 7), 4)];
  uint32_t sources = 0;
  for (const QueryDef& q : c.defs) sources |= q.sources;
  c.feed = MakeFeed(rng, sources, n, c.gap);
  c.feed_kind = static_cast<int>(std::max<int64_t>(rng.UniformInt(-5, 2), 0));
  if (c.feed_kind == 1) c.unshifted = c.feed;
  const int shifted = c.feed_kind == 0   ? 0
                      : c.feed_kind == 1 ? n
                                         : rng.UniformInt(1, n / 2);
  for (Event& e : std::span(c.feed).first(shifted)) {
    e.tuple = e.tuple.WithTimestamp(e.tuple.ts() + kOldest);
  }
  // One restore in two takes part of the rest of the feed, is checkpointed
  // again and restored at another drawn shard count. The second cut comes
  // within about a window of the first, while restored state still counts.
  if (c.cut >= 0 && rng.UniformInt(0, 1) == 0) {
    c.cut2 = static_cast<int>(rng.UniformInt(c.cut, std::min(n, c.cut + 24)));
    c.restore_shards2 = kShards[rng.UniformInt(0, 3)];
  }
  return c;
}

// --- runs --------------------------------------------------------------------

struct Row {
  Timestamp ts;
  std::string values;  // doubles bit-exactly
  auto operator<=>(const Row&) const = default;
};

constexpr int kStart = -1;
constexpr int kEnd = std::numeric_limits<int>::max();

// What one engine delivered: per query name, each row with the last marked
// event index the run had passed when the row came.
struct Record {
  std::map<std::string, std::vector<std::pair<int, Row>>> rows;
  int mark = kStart;
  int refused_removes = 0;  // of queries that live queries read

  // The rows of `q` that came from mark `from` until mark `to`.
  std::vector<Row> Slice(const std::string& q, int from = kStart,
                         int to = kEnd) const {
    std::vector<Row> out;
    auto it = rows.find(q);
    if (it == rows.end()) return out;
    for (const auto& [at, row] : it->second) {
      if (at >= from && at < to) out.push_back(row);
    }
    return out;
  }
};

// A fresh engine on `shards` shards that records into `record`, with the
// sources registered unless a restore is to bring them.
std::unique_ptr<StreamEngine> NewEngine(const OptimizerOptions& options,
                                        int shards, Record* record,
                                        bool sources = true) {
  auto engine = std::make_unique<StreamEngine>(options);
  EXPECT_TRUE(engine->SetShardCount(shards).ok());
  engine->SetOutputHandler([record](const std::string& q, const Tuple& t) {
    std::string values;
    for (const Value& v : t.values()) {
      values += v.type() == ValueType::kDouble
                    ? StrCat(std::bit_cast<uint64_t>(v.AsDouble()), "d,")
                    : v.ToString() + ",";
    }
    record->rows[q].push_back({record->mark, {t.ts(), std::move(values)}});
  });
  const Schema schema({{"a0", ValueType::kInt},
                       {"a1", ValueType::kInt},
                       {"a2", ValueType::kInt},
                       {"s", ValueType::kString}});
  for (int s = 0; sources && s < kNumSources; ++s) {
    EXPECT_TRUE(
        engine->RegisterSource(kSourceNames[s], schema, s >= kL0 ? 0 : -1)
            .ok());
  }
  return engine;
}

// Adds `queries` of `c` and starts the engine.
void Start(StreamEngine& engine, const Case& c, const std::vector<int>& queries,
           std::vector<char>* live) {
  for (int q : queries) {
    ASSERT_TRUE(engine.AddQueryText(c.defs[q].text, c.defs[q].name).ok());
    (*live)[q] = 1;
  }
  ASSERT_TRUE(engine.Start().ok());
}

// Every query's OutputCount is its number of handler calls.
void ExpectCounts(const StreamEngine& engine, const Record& record) {
  for (const auto& [q, rows] : record.rows) {
    EXPECT_EQ(engine.OutputCount(q), static_cast<int64_t>(rows.size())) << q;
  }
}

void NoteMops(const StreamEngine& engine, std::set<std::string>* types) {
  for (const auto& row : engine.CollectMetrics().mops) types->insert(row.type);
}

// Drives events [from, to) of `feed` into a started engine. At each index
// the run passes the mark (after a Flush) if it is in `marks`, applies the
// ops at that index, then pushes events in PushBatch runs of one source, at
// most `batch` long and never across a mark or an op.
void Drive(StreamEngine& engine, const Case& c, const std::vector<Op>& ops,
           const std::vector<Event>& feed, int from, int to, int batch,
           const std::set<int>& marks, Record* record,
           std::vector<char>* live) {
  size_t op = 0;
  while (op < ops.size() && ops[op].at < from) ++op;
  for (int i = from;;) {
    if (marks.count(i) > 0) {
      engine.Flush();
      record->mark = i;
    }
    if (i == to) break;
    for (; op < ops.size() && ops[op].at == i; ++op) {
      const int q = ops[op].query;
      // Skip what a refused add left out: its remove, and adds over it.
      bool runs = ops[op].add != ((*live)[q] != 0);
      for (int in : c.defs[q].inputs) runs &= (*live)[in] != 0;
      if (!runs) continue;
      const int queries = engine.num_queries();
      const Status st =
          ops[op].add ? engine.AddQueryText(c.defs[q].text, c.defs[q].name)
                      : engine.RemoveQuery(c.defs[q].name);
      // A query that a live query reads is not removed, and nothing changes.
      bool read = false;
      for (size_t p = 0; p < c.defs.size(); ++p) {
        for (int in : c.defs[p].inputs) read |= (*live)[p] && in == q;
      }
      if (!ops[op].add && read) {
        EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
            << c.defs[q].name << ": " << st.ToString();
        EXPECT_EQ(engine.num_queries(), queries);
        ++record->refused_removes;
        continue;
      }
      // A sharded engine refuses an add that would move the state of a
      // source that a live stateful query reads.
      bool moves_state = false;
      for (size_t p = 0; p < c.defs.size(); ++p) {
        moves_state |= (*live)[p] && c.defs[p].stateful &&
                       (c.defs[p].sources & c.defs[q].sources) != 0;
      }
      if (st.code() == StatusCode::kUnimplemented && ops[op].add &&
          engine.shard_count() > 1 && moves_state) {
        continue;
      }
      ASSERT_TRUE(st.ok()) << c.defs[q].name << ": " << st.ToString();
      (*live)[q] = ops[op].add;
    }
    const int source = feed[i].source;
    std::vector<Tuple> run;
    do {
      run.push_back(feed[i++].tuple);
    } while (i < to && static_cast<int>(run.size()) < batch &&
             feed[i].source == source && marks.count(i) == 0 &&
             (op == ops.size() || ops[op].at > i));
    const Status st = run.size() == 1
                          ? engine.Push(kSourceNames[source], run[0])
                          : engine.PushBatch(kSourceNames[source], run);
    // Only a source no live query reads refuses a push.
    for (size_t q = 0; !st.ok() && q < c.defs.size(); ++q) {
      ASSERT_TRUE(st.code() == StatusCode::kNotFound &&
                  !((*live)[q] && (c.defs[q].sources & (1u << source))))
          << st.ToString();
    }
  }
  engine.Flush();
}

// The unshared reference: every query ever added, from the start.
Record RunReference(const Case& c, const std::vector<Event>& feed,
                    const std::set<int>& marks) {
  OptimizerOptions off;
  off.enable_cse = off.enable_predicate_index = off.enable_shared_aggregate =
      off.enable_shared_join = off.enable_channels = false;
  Record record;
  auto engine = NewEngine(off, 1, &record);
  std::vector<int> all(c.defs.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<char> live(c.defs.size(), 0);
  Start(*engine, c, all, &live);
  Drive(*engine, c, {}, feed, 0, static_cast<int>(feed.size()), 1, marks,
        &record, &live);
  ExpectCounts(*engine, record);
  return record;
}

// --- the oracle --------------------------------------------------------------

struct Totals {
  int64_t compared = 0;
  std::map<std::string, int64_t> shape_rows;
  std::set<std::string> axes;
  std::set<std::string> mop_types;
  int churn_cuts = 0, churn_restores = 0, refused_removes = 0;
  // Second restores, and those whose first restore ran stateful queries on
  // several shards.
  int second_hops = 0, sharded_second_hops = 0;
};

// Compares one query's rows from two runs: the rows of each timestamp as
// multisets and, where both runs are `ordered`, timestamps in order.
bool Same(std::vector<Row> a, std::vector<Row> b, bool ordered,
          const std::string& what, Totals* totals) {
  auto by_ts = [](const Row& x, const Row& y) { return x.ts < y.ts; };
  if (ordered && (!std::is_sorted(a.begin(), a.end(), by_ts) ||
                  !std::is_sorted(b.begin(), b.end(), by_ts))) {
    ADD_FAILURE() << what << ": rows out of timestamp order";
    return false;
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  totals->compared += a.size();
  if (a == b) return true;
  const auto [x, y] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  ADD_FAILURE() << what << ": " << a.size() << " rows against " << b.size()
                << ", first difference: "
                << (x == a.end() ? "none" : StrCat(x->ts, " ", x->values))
                << " against "
                << (y == b.end() ? "none" : StrCat(y->ts, " ", y->values));
  return false;
}

void RunCase(const Case& c, uint64_t seed, Totals* totals) {
  // Rule bits, low first: CSE, sσ, sα, s⋈/s;/sµ, channels, channels first.
  std::string trace = StrCat(
      "seed ", seed, ": rules ", seed % 64, ", batch ", c.batch, ", shards ",
      c.shards, ", cut ", c.cut, ", restore shards ", c.restore_shards,
      ", second cut ", c.cut2, ", second restore shards ", c.restore_shards2,
      ", feed ", c.feed_kind, "\n");
  for (const QueryDef& q : c.defs) trace += StrCat(q.name, ": ", q.text, "\n");
  for (const Op& op : c.ops) {
    trace += StrCat("at ", op.at, op.add ? " add " : " remove ",
                    c.defs[op.query].name, "\n");
  }
  SCOPED_TRACE(trace);
  const int n = static_cast<int>(c.feed.size());
  const bool churn = !c.ops.empty();
  std::set<int> marks = {c.gap, c.cut};
  for (const Op& op : c.ops) marks.insert(op.at);
  marks.erase(-1);

  const Record ref = RunReference(c, c.feed, marks);
  for (const QueryDef& q : c.defs) {
    totals->shape_rows[Shapes()[q.shape].name] += ref.Slice(q.name).size();
  }
  totals->axes.insert({StrCat("rules ", seed % 64), StrCat("batch ", c.batch),
                       StrCat("shards ", c.shards), StrCat("churn ", churn),
                       StrCat("feed ", c.feed_kind)});
  if (c.cut >= 0) {
    totals->axes.insert({StrCat("restore shards ", c.restore_shards),
                         c.cut == 0   ? "cut first"
                         : c.cut == n ? "cut last"
                                      : "cut inside"});
  }

  // A shifted feed's reference is the base-0 reference, shifted.
  if (c.feed_kind == 1) {
    const Record base = RunReference(c, c.unshifted, {});
    for (const QueryDef& q : c.defs) {
      std::vector<Row> expected = base.Slice(q.name);
      for (Row& r : expected) r.ts += kOldest;
      if (!q.reads_ts &&
          !Same(ref.Slice(q.name), expected, true, q.name + " shifted",
                totals)) {
        return;
      }
    }
  }

  // The drawn configuration, checkpointed at the cut.
  std::string snapshot;
  Record run;
  std::vector<char> live(c.defs.size(), 0), live_at_cut;
  auto engine = NewEngine(c.options, c.shards, &run);
  Start(*engine, c, c.initial, &live);
  NoteMops(*engine, &totals->mop_types);
  const int split = c.cut >= 0 ? c.cut : n;
  Drive(*engine, c, c.ops, c.feed, 0, split, c.batch, marks, &run, &live);
  if (c.cut >= 0) {
    const Status saved = engine->Checkpoint(&snapshot);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    live_at_cut = live;
  }
  Drive(*engine, c, c.ops, c.feed, split, n, c.batch, marks, &run, &live);
  if (::testing::Test::HasFatalFailure()) return;
  totals->refused_removes += run.refused_removes;
  NoteMops(*engine, &totals->mop_types);
  ExpectCounts(*engine, run);
  const bool ordered = c.batch == 1 || c.shards == 1;

  // A query is compared where sharing cannot change what it sees: added
  // before Start, up to its first removal; and surviving the churn, after
  // the gap, unless it was added live and reads an unbounded ; or µ, whose
  // history no gap clears.
  std::vector<int> removed_at(c.defs.size(), kEnd);
  std::vector<char> added_live(c.defs.size(), 0), kept_after_cut(
                                                      c.defs.size(), 1);
  for (const Op& op : c.ops) {
    if (!op.add) removed_at[op.query] = std::min(removed_at[op.query], op.at);
    kept_after_cut[op.query] &= op.add || op.at < c.cut;
    added_live[op.query] |= op.add;
  }
  for (size_t q = 0; q < c.defs.size(); ++q) {
    const QueryDef& d = c.defs[q];
    const std::string what = StrCat(d.name, " (", d.text, ")");
    if (!added_live[q] &&
        !Same(run.Slice(d.name, kStart, removed_at[q]),
              ref.Slice(d.name, kStart, removed_at[q]), ordered, what,
              totals)) {
      return;
    }
    if (churn && live[q] && !(added_live[q] && d.unbounded) &&
        !Same(run.Slice(d.name, c.gap), ref.Slice(d.name, c.gap), ordered,
              what + " after the gap", totals)) {
      return;
    }
  }

  // Without churn, the same plan at batch size 1 on one shard delivers the
  // same rows, byte for byte where the run is ordered, after as many m-op
  // deliveries.
  if (!churn && !(c.batch == 1 && c.shards == 1)) {
    Record plain;
    auto one = NewEngine(c.options, 1, &plain);
    std::vector<char> all(c.defs.size(), 0);
    Start(*one, c, c.initial, &all);
    Drive(*one, c, {}, c.feed, 0, n, 1, {}, &plain, &all);
    EXPECT_EQ(engine->CollectMetrics().deliveries,
              one->CollectMetrics().deliveries);
    for (const QueryDef& d : c.defs) {
      if (ordered ? run.Slice(d.name) != plain.Slice(d.name)
                  : !Same(run.Slice(d.name), plain.Slice(d.name), false,
                          d.name, totals)) {
        ADD_FAILURE() << d.name << " differs from batch 1 on one shard";
        return;
      }
    }
  }

  if (c.cut < 0) return;
  // The restored engine, fed the rest of the schedule.
  Record after, hop;
  auto restored = NewEngine(c.options, c.restore_shards, &after, false);
  bool churned_before_cut = false;
  for (const Op& op : c.ops) churned_before_cut |= op.at < c.cut;
  totals->churn_cuts += churned_before_cut;
  const Status st = restored->Restore(snapshot);
  if (!st.ok()) {
    // Queries added live stay unshared, and the restore's batch Optimize
    // may merge them into one m-op, which cannot draw state from several
    // saved m-ops. Nothing else may fail, and a failed restore leaves the
    // engine fresh.
    EXPECT_TRUE(churned_before_cut && st.code() == StatusCode::kUnimplemented &&
                st.ToString().find("several saved") != std::string::npos)
        << st.ToString();
    EXPECT_TRUE(!restored->started() && restored->num_queries() == 0);
    return;
  }
  totals->churn_restores += churned_before_cut;
  EXPECT_EQ(restored->num_queries(),
            std::count(live_at_cut.begin(), live_at_cut.end(), 1));
  NoteMops(*restored, &totals->mop_types);
  std::vector<char> live_after = live_at_cut;
  // What the last engine carried in for each query, from the run before
  // its restore (saved counts carry over for the queries live at a cut).
  std::vector<int64_t> carried(c.defs.size(), 0);
  for (size_t q = 0; q < c.defs.size(); ++q) {
    if (live_at_cut[q]) {
      carried[q] = run.Slice(c.defs[q].name, kStart, c.cut).size();
    }
  }
  const int hop_at = c.cut2 >= 0 ? c.cut2 : n;
  Drive(*restored, c, c.ops, c.feed, c.cut, hop_at, c.batch, marks, &after,
        &live_after);
  if (::testing::Test::HasFatalFailure()) return;
  // The second hop: the restored engine's checkpoint, restored again.
  if (c.cut2 >= 0) {
    std::string again;
    const Status saved = restored->Checkpoint(&again);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    for (size_t q = 0; q < c.defs.size(); ++q) {
      carried[q] = live_after[q] ? restored->OutputCount(c.defs[q].name) : 0;
    }
    restored = NewEngine(c.options, c.restore_shards2, &hop, false);
    const Status st2 = restored->Restore(again);
    if (!st2.ok()) {
      // As above, for queries added live since the first restore.
      bool added = false;
      for (const Op& op : c.ops) {
        added |= op.add && op.at >= c.cut && op.at < c.cut2;
      }
      EXPECT_TRUE(added && st2.code() == StatusCode::kUnimplemented &&
                  st2.ToString().find("several saved") != std::string::npos)
          << st2.ToString();
      return;
    }
    EXPECT_EQ(restored->num_queries(),
              std::count(live_after.begin(), live_after.end(), 1));
    ++totals->second_hops;
    bool stateful = false;
    for (size_t q = 0; q < c.defs.size(); ++q) {
      stateful |= live_at_cut[q] && c.defs[q].stateful;
    }
    totals->sharded_second_hops += stateful && c.restore_shards > 1;
  }
  Drive(*restored, c, c.ops, c.feed, hop_at, n, c.batch, marks,
        c.cut2 >= 0 ? &hop : &after, &live_after);
  if (::testing::Test::HasFatalFailure()) return;
  const bool restored_ordered =
      c.batch == 1 ||
      (c.restore_shards == 1 && (c.cut2 < 0 || c.restore_shards2 == 1));
  for (size_t q = 0; q < c.defs.size(); ++q) {
    const QueryDef& d = c.defs[q];
    const std::string what = StrCat(d.name, " restored (", d.text, ")");
    const Record& last = c.cut2 >= 0 ? hop : after;
    EXPECT_EQ(restored->OutputCount(d.name),
              carried[q] + static_cast<int64_t>(last.Slice(d.name).size()))
        << what;
  }
  // The suffix: the rows of every engine since the first cut.
  for (auto& [name, rows] : hop.rows) {
    std::vector<std::pair<int, Row>>& into = after.rows[name];
    into.insert(into.end(), rows.begin(), rows.end());
  }
  for (size_t q = 0; q < c.defs.size(); ++q) {
    const QueryDef& d = c.defs[q];
    const std::string what = StrCat(d.name, " restored (", d.text, ")");
    if (!churn ? !Same(after.Slice(d.name), ref.Slice(d.name, c.cut),
                       restored_ordered, what, totals)
               : live_at_cut[q] && kept_after_cut[q] &&
                     !Same(after.Slice(d.name), run.Slice(d.name, c.cut),
                           ordered && restored_ordered, what, totals)) {
      return;
    }
  }
}

TEST(MqoOracleTest, SharedPlansMatchEachQueryAlone) {
  Totals totals;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    RunCase(MakeCase(seed), seed, &totals);
    // The first failing seed says most; its script is in the trace.
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }

  // Vacuity guards: every shape produced output, every axis value was
  // drawn, every m-op type ran, and many outputs were compared.
  for (const Shape& shape : Shapes()) {
    EXPECT_GT(totals.shape_rows[shape.name], 0) << shape.name;
  }
  // 64 rule configurations; 4 batch sizes, shard counts and restore shard
  // counts; churn or none; 3 feeds; 3 kinds of cut.
  EXPECT_EQ(totals.axes.size(), 64u + 4 + 4 + 4 + 2 + 3 + 3)
      << testing::PrintToString(totals.axes);
  for (int t = 0; t <= static_cast<int>(MopType::kZip); ++t) {
    const char* type = MopTypeName(static_cast<MopType>(t));
    EXPECT_TRUE(totals.mop_types.count(type)) << type;
  }
  EXPECT_GT(totals.compared, 1000000);
  EXPECT_GT(totals.churn_cuts, 0);
  EXPECT_GE(2 * totals.churn_restores, totals.churn_cuts);
  EXPECT_GT(totals.refused_removes, 0);
  EXPECT_GT(totals.sharded_second_hops, 0);
  EXPECT_GE(2 * totals.sharded_second_hops, totals.second_hops);
}

}  // namespace
}  // namespace rumor
