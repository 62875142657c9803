// The benchmark's four workloads: their sources, standing queries, input
// generators and call pattern. Every input and query is a function of the
// workload seed; the engine sees only the generated RQL text and tuples.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/schema.h"
#include "common/tuple.h"

namespace perfbench {

// A run of consecutive input events: the source index of each event (into
// Workload::sources) and its tuple. Timestamps are non-decreasing.
struct Chunk {
  std::vector<int> source;
  std::vector<rumor::Tuple> tuples;
  size_t size() const { return tuples.size(); }
};

class EventGen {
 public:
  virtual ~EventGen() = default;
  // Replaces `*out` with the next `n` events.
  virtual void Next(int64_t n, Chunk* out) = 0;
  // Continues the stream at timestamp >= `ts` (a gap in event time).
  virtual void SkipTo(rumor::Timestamp ts) = 0;
};

struct SourceDef {
  std::string name;
  rumor::Schema schema;
};

struct Workload {
  std::string name;
  std::string params;  // one-line parameter summary
  std::vector<SourceDef> sources;
  std::vector<std::string> names;  // standing queries at set-up
  std::vector<std::string> texts;  // their RQL
  // Events per push call: 1 means Push, more means PushBatch of that many
  // events of one source.
  int batch = 1;
  // Events pushed before the timed region; at least the largest window.
  int64_t warmup_events = 0;
  int64_t max_window = 0;  // in timestamp units
  // query_churn: each timed step adds a query, pushes `batch` events and
  // removes a random live query. The other workloads push only.
  bool churn = false;
  // Checkpoint the warm engine after the timed region and restore it into
  // fresh engines.
  bool snapshots = false;
  // A fresh generator positioned at the first event of the seed's stream.
  std::function<std::unique_ptr<EventGen>()> make_events;
  // RQL of the workload's `i`-th query (i >= names.size() for live adds).
  std::function<std::string(rumor::Rng&, int64_t i)> make_query;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Seed of the random stream `tag` of a workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
