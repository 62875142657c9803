// CayugaEngine — the automaton-based baseline event engine, with the three
// Cayuga MQO techniques the paper translates into RUMOR (§4.3):
//
//  * prefix state merging — automata are merged into a forest; states with
//    the same definition *and the same continuation* are shared (identical
//    queries share everything down to the final state, which accumulates
//    the query ids to fire);
//  * FR index — start-edge predicates of the form `event.attr = const` are
//    hash-indexed per stream; a new event probes the index instead of
//    evaluating every start edge;
//  * AN index — pattern states whose match predicate carries an
//    `event.attr = const` conjunct are hash-indexed per stream, so an event
//    only visits states it can possibly advance (active-node pruning);
//  * AI index — a state's instances are hash-indexed by the left attribute
//    of an `instance.attr = event.attr` match conjunct.
//
// Each optimization is individually switchable, which the benchmark harness
// uses for ablations.
#ifndef RUMOR_CAYUGA_ENGINE_H_
#define RUMOR_CAYUGA_ENGINE_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cayuga/automaton.h"
#include "expr/program.h"
#include "expr/shape.h"
#include "mop/keyed_buffer.h"

namespace rumor {

class CayugaEngine {
 public:
  struct Options {
    bool fr_index = true;
    bool an_index = true;
    bool ai_index = true;
    bool merge_prefixes = true;
  };

  struct Stats {
    int64_t events = 0;
    int64_t outputs = 0;
    int64_t instances_created = 0;
  };

  explicit CayugaEngine(Options options);
  CayugaEngine() : CayugaEngine(Options{}) {}

  // Registers an automaton (prefix-merged into the forest); returns its
  // query id.
  int AddAutomaton(const CayugaAutomaton& automaton);

  // Called for every final-state match: (query id, output tuple).
  void SetOutputHandler(std::function<void(int, const Tuple&)> handler) {
    handler_ = std::move(handler);
  }

  // Feeds one event; timestamps must be non-decreasing across calls.
  void OnEvent(const std::string& stream, const Tuple& event);

  const Stats& stats() const { return stats_; }
  int num_queries() const { return num_queries_; }
  // Forest size (observability: prefix merging shrinks these).
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_start_edges() const { return static_cast<int>(start_edges_.size()); }
  size_t live_instances() const;

 private:
  struct Instance {
    Tuple state;  // ;: the entering instance; µ: (entry ⊕ last) concat
  };

  // One automaton state in the merged forest.
  struct Node {
    CayugaStateKind kind;
    int stream = -1;
    int64_t window = 0;
    Program match;
    Program rebind;
    JoinShape shape;                          // AI: equi pairs of match
    std::optional<IndexableEquality> an_eq;   // AN: event-side const equality
    int left_size = 0;
    int right_size = 0;
    int target = -1;                 // next node; -1 = final
    std::vector<int> queries;        // final only
    int republish_stream = -1;       // final only: resubscription target
    KeyedBuffer<Instance> instances;
    uint64_t signature = 0;          // definition + continuation identity

    Node() : instances(false) {}
  };

  struct StartEdge {
    int stream = -1;
    Program predicate;
    std::optional<IndexableEquality> eq;  // FR key
    int target = -1;
    uint64_t signature = 0;
  };

  int InternStream(const std::string& name);
  int FindOrCreateNode(const CayugaAutomaton& a, int stage_index, int target);
  void EnterNode(int node_id, const Tuple& instance_state, Timestamp ts);
  void AdvanceInstance(Node& node, const Tuple& output);
  void ProcessNode(int node_id, const Tuple& event);
  void DispatchEvent(int stream, const Tuple& event);

  Options options_;
  std::function<void(int, const Tuple&)> handler_;
  Stats stats_;
  int num_queries_ = 0;

  std::vector<std::string> stream_names_;
  std::vector<Node> nodes_;
  std::vector<StartEdge> start_edges_;
  std::unordered_map<uint64_t, int> node_registry_;       // sig -> node
  std::unordered_map<uint64_t, int> start_edge_registry_; // sig -> edge

  // Per stream dispatch tables.
  struct StreamTable {
    // FR index: attr -> (const -> start edge ids); plus unindexed edges.
    std::unordered_map<int, std::unordered_map<Value, std::vector<int>>>
        fr_index;
    std::vector<int> scan_start_edges;
    // AN index: attr -> (const -> node ids); plus unindexed nodes.
    std::unordered_map<int, std::unordered_map<Value, std::vector<int>>>
        an_index;
    std::vector<int> scan_nodes;
  };
  std::vector<StreamTable> tables_;
};

}  // namespace rumor

#endif  // RUMOR_CAYUGA_ENGINE_H_
