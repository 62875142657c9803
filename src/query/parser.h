// RQL — the small textual query language of this library. It covers the
// CQL-style, event-pattern, and hybrid queries of the paper:
//
//   -- relational, with sliding window + group-by
//   SMOOTHED: SELECT pid, AVG(load) FROM CPU [RANGE 5] GROUP BY pid;
//
//   -- window join
//   J: SELECT * FROM S [RANGE 100] JOIN T [RANGE 100] ON S.a0 = T.a0;
//
//   -- event pattern (Cayuga ; and µ), with duration bound
//   P: SELECT * FROM S SEQ T ON S.a0 = 3 AND T.a0 = 5 WITHIN 100;
//   M: SELECT * FROM S ITERATE T ON S.a0 = T.a0 AND T.a1 > last.a1
//      WITHIN 100;
//
//   -- hybrid: subqueries and references to previously defined queries
//   Q1: SELECT * FROM (SELECT * FROM SMOOTHED WHERE avg_load < 20) AS B
//       ITERATE SMOOTHED AS E ON B.pid = E.pid AND E.avg_load > last.avg_load
//       WITHIN 60 WHERE last.avg_load > 10;
//
// Grammar (keywords case-insensitive):
//   script    := stmt (';' stmt)* [';']
//   stmt      := [name ':'] query
//   query     := SELECT sel_list FROM from_expr [WHERE expr]
//                [GROUP BY ident_list]
//   sel_list  := '*' | sel_item (',' sel_item)*
//   sel_item  := ident | AGGFN '(' (ident|'*') ')'
//   from_expr := term
//              | term JOIN term ON expr
//              | term (SEQ | ITERATE) term ON expr [WITHIN int]
//   term      := ident ['[' RANGE int ']'] [AS ident]
//              | '(' query ')' [AS ident]
//
// `ident` in FROM resolves to a catalog source stream or a previously
// defined query of the same script (logical inlining; the optimizer then
// re-shares the copies via m-rules). Query::reads lists the query names a
// statement resolved.
#ifndef RUMOR_QUERY_PARSER_H_
#define RUMOR_QUERY_PARSER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace rumor {

// Known source streams (and, during script parsing, named queries).
class Catalog {
 public:
  void AddSource(const std::string& name, Schema schema,
                 int sharable_label = -1);
  void AddQuery(const Query& query);
  // Drops every entry registered under `name` (a removed query may no
  // longer be referenced by later queries); returns false if none existed.
  bool Remove(const std::string& name);

  // Subtree for `name`: a fresh Source node for sources, the defining
  // subtree for named queries; nullptr if unknown. `is_query`, if given,
  // tells which of the two it is.
  QueryNodePtr Resolve(const std::string& name,
                       bool* is_query = nullptr) const;

 private:
  struct Entry {
    QueryNodePtr node;
    bool query = false;
  };
  // Lowercase name -> definitions in registration order; the latest (back)
  // shadows earlier ones. Hash lookup keeps per-query resolution O(1) at
  // 10^5..10^6 registered queries (a linear entry scan here was quadratic
  // over a large AddQuery workload).
  std::unordered_map<std::string, std::vector<Entry>> by_name_;
};

// Parses one query (no name prefix, no trailing ';').
Result<Query> ParseQuery(const std::string& text, const Catalog& catalog);

// Parses a ';'-separated script of (optionally named) queries. Later
// statements may reference earlier ones by name. Unnamed queries are named
// Q<k> by position.
Result<std::vector<Query>> ParseScript(const std::string& text,
                                       const Catalog& catalog);

// As above, and additionally reports each statement's source text with any
// `name ':'` prefix stripped — re-parseable later with ParseQuery. Engine
// checkpoints persist these texts to rebuild the query set on restore.
Result<std::vector<Query>> ParseScript(
    const std::string& text, const Catalog& catalog,
    std::vector<std::string>* statement_texts);

}  // namespace rumor

#endif  // RUMOR_QUERY_PARSER_H_
