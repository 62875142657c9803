// SchemaMap: the paper's schema map function F (Cayuga forward/rebind edge
// formulas, and the SQL-SELECT-style projection operator π). A schema map is
// an ordered list of named output expressions over the (left, right) context;
// it can rename, project, and compute new attributes.
#ifndef RUMOR_EXPR_SCHEMA_MAP_H_
#define RUMOR_EXPR_SCHEMA_MAP_H_

#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"
#include "expr/expr.h"

namespace rumor {

class SchemaMap {
 public:
  SchemaMap() = default;

  // Adds output attribute `name` computed by `expr`; returns *this for
  // chaining.
  SchemaMap& Add(std::string name, ExprPtr expr);

  // Identity over the left input schema.
  static SchemaMap Identity(const Schema& schema);
  // Projection of the given left-side attribute indexes.
  static SchemaMap Project(const Schema& schema,
                           const std::vector<int>& indexes);
  // Concatenation of both sides, names prefixed (join/sequence output map).
  static SchemaMap ConcatSides(const Schema& left, const Schema& right,
                               const std::string& lp = "l.",
                               const std::string& rp = "r.");

  int size() const { return static_cast<int>(exprs_.size()); }
  bool empty() const { return exprs_.empty(); }
  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  const std::vector<std::string>& names() const { return names_; }

  // Output schema given input schemas (`right` may be null).
  Schema OutputSchema(const Schema& left, const Schema* right = nullptr) const;

  // Applies the map; output timestamp is `ts`. Returns nothing when a value
  // is null (e.g. a division by zero): a projection drops that tuple.
  std::optional<Tuple> Apply(const ExprContext& ctx, Timestamp ts) const;

  // Definition identity (used by m-rules).
  bool Equals(const SchemaMap& other) const;
  uint64_t Signature() const;
  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<ExprPtr> exprs_;
};

}  // namespace rumor

#endif  // RUMOR_EXPR_SCHEMA_MAP_H_
