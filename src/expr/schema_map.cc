#include "expr/schema_map.h"

#include <sstream>

#include "common/hash.h"

namespace rumor {

SchemaMap& SchemaMap::Add(std::string name, ExprPtr expr) {
  names_.push_back(std::move(name));
  exprs_.push_back(std::move(expr));
  return *this;
}

SchemaMap SchemaMap::Identity(const Schema& schema) {
  SchemaMap map;
  for (int i = 0; i < schema.size(); ++i) {
    map.Add(schema.attribute(i).name,
            Expr::Attr(Side::kLeft, i, schema.attribute(i).name));
  }
  return map;
}

SchemaMap SchemaMap::Project(const Schema& schema,
                             const std::vector<int>& indexes) {
  SchemaMap map;
  for (int i : indexes) {
    RUMOR_CHECK(i >= 0 && i < schema.size()) << "bad projection index " << i;
    map.Add(schema.attribute(i).name,
            Expr::Attr(Side::kLeft, i, schema.attribute(i).name));
  }
  return map;
}

SchemaMap SchemaMap::ConcatSides(const Schema& left, const Schema& right,
                                 const std::string& lp,
                                 const std::string& rp) {
  SchemaMap map;
  for (int i = 0; i < left.size(); ++i) {
    map.Add(lp + left.attribute(i).name,
            Expr::Attr(Side::kLeft, i, left.attribute(i).name));
  }
  for (int i = 0; i < right.size(); ++i) {
    map.Add(rp + right.attribute(i).name,
            Expr::Attr(Side::kRight, i, right.attribute(i).name));
  }
  return map;
}

Schema SchemaMap::OutputSchema(const Schema& left, const Schema* right) const {
  std::vector<Attribute> attrs;
  attrs.reserve(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    attrs.push_back({names_[i], exprs_[i]->InferType(left, right)});
  }
  return Schema(std::move(attrs));
}

std::optional<Tuple> SchemaMap::Apply(const ExprContext& ctx,
                                      Timestamp ts) const {
  std::vector<Value> values;
  values.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    values.push_back(e->Eval(ctx));
    if (values.back().is_null()) return std::nullopt;
  }
  return Tuple::Make(std::move(values), ts);
}

bool SchemaMap::Equals(const SchemaMap& other) const {
  if (names_ != other.names_) return false;
  if (exprs_.size() != other.exprs_.size()) return false;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (!exprs_[i]->Equals(*other.exprs_[i])) return false;
  }
  return true;
}

uint64_t SchemaMap::Signature() const {
  uint64_t h = Mix64(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    h = HashCombine(h, HashBytes(names_[i]));
    h = HashCombine(h, exprs_[i]->Signature());
  }
  return h;
}

std::string SchemaMap::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << names_[i] << " := " << exprs_[i]->ToString();
  }
  os << "}";
  return os.str();
}

}  // namespace rumor
