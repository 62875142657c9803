#include "query/parser.h"

#include <optional>

#include "common/str_util.h"
#include "expr/parser_expr.h"

namespace rumor {

void Catalog::AddSource(const std::string& name, Schema schema,
                        int sharable_label) {
  by_name_[ToLower(name)].push_back(
      {QueryNode::Source(name, std::move(schema), sharable_label)});
}

void Catalog::AddQuery(const Query& query) {
  by_name_[ToLower(query.name)].push_back({query.root, true});
}

bool Catalog::Remove(const std::string& name) {
  return by_name_.erase(ToLower(name)) > 0;
}

QueryNodePtr Catalog::Resolve(const std::string& name, bool* is_query) const {
  auto it = by_name_.find(ToLower(name));
  if (it == by_name_.end()) return nullptr;
  // Later definitions shadow earlier ones.
  const Entry& entry = it->second.back();
  if (is_query != nullptr) *is_query = entry.query;
  return entry.node;
}

namespace {

const char* kKeywords[] = {"select", "from",    "where", "group", "by",
                           "join",   "seq",     "iterate", "on",  "within",
                           "range",  "as",      "and",   "or",    "not"};

bool IsReserved(const std::string& ident) {
  for (const char* kw : kKeywords) {
    if (EqualsIgnoreCase(ident, kw)) return true;
  }
  return false;
}

std::optional<AggFn> AggFnFromName(const std::string& name) {
  std::string low = ToLower(name);
  if (low == "count") return AggFn::kCount;
  if (low == "sum") return AggFn::kSum;
  if (low == "avg") return AggFn::kAvg;
  if (low == "min") return AggFn::kMin;
  if (low == "max") return AggFn::kMax;
  return std::nullopt;
}

// One FROM term: a logical subtree + alias + optional window.
struct Term {
  QueryNodePtr node;
  std::string alias;
  int64_t window = 0;
  bool has_window = false;
};

struct SelItem {
  std::string attr;          // qualified spelling, e.g. "a0" or "l.a0"
  std::optional<AggFn> agg;  // set for AGGFN(attr)
};

class QueryParser {
 public:
  QueryParser(const std::vector<Token>& tokens, size_t* pos,
              const Catalog& catalog)
      : tokens_(tokens), pos_(pos), catalog_(catalog) {}

  Result<Query> ParseStatement(int index) {
    std::string name;
    // Optional `name ':'` prefix.
    if (Peek().kind == TokenKind::kIdent && !IsReserved(Peek().text) &&
        PeekAt(1).kind == TokenKind::kSymbol && PeekAt(1).text == ":") {
      name = Peek().text;
      Advance();
      Advance();
    } else {
      name = StrCat("Q", index);
    }
    reads_.clear();
    auto node = ParseQueryBody();
    if (!node.ok()) return node.status();
    return Query{name, node.value(), std::move(reads_)};
  }

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  bool AtSemicolon() const { return IsSym(Peek(), ";"); }
  void SkipSemicolons() {
    while (AtSemicolon()) Advance();
  }

 private:
  static bool IsSym(const Token& t, const char* s) {
    return t.kind == TokenKind::kSymbol && t.text == s;
  }
  static bool IsKw(const Token& t, const char* kw) {
    return t.kind == TokenKind::kIdent && EqualsIgnoreCase(t.text, kw);
  }

  const Token& Peek() const { return tokens_[*pos_]; }
  const Token& PeekAt(size_t k) const {
    size_t i = *pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++*pos_; }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(StrCat(msg, " at offset ", Peek().position,
                                          " (near '", Peek().text, "')"));
  }

  Status Expect(const char* sym) {
    if (!IsSym(Peek(), sym)) return Error(StrCat("expected '", sym, "'"));
    Advance();
    return Status::OK();
  }
  Status ExpectKw(const char* kw) {
    if (!IsKw(Peek(), kw)) return Error(StrCat("expected ", kw));
    Advance();
    return Status::OK();
  }

  // query := SELECT sel_list FROM from_expr [WHERE expr] [GROUP BY list]
  Result<QueryNodePtr> ParseQueryBody() {
    RUMOR_RETURN_IF_ERROR(ExpectKw("select"));
    // Selection list.
    std::vector<SelItem> items;
    bool star = false;
    if (IsSym(Peek(), "*")) {
      star = true;
      Advance();
    } else {
      while (true) {
        auto item = ParseSelItem();
        if (!item.ok()) return item.status();
        items.push_back(item.value());
        if (!IsSym(Peek(), ",")) break;
        Advance();
      }
    }
    RUMOR_RETURN_IF_ERROR(ExpectKw("from"));
    auto from = ParseFromExpr();
    if (!from.ok()) return from.status();
    FromResult fr = from.value();

    QueryNodePtr node = fr.node;

    // WHERE over the FROM result.
    if (IsKw(Peek(), "where")) {
      Advance();
      auto pred = ParsePredicate(fr.where_ctx);
      if (!pred.ok()) return pred.status();
      node = QueryNode::Select(node, pred.value());
    }

    // GROUP BY.
    std::vector<std::string> group_names;
    if (IsKw(Peek(), "group")) {
      Advance();
      RUMOR_RETURN_IF_ERROR(ExpectKw("by"));
      while (true) {
        auto ident = ParseQualifiedIdent();
        if (!ident.ok()) return ident.status();
        group_names.push_back(ident.value());
        if (!IsSym(Peek(), ",")) break;
        Advance();
      }
    }

    // Assemble aggregation / projection from the select list.
    int agg_count = 0;
    for (const SelItem& it : items) {
      if (it.agg.has_value()) ++agg_count;
    }
    if (agg_count >= 1) {
      std::vector<const SelItem*> agg_items;
      std::vector<std::string> out_groups;
      for (const SelItem& it : items) {
        if (it.agg.has_value()) {
          agg_items.push_back(&it);
        } else {
          out_groups.push_back(it.attr);
        }
      }
      // Plain select-list attributes are implicit group-by attributes.
      for (const std::string& g : out_groups) {
        bool present = false;
        for (const std::string& existing : group_names) {
          present |= EqualsIgnoreCase(existing, g);
        }
        if (!present) group_names.push_back(g);
      }
      if (!fr.has_window) {
        return Error("aggregate query requires [RANGE n] on its input");
      }
      const Schema& in = node->output_schema();
      std::vector<int> groups;
      for (const std::string& g : group_names) {
        auto idx = LookupAttr(in, g);
        if (!idx.ok()) return idx.status();
        groups.push_back(idx.value());
      }
      // One aggregate node per AGGFN item, all over the same input, window
      // and group-by; each emits (group attrs..., result).
      std::vector<QueryNodePtr> aggs;
      for (const SelItem* it : agg_items) {
        int agg_attr = -1;
        if (*it->agg != AggFn::kCount) {
          auto idx = LookupAttr(in, it->attr);
          if (!idx.ok()) return idx.status();
          agg_attr = idx.value();
        }
        aggs.push_back(
            QueryNode::Aggregate(node, *it->agg, agg_attr, groups,
                                 fr.window));
      }
      if (aggs.size() == 1) return aggs[0];
      // >= 2 aggregates: every aggregate emits exactly one row per input
      // tuple, so zipping their outputs in arrival order reassembles one
      // row carrying all aggregate columns; a final projection keeps the
      // group attributes once plus each aggregate value (select-list
      // order). The per-aggregate subplans stay separate single-aggregate
      // operators, so the sα/cα sharing rules apply to them individually.
      QueryNodePtr zipped = aggs[0];
      std::vector<int> value_offsets;
      int width = aggs[0]->output_schema().size();
      value_offsets.push_back(width - 1);
      for (size_t i = 1; i < aggs.size(); ++i) {
        zipped = QueryNode::Zip(zipped, aggs[i]);
        width += aggs[i]->output_schema().size();
        value_offsets.push_back(width - 1);
      }
      SchemaMap map;
      for (size_t k = 0; k < groups.size(); ++k) {
        map.Add(in.attribute(groups[k]).name,
                Expr::Attr(Side::kLeft, static_cast<int>(k)));
      }
      for (size_t j = 0; j < aggs.size(); ++j) {
        const Schema& as = aggs[j]->output_schema();
        map.Add(as.attribute(as.size() - 1).name,
                Expr::Attr(Side::kLeft, value_offsets[j]));
      }
      return QueryNode::Project(zipped, std::move(map));
    }

    if (!group_names.empty()) {
      return Error("GROUP BY requires an aggregate in the select list");
    }
    if (!star) {
      const Schema& in = node->output_schema();
      std::vector<int> indexes;
      for (const SelItem& it : items) {
        auto idx = LookupAttr(in, it.attr);
        if (!idx.ok()) return idx.status();
        indexes.push_back(idx.value());
      }
      node = QueryNode::Project(node, SchemaMap::Project(in, indexes));
    }
    return node;
  }

  Result<SelItem> ParseSelItem() {
    if (Peek().kind != TokenKind::kIdent) return Error("expected attribute");
    std::string first = Peek().text;
    // AGGFN '(' (ident | '*') ')'
    if (auto fn = AggFnFromName(first);
        fn.has_value() && IsSym(PeekAt(1), "(")) {
      Advance();
      Advance();
      SelItem item;
      item.agg = fn;
      if (IsSym(Peek(), "*")) {
        if (*fn != AggFn::kCount) return Error("only COUNT(*) is allowed");
        Advance();
      } else {
        auto ident = ParseQualifiedIdent();
        if (!ident.ok()) return ident.status();
        item.attr = ident.value();
      }
      RUMOR_RETURN_IF_ERROR(Expect(")"));
      return item;
    }
    auto ident = ParseQualifiedIdent();
    if (!ident.ok()) return ident.status();
    SelItem item;
    item.attr = ident.value();
    return item;
  }

  // ident ['.' ident] — returned as the joined spelling.
  Result<std::string> ParseQualifiedIdent() {
    if (Peek().kind != TokenKind::kIdent) return Error("expected identifier");
    std::string name = Peek().text;
    Advance();
    if (IsSym(Peek(), ".")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected identifier after '.'");
      }
      name += "." + Peek().text;
      Advance();
    }
    return name;
  }

  // Attribute lookup allowing both plain and qualified spellings against the
  // (possibly concatenated) schema, where concat schemas name attributes
  // "l.x" / "r.x" / "last.x".
  Result<int> LookupAttr(const Schema& schema, const std::string& name) {
    if (auto idx = schema.IndexOf(name)) return *idx;
    // Try the unqualified tail (e.g. "E.pid" -> "pid").
    auto dot = name.find('.');
    if (dot != std::string::npos) {
      std::string tail = name.substr(dot + 1);
      if (auto idx = schema.IndexOf(tail)) return *idx;
      // Qualified by side: l./r./last. prefixes in concat schemas.
      for (const char* prefix : {"l.", "r.", "last."}) {
        if (auto idx = schema.IndexOf(prefix + tail)) return *idx;
      }
    } else {
      for (const char* prefix : {"l.", "r.", "last."}) {
        if (auto idx = schema.IndexOf(prefix + name)) return *idx;
      }
    }
    return Status::NotFound(StrCat("unknown attribute '", name, "'"));
  }

  struct FromResult {
    QueryNodePtr node;
    ExprParseContext where_ctx;  // bindings valid for the WHERE clause
    int64_t window = 0;          // single-term window (for aggregates)
    bool has_window = false;
    // Keep binding schemas alive (where_ctx stores raw pointers).
    std::vector<std::shared_ptr<Schema>> owned_schemas;
  };

  Result<FromResult> ParseFromExpr() {
    auto left = ParseTerm();
    if (!left.ok()) return left.status();
    Term lt = left.value();

    enum class Comb { kNone, kJoin, kSeq, kIterate };
    Comb comb = Comb::kNone;
    if (IsKw(Peek(), "join")) {
      comb = Comb::kJoin;
    } else if (IsKw(Peek(), "seq")) {
      comb = Comb::kSeq;
    } else if (IsKw(Peek(), "iterate")) {
      comb = Comb::kIterate;
    }

    if (comb == Comb::kNone) {
      FromResult fr;
      fr.node = lt.node;
      fr.window = lt.window;
      fr.has_window = lt.has_window;
      auto schema = std::make_shared<Schema>(lt.node->output_schema());
      fr.owned_schemas.push_back(schema);
      fr.where_ctx.bindings.push_back({"", Side::kLeft, schema.get(), 0});
      if (!lt.alias.empty()) {
        fr.where_ctx.bindings.push_back(
            {lt.alias, Side::kLeft, schema.get(), 0});
      }
      return fr;
    }
    Advance();  // consume combinator keyword

    auto right = ParseTerm();
    if (!right.ok()) return right.status();
    Term rt = right.value();

    RUMOR_RETURN_IF_ERROR(ExpectKw("on"));

    // ON-predicate context: left/right sides with aliases; `last` for
    // ITERATE.
    auto ls = std::make_shared<Schema>(lt.node->output_schema());
    auto rs = std::make_shared<Schema>(rt.node->output_schema());
    ExprParseContext on_ctx;
    on_ctx.bindings.push_back({"left", Side::kLeft, ls.get(), 0});
    if (!lt.alias.empty()) {
      on_ctx.bindings.push_back({lt.alias, Side::kLeft, ls.get(), 0});
    }
    if (comb == Comb::kIterate) {
      on_ctx.bindings.push_back({"last", Side::kLeft, rs.get(), ls->size()});
    }
    on_ctx.bindings.push_back({"right", Side::kRight, rs.get(), 0});
    if (!rt.alias.empty()) {
      on_ctx.bindings.push_back({rt.alias, Side::kRight, rs.get(), 0});
    }
    // Bare-name fallback: left first, then right.
    on_ctx.bindings.push_back({"", Side::kLeft, ls.get(), 0});
    on_ctx.bindings.push_back({"", Side::kRight, rs.get(), 0});

    auto pred = ParsePredicate(on_ctx);
    if (!pred.ok()) return pred.status();

    int64_t within = 0;
    if (IsKw(Peek(), "within")) {
      Advance();
      if (Peek().kind != TokenKind::kInt) return Error("expected integer");
      within = Peek().int_value;
      Advance();
    }

    FromResult fr;
    fr.owned_schemas = {ls, rs};
    switch (comb) {
      case Comb::kJoin: {
        if (!lt.has_window || !rt.has_window) {
          return Error("JOIN requires [RANGE n] on both inputs");
        }
        fr.node = QueryNode::Join(lt.node, rt.node, pred.value(), lt.window,
                                  rt.window);
        break;
      }
      case Comb::kSeq:
        fr.node =
            QueryNode::Sequence(lt.node, rt.node, pred.value(), within);
        break;
      case Comb::kIterate:
        fr.node = QueryNode::Iterate(lt.node, rt.node, pred.value(), within);
        break;
      default:
        return Error("internal: bad combinator");
    }

    // WHERE context over the concatenated output schema: qualified aliases
    // address the two parts by offset.
    auto out = std::make_shared<Schema>(fr.node->output_schema());
    fr.owned_schemas.push_back(out);
    fr.where_ctx.bindings.push_back({"", Side::kLeft, out.get(), 0});
    if (!lt.alias.empty()) {
      fr.where_ctx.bindings.push_back({lt.alias, Side::kLeft, ls.get(), 0});
    }
    if (!rt.alias.empty()) {
      fr.where_ctx.bindings.push_back(
          {rt.alias, Side::kLeft, rs.get(), ls->size()});
    }
    if (comb == Comb::kIterate) {
      fr.where_ctx.bindings.push_back(
          {"last", Side::kLeft, rs.get(), ls->size()});
    }
    return fr;
  }

  Result<Term> ParseTerm() {
    Term term;
    if (IsSym(Peek(), "(")) {
      Advance();
      auto sub = ParseQueryBody();
      if (!sub.ok()) return sub.status();
      RUMOR_RETURN_IF_ERROR(Expect(")"));
      term.node = sub.value();
    } else {
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected stream name");
      }
      std::string name = Peek().text;
      Advance();
      bool is_query = false;
      term.node = catalog_.Resolve(name, &is_query);
      if (term.node == nullptr) {
        return Status::NotFound(StrCat("unknown stream or query '", name,
                                       "'"));
      }
      if (is_query) reads_.push_back(name);
      term.alias = name;
    }
    // Optional window: '[' RANGE n ']'.
    if (IsSym(Peek(), "[")) {
      Advance();
      RUMOR_RETURN_IF_ERROR(ExpectKw("range"));
      if (Peek().kind != TokenKind::kInt) return Error("expected integer");
      term.window = Peek().int_value;
      term.has_window = true;
      Advance();
      RUMOR_RETURN_IF_ERROR(Expect("]"));
    }
    // Optional alias.
    if (IsKw(Peek(), "as")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) return Error("expected alias");
      term.alias = Peek().text;
      Advance();
    }
    return term;
  }

  Result<ExprPtr> ParsePredicate(const ExprParseContext& ctx) {
    return ParseExprTokens(tokens_, pos_, ctx);
  }

  const std::vector<Token>& tokens_;
  size_t* pos_;
  const Catalog& catalog_;
  std::vector<std::string> reads_;  // the statement's query names so far
};

}  // namespace

Result<Query> ParseQuery(const std::string& text, const Catalog& catalog) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  size_t pos = 0;
  QueryParser parser(tokens.value(), &pos, catalog);
  auto q = parser.ParseStatement(0);
  if (!q.ok()) return q;
  parser.SkipSemicolons();
  if (!parser.AtEnd()) {
    return Status::InvalidArgument("trailing input after query");
  }
  return q;
}

Result<std::vector<Query>> ParseScript(const std::string& text,
                                       const Catalog& catalog) {
  return ParseScript(text, catalog, nullptr);
}

Result<std::vector<Query>> ParseScript(
    const std::string& text, const Catalog& catalog,
    std::vector<std::string>* statement_texts) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  const std::vector<Token>& toks = tokens.value();
  size_t pos = 0;
  Catalog working = catalog;  // copies entries; later queries see earlier ones
  std::vector<Query> out;
  QueryParser parser(toks, &pos, working);
  parser.SkipSemicolons();
  while (!parser.AtEnd()) {
    // Body start: past the optional `name ':'` prefix (mirrors
    // ParseStatement), so the recorded text re-parses with ParseQuery.
    size_t body_tok = pos;
    if (toks[pos].kind == TokenKind::kIdent && !IsReserved(toks[pos].text) &&
        pos + 1 < toks.size() && toks[pos + 1].kind == TokenKind::kSymbol &&
        toks[pos + 1].text == ":") {
      body_tok = pos + 2;
    }
    auto q = parser.ParseStatement(static_cast<int>(out.size()) + 1);
    if (!q.ok()) return q.status();
    if (statement_texts != nullptr) {
      // `pos` now sits on the ';' (or the end token, whose position is
      // text.size()), which bounds this statement's source span.
      const size_t begin = body_tok < toks.size()
                               ? static_cast<size_t>(toks[body_tok].position)
                               : text.size();
      const size_t end = static_cast<size_t>(toks[pos].position);
      statement_texts->push_back(Trim(text.substr(begin, end - begin)));
    }
    working.AddQuery(q.value());
    out.push_back(std::move(q).value());
    if (!parser.AtSemicolon() && !parser.AtEnd()) {
      return Status::InvalidArgument("expected ';' between queries");
    }
    parser.SkipSemicolons();
  }
  return out;
}

}  // namespace rumor
