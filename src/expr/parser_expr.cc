#include "expr/parser_expr.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "common/str_util.h"

namespace rumor {

std::vector<ExprBinding> ExprParseContext::EffectiveBindings() const {
  if (!bindings.empty()) return bindings;
  std::vector<ExprBinding> out;
  if (left != nullptr) {
    if (left_aliases.empty()) {
      out.push_back({"", Side::kLeft, left, 0});
    }
    for (const std::string& a : left_aliases) {
      out.push_back({a, Side::kLeft, left, 0});
    }
  }
  if (right != nullptr) {
    if (right_aliases.empty()) {
      out.push_back({"", Side::kRight, right, 0});
    }
    for (const std::string& a : right_aliases) {
      out.push_back({a, Side::kRight, right, 0});
    }
  }
  return out;
}

Result<std::vector<Token>> Tokenize(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.position = static_cast<int>(i);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '_')) {
        ++j;
      }
      tok.kind = TokenKind::kIdent;
      tok.text = text.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
      if (j < n && text[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(text[j + 1]))) {
        is_float = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
      }
      std::string num = text.substr(i, j - i);
      bool in_range;
      if (is_float) {
        tok.kind = TokenKind::kFloat;
        errno = 0;
        tok.float_value = std::strtod(num.c_str(), nullptr);
        in_range = errno != ERANGE;
      } else {
        tok.kind = TokenKind::kInt;
        in_range = std::from_chars(num.data(), num.data() + num.size(),
                                   tok.int_value)
                       .ec == std::errc();
      }
      if (!in_range) {
        return Status::InvalidArgument(
            StrCat("literal ", num, " at offset ", i, " is out of the ",
                   is_float ? "double" : "int64", " range"));
      }
      tok.text = num;
      i = j;
    } else if (c == '\'' || c == '"') {
      size_t j = i + 1;
      while (j < n && text[j] != c) ++j;
      if (j >= n) {
        return Status::InvalidArgument(
            StrCat("unterminated string at offset ", i));
      }
      tok.kind = TokenKind::kString;
      tok.text = text.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      // Two-character operators first.
      std::string two = text.substr(i, 2);
      if (two == "!=" || two == "<=" || two == ">=" || two == "<>") {
        tok.kind = TokenKind::kSymbol;
        tok.text = two == "<>" ? "!=" : two;
        i += 2;
      } else {
        static const std::string kSingles = "()=<>+-*/%,.;[]:";
        if (kSingles.find(c) == std::string::npos) {
          return Status::InvalidArgument(
              StrCat("unexpected character '", std::string(1, c),
                     "' at offset ", i));
        }
        tok.kind = TokenKind::kSymbol;
        tok.text = std::string(1, c);
        ++i;
      }
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = static_cast<int>(n);
  tokens.push_back(end);
  return tokens;
}

namespace {

bool IsKeyword(const Token& t, const char* kw) {
  return t.kind == TokenKind::kIdent && EqualsIgnoreCase(t.text, kw);
}

bool IsSymbol(const Token& t, const char* s) {
  return t.kind == TokenKind::kSymbol && t.text == s;
}

// Recursive-descent parser over a token span.
class ExprParser {
 public:
  ExprParser(const std::vector<Token>& tokens, size_t* pos,
             const ExprParseContext& ctx)
      : tokens_(tokens), pos_(pos), ctx_(ctx) {}

  Result<ExprPtr> ParseOr() {
    auto l = ParseAnd();
    if (!l.ok()) return l;
    ExprPtr acc = std::move(l).value();
    while (IsKeyword(Peek(), "or")) {
      Advance();
      auto r = ParseAnd();
      if (!r.ok()) return r;
      acc = Expr::Or(acc, std::move(r).value());
    }
    return acc;
  }

 private:
  const Token& Peek() const { return tokens_[*pos_]; }
  void Advance() { ++*pos_; }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(
        StrCat(msg, " at offset ", Peek().position, " (near '", Peek().text,
               "')"));
  }

  Result<ExprPtr> ParseAnd() {
    auto l = ParseUnary();
    if (!l.ok()) return l;
    ExprPtr acc = std::move(l).value();
    while (IsKeyword(Peek(), "and")) {
      Advance();
      auto r = ParseUnary();
      if (!r.ok()) return r;
      acc = Expr::And(acc, std::move(r).value());
    }
    return acc;
  }

  Result<ExprPtr> ParseUnary() {
    if (IsKeyword(Peek(), "not")) {
      Advance();
      auto c = ParseUnary();
      if (!c.ok()) return c;
      return Expr::Not(std::move(c).value());
    }
    return ParseCmp();
  }

  Result<ExprPtr> ParseCmp() {
    auto l = ParseAdd();
    if (!l.ok()) return l;
    const Token& t = Peek();
    CmpOp op;
    if (IsSymbol(t, "=")) {
      op = CmpOp::kEq;
    } else if (IsSymbol(t, "!=")) {
      op = CmpOp::kNe;
    } else if (IsSymbol(t, "<")) {
      op = CmpOp::kLt;
    } else if (IsSymbol(t, "<=")) {
      op = CmpOp::kLe;
    } else if (IsSymbol(t, ">")) {
      op = CmpOp::kGt;
    } else if (IsSymbol(t, ">=")) {
      op = CmpOp::kGe;
    } else {
      return l;
    }
    Advance();
    auto r = ParseAdd();
    if (!r.ok()) return r;
    return Expr::Cmp(op, std::move(l).value(), std::move(r).value());
  }

  Result<ExprPtr> ParseAdd() {
    auto l = ParseMul();
    if (!l.ok()) return l;
    ExprPtr acc = std::move(l).value();
    while (IsSymbol(Peek(), "+") || IsSymbol(Peek(), "-")) {
      ArithOp op = Peek().text == "+" ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      auto r = ParseMul();
      if (!r.ok()) return r;
      acc = Expr::Arith(op, acc, std::move(r).value());
    }
    return acc;
  }

  Result<ExprPtr> ParseMul() {
    auto l = ParseAtom();
    if (!l.ok()) return l;
    ExprPtr acc = std::move(l).value();
    while (IsSymbol(Peek(), "*") || IsSymbol(Peek(), "/") ||
           IsSymbol(Peek(), "%")) {
      ArithOp op = Peek().text == "*"
                       ? ArithOp::kMul
                       : (Peek().text == "/" ? ArithOp::kDiv : ArithOp::kMod);
      Advance();
      auto r = ParseAtom();
      if (!r.ok()) return r;
      acc = Expr::Arith(op, acc, std::move(r).value());
    }
    return acc;
  }

  Result<ExprPtr> ParseAtom() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        int64_t v = t.int_value;
        Advance();
        return Expr::ConstInt(v);
      }
      case TokenKind::kFloat: {
        double v = t.float_value;
        Advance();
        return Expr::Const(Value(v));
      }
      case TokenKind::kString: {
        std::string v = t.text;
        Advance();
        return Expr::Const(Value(std::move(v)));
      }
      case TokenKind::kSymbol:
        if (t.text == "(") {
          Advance();
          auto e = ParseOr();
          if (!e.ok()) return e;
          if (!IsSymbol(Peek(), ")")) return Error("expected ')'");
          Advance();
          return e;
        }
        if (t.text == "-") {  // unary minus
          Advance();
          auto e = ParseAtom();
          if (!e.ok()) return e;
          return Expr::Arith(ArithOp::kSub, Expr::ConstInt(0),
                             std::move(e).value());
        }
        return Error("expected expression");
      case TokenKind::kIdent: {
        if (IsKeyword(t, "true")) {
          Advance();
          return Expr::ConstBool(true);
        }
        if (IsKeyword(t, "false")) {
          Advance();
          return Expr::ConstBool(false);
        }
        std::string first = t.text;
        Advance();
        std::string attr = first;
        bool qualified = false;
        if (IsSymbol(Peek(), ".")) {
          Advance();
          if (Peek().kind != TokenKind::kIdent) {
            return Error("expected attribute name after '.'");
          }
          attr = Peek().text;
          qualified = true;
          Advance();
        }
        return Resolve(qualified ? first : "", attr);
      }
      default:
        return Error("unexpected end of expression");
    }
  }

  // Resolves [qualifier.]attr to an Attr/Ts node via the binding list.
  Result<ExprPtr> Resolve(const std::string& qualifier,
                          const std::string& attr) {
    const std::vector<ExprBinding> bindings = ctx_.EffectiveBindings();
    auto make = [&](const ExprBinding& b) -> Result<ExprPtr> {
      if (EqualsIgnoreCase(attr, "ts")) return Expr::Ts(b.side);
      auto idx = b.schema->IndexOf(attr);
      if (!idx.has_value()) {
        return Status::NotFound(StrCat("unknown attribute '", attr,
                                       "' in binding '", b.alias, "'"));
      }
      return Expr::Attr(b.side, b.offset + *idx, attr);
    };
    if (!qualifier.empty()) {
      for (const ExprBinding& b : bindings) {
        if (EqualsIgnoreCase(b.alias, qualifier)) return make(b);
      }
      // Fallback: schemas derived from concatenations name attributes with
      // embedded dots (e.g. "last.a3"); try the joined spelling.
      const std::string joined = qualifier + "." + attr;
      for (const ExprBinding& b : bindings) {
        if (auto idx = b.schema->IndexOf(joined)) {
          return Expr::Attr(b.side, b.offset + *idx, joined);
        }
      }
      return Status::NotFound(
          StrCat("unknown stream qualifier '", qualifier, "'"));
    }
    // Bare name: first binding that knows the attribute wins.
    for (const ExprBinding& b : bindings) {
      if (EqualsIgnoreCase(attr, "ts")) return Expr::Ts(b.side);
      if (b.schema->IndexOf(attr).has_value()) return make(b);
    }
    return Status::NotFound(StrCat("unknown attribute '", attr, "'"));
  }

  const std::vector<Token>& tokens_;
  size_t* pos_;
  const ExprParseContext& ctx_;
};

}  // namespace

Result<ExprPtr> ParseExprTokens(const std::vector<Token>& tokens, size_t* pos,
                                const ExprParseContext& ctx) {
  ExprParser parser(tokens, pos, ctx);
  return parser.ParseOr();
}

Result<ExprPtr> ParseExpr(const std::string& text,
                          const ExprParseContext& ctx) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  size_t pos = 0;
  auto e = ParseExprTokens(tokens.value(), &pos, ctx);
  if (!e.ok()) return e;
  if (tokens.value()[pos].kind != TokenKind::kEnd) {
    return Status::InvalidArgument(
        StrCat("trailing input at offset ", tokens.value()[pos].position));
  }
  return e;
}

}  // namespace rumor
