// Seeded fuzz of the RQL add path: mutated valid scripts and random token
// strings go through AddScript, Start, pushes and a live add, with int
// columns holding 0, negative values, INT64_MIN, INT64_MAX and doubles.
// Every call must return a Status or succeed; nothing may abort (a
// RUMOR_CHECK, an uncaught exception, or a sanitizer report).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"

namespace rumor {
namespace {

// Valid queries over S(a0, a1 int; s string) and T(a0, a1 int), written
// with a space between tokens so a mutation can work on tokens. "$" is the
// query's name; "@" names the query before it.
const std::vector<std::string>& Templates() {
  static const std::vector<std::string> kTemplates = {
      "$ : SELECT * FROM S WHERE a0 > 5",
      "$ : SELECT a0 , a1 FROM S WHERE a1 % 3 = 1 AND a1 / a0 > 0",
      "$ : SELECT a0 , SUM ( a1 ) FROM S [ RANGE 10 ] GROUP BY a0",
      "$ : SELECT AVG ( a1 ) FROM S [ RANGE 5 ]",
      "$ : SELECT a0 , COUNT ( * ) FROM S [ RANGE 0 ] GROUP BY a0",
      "$ : SELECT MIN ( a1 ) , MAX ( a1 ) FROM S [ RANGE 7 ]",
      "$ : SELECT a0 , MAX ( s ) FROM S [ RANGE 6 ] GROUP BY a0",
      "$ : SELECT COUNT ( * ) FROM T [ RANGE 3 ] GROUP BY a1",
      "$ : SELECT * FROM S [ RANGE 10 ] JOIN T [ RANGE 10 ] ON S.a0 = T.a0",
      "$ : SELECT * FROM S SEQ T ON S.a0 = T.a0 WITHIN 12",
      "$ : SELECT * FROM S AS B ITERATE T AS E ON B.a0 = E.a0 AND "
      "E.a1 > last.a1 WITHIN 30",
      "$ : SELECT * FROM @ WHERE a0 * 2 < 7",
      "$ : SELECT * FROM T WHERE NOT ( a0 - a1 >= 0 ) OR a1 = -1",
  };
  return kTemplates;
}

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> kVocabulary = {
      "SELECT", "FROM", "WHERE", "JOIN", "SEQ", "ITERATE", "ON", "WITHIN",
      "GROUP", "BY", "AS", "AND", "OR", "NOT", "RANGE", "SUM", "AVG",
      "COUNT", "MIN", "MAX", "(", ")", "[", "]", ",", ";", ":", "*", "+",
      "-", "/", "%", "=", "<", ">", "<=", ">=", "!=", "S", "T", "a0", "a1",
      "s", "last", "S.a0", "T.a1", "E.a1", "last.a1", "0", "1", "5", "-3",
      "99999999999999999999", "2.5", "'x'", "Q1", "Q2",
  };
  return kVocabulary;
}

std::vector<std::string> Split(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t next = text.find(' ', pos);
    const size_t end = next == std::string::npos ? text.size() : next;
    if (end > pos) out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += (out.empty() ? "" : " ") + t;
  return out;
}

// One to three template queries, then zero to three token mutations; or,
// one time in four, a random token string.
std::string RandomScript(Rng& rng) {
  const auto& vocabulary = Vocabulary();
  auto token = [&] {
    return vocabulary[rng.UniformInt(0, vocabulary.size() - 1)];
  };
  std::vector<std::string> tokens;
  if (rng.UniformInt(0, 3) == 0) {
    for (int64_t n = rng.UniformInt(1, 30); n > 0; --n) tokens.push_back(token());
    return Join(tokens);
  }
  const int queries = static_cast<int>(rng.UniformInt(1, 3));
  std::string script;
  for (int q = 1; q <= queries; ++q) {
    std::string text =
        Templates()[rng.UniformInt(0, Templates().size() - 1)];
    const std::string name = "Q" + std::to_string(q);
    text.replace(text.find('$'), 1, name);
    if (const size_t at = text.find('@'); at != std::string::npos) {
      text.replace(at, 1, q > 1 ? "Q" + std::to_string(q - 1) : "S");
    }
    script += (script.empty() ? "" : " ; ") + text;
  }
  tokens = Split(script);
  for (int64_t m = rng.UniformInt(0, 3); m > 0 && !tokens.empty(); --m) {
    const size_t at = rng.UniformInt(0, tokens.size() - 1);
    switch (rng.UniformInt(0, 3)) {
      case 0: tokens[at] = token(); break;
      case 1: tokens.erase(tokens.begin() + at); break;
      case 2: tokens.insert(tokens.begin() + at, token()); break;
      default: tokens.insert(tokens.begin() + at, tokens[at]); break;
    }
  }
  return Join(tokens);
}

Value RandomInt(Rng& rng) {
  switch (rng.UniformInt(0, 7)) {
    case 0: return Value(int64_t{0});
    case 1: return Value(std::numeric_limits<int64_t>::min());
    case 2: return Value(std::numeric_limits<int64_t>::max());
    case 3: return Value(-2.5);  // a double in an int column
    case 4: return Value(int64_t{-1});
    default: return Value(rng.UniformInt(-9, 9));
  }
}

TEST(RqlFuzzTest, NoScriptOrTupleAbortsTheEngine) {
  constexpr int kScripts = 2500;
  int added = 0, started = 0;
  for (int i = 0; i < kScripts; ++i) {
    Rng rng(0x5eed0000u + i);
    const std::string script = RandomScript(rng);
    SCOPED_TRACE(script);
    StreamEngine engine;
    ASSERT_TRUE(engine
                    .RegisterSource("S", Schema({{"a0", ValueType::kInt},
                                                 {"a1", ValueType::kInt},
                                                 {"s", ValueType::kString}}))
                    .ok());
    ASSERT_TRUE(engine.RegisterSource("T", Schema::MakeInts(2)).ok());
    if (!engine.AddScript(script).ok() || engine.num_queries() == 0) continue;
    ++added;
    if (!engine.Start().ok()) continue;
    ++started;
    for (int k = 0; k < 40; ++k) {
      if (k == 20) (void)engine.AddQueryText(RandomScript(rng), "LIVE");
      const Timestamp ts = k;
      (void)engine.Push("S", Tuple::Make({RandomInt(rng), RandomInt(rng),
                                          Value(k % 2 ? "x" : "y")},
                                         ts));
      (void)engine.Push("T", Tuple::Make({RandomInt(rng), RandomInt(rng)}, ts));
    }
    engine.Flush();
  }
  // The fuzz must reach the run path, not only the parser.
  EXPECT_GT(started, kScripts / 10);
  EXPECT_GE(added, started);
}

}  // namespace
}  // namespace rumor
