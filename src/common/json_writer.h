// Minimal JSON emission (and a syntax checker) — no external dependency.
// JsonWriter produces pretty-printed, valid JSON documents; it is the one
// place that knows about escaping and number formatting, so the metrics
// snapshot (EngineMetrics::ToJson) and the BENCH_*.json emitters agree on
// the format instead of each hand-rolling printf JSON.
//
//   JsonWriter w;
//   w.BeginObject()
//       .Key("bench").String("shard_scaling")
//       .Key("rows").BeginArray()
//           .BeginObject().Key("batch").Int(64).EndObject()
//       .EndArray()
//   .EndObject();
//   w.str();  // the finished document
#ifndef RUMOR_COMMON_JSON_WRITER_H_
#define RUMOR_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rumor {

class JsonWriter {
 public:
  // `indent` spaces per nesting level; 0 emits compact single-line JSON.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object member key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  // `%.*g` with `precision` significant digits; NaN/inf become null (JSON
  // has no representation for them).
  JsonWriter& Double(double value, int precision = 6);

  // Convenience: Key + value in one call.
  JsonWriter& KV(std::string_view key, std::string_view value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, const char* value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, int64_t value) {
    return Key(key).Int(value);
  }
  JsonWriter& KV(std::string_view key, int value) {
    return Key(key).Int(value);
  }
  JsonWriter& KV(std::string_view key, double value) {
    return Key(key).Double(value);
  }
  JsonWriter& KV(std::string_view key, bool value) {
    return Key(key).Bool(value);
  }

  // The document so far. Complete (all scopes closed) once every Begin* has
  // its End*; a trailing newline is appended for file friendliness.
  std::string str() const;

 private:
  // Comma/newline/indent bookkeeping before a value or key is emitted.
  void NextElement();
  void BeginValue();
  void AppendEscaped(std::string_view s);
  void AppendIndent(size_t depth);

  struct Frame {
    bool is_object;
    int count;  // elements emitted so far
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
  int indent_;
};

// Validates that `text` is one complete JSON value (the round-trip check for
// everything this writer emits). On failure returns false and, if `error` is
// non-null, a message naming the byte offset.
bool JsonLint(std::string_view text, std::string* error = nullptr);

}  // namespace rumor

#endif  // RUMOR_COMMON_JSON_WRITER_H_
