// Value: the dynamically-typed attribute value used in stream tuples.
// The benchmark workloads of the paper use integer attributes only, but the
// library supports int64, double, and string attributes so realistic
// monitoring schemas (process names, counter labels) can be expressed.
//
// Representation: a 16-byte tagged union. Ints, doubles, and bools are
// stored inline; strings are a pointer to an immutable, process-interned
// StringRep (content + precomputed hash). Interning makes Value trivially
// copyable and trivially destructible — vector<Value> payloads are dense
// memcpy-able blocks, equality of equal strings is a pointer compare, and
// hashing never touches string bytes. Interned strings live for the process
// lifetime, so memory is bounded by the number of *distinct* strings ever
// seen — appropriate for the enum-like string attributes of monitoring
// schemas (process names, labels), not for unbounded-cardinality payloads.
// The intern table is thread-safe (one mutex, taken only at string Value
// construction, never on the compare/hash/copy paths); if construction of
// string values ever becomes a contended hot path, shard the table.
#ifndef RUMOR_COMMON_VALUE_H_
#define RUMOR_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"

namespace rumor {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kBool = 4,
};

// Returns the lowercase name of a type ("int", "double", ...).
const char* ValueTypeName(ValueType type);

// Immutable interned string storage. Reps are canonical: two Values carry
// the same StringRep pointer iff their strings are byte-identical.
struct StringRep {
  uint64_t hash;    // HashBytes(str), precomputed
  std::string str;  // immutable after interning
};

// Returns the canonical rep for `s` (process-wide table; reps are never
// freed). Thread-safe; the lookup cost is paid at Value construction, not
// on the compare/hash hot paths.
const StringRep* InternString(std::string_view s);

// A small tagged union; see the file comment for the representation.
// Values are totally ordered within a type; cross-type numeric comparisons
// (int vs double) promote to double, everything else compares by type tag
// first (a stable, documented order used by test oracles).
class Value {
 public:
  Value() : type_(ValueType::kNull), int_(0) {}
  explicit Value(int64_t v) : type_(ValueType::kInt), int_(v) {}
  explicit Value(int v) : type_(ValueType::kInt), int_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), double_(v) {}
  explicit Value(bool v) : type_(ValueType::kBool), bool_(v) {}
  explicit Value(std::string_view v)
      : type_(ValueType::kString), str_(InternString(v)) {}
  explicit Value(const std::string& v)
      : Value(std::string_view(v)) {}
  explicit Value(const char* v) : Value(std::string_view(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t AsInt() const {
    RUMOR_DCHECK(type_ == ValueType::kInt) << "not an int";
    return int_;
  }
  double AsDouble() const {
    RUMOR_DCHECK(type_ == ValueType::kDouble) << "not a double";
    return double_;
  }
  bool AsBool() const {
    RUMOR_DCHECK(type_ == ValueType::kBool) << "not a bool";
    return bool_;
  }
  const std::string& AsString() const {
    RUMOR_DCHECK(type_ == ValueType::kString) << "not a string";
    return str_->str;
  }

  // Unchecked raw int access for the typed evaluation fast path; the caller
  // must have verified type() == kInt.
  int64_t AsIntUnchecked() const { return int_; }

  // Numeric view: int/double/bool coerced to double; CHECKs otherwise.
  double ToNumeric() const;

  // True if the value is numeric (int, double, or bool).
  bool IsNumeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble ||
           type_ == ValueType::kBool;
  }

  // Total order across all values; see class comment for cross-type rules.
  // Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    // Same-tag inline cases resolve without the Compare switch; interned
    // strings compare by pointer.
    if (type_ == other.type_) {
      switch (type_) {
        case ValueType::kNull: return true;
        case ValueType::kInt: return int_ == other.int_;
        case ValueType::kBool: return bool_ == other.bool_;
        case ValueType::kString: return str_ == other.str_;
        case ValueType::kDouble: break;  // NaN/-0.0: defer to Compare
      }
    }
    return Compare(other) == 0;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  // Stable 64-bit hash consistent with operator== (numeric values that
  // compare equal hash equal).
  uint64_t Hash() const;

  // Human-readable rendering, e.g. `42`, `3.5`, `"foo"`, `null`.
  std::string ToString() const;

 private:
  ValueType type_;
  union {
    int64_t int_;
    double double_;
    bool bool_;
    const StringRep* str_;  // interned; never null when engaged
  };
};

// The data plane depends on these: payload blocks are recycled raw and
// copied with memcpy, with no per-Value construction or destruction.
static_assert(sizeof(Value) <= 16, "Value must stay a compact 16 bytes");
static_assert(std::is_trivially_copyable_v<Value>);
static_assert(std::is_trivially_destructible_v<Value>);

// int64 arithmetic wraps in two's complement (signed overflow is otherwise
// undefined): INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0. The
// divisor of WrappingDiv and WrappingMod is not zero.
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingDiv(int64_t a, int64_t b) {
  return b == -1 ? WrappingSub(0, a) : a / b;
}
inline int64_t WrappingMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

// Arithmetic on values with numeric promotion. Integer op integer stays
// integer and wraps; any double operand promotes to double. A null or
// string operand, a zero divisor of / or %, and a non-int operand of %
// yield null.
Value ValueAdd(const Value& a, const Value& b);
Value ValueSub(const Value& a, const Value& b);
Value ValueMul(const Value& a, const Value& b);
Value ValueDiv(const Value& a, const Value& b);
Value ValueMod(const Value& a, const Value& b);

}  // namespace rumor

template <>
struct std::hash<rumor::Value> {
  size_t operator()(const rumor::Value& v) const { return v.Hash(); }
};

#endif  // RUMOR_COMMON_VALUE_H_
