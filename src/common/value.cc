#include "common/value.h"

#include <cmath>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace rumor {

const StringRep* InternString(std::string_view s) {
  // Keyed by a view into each rep's own string: reps are heap-allocated and
  // never freed, so the views stay valid. The table is deliberately leaked
  // (reps are handed out as raw pointers with process lifetime).
  struct Table {
    std::mutex mu;
    std::unordered_map<std::string_view, const StringRep*> map;
  };
  static Table* table = new Table;
  std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->map.find(s);
  if (it != table->map.end()) return it->second;
  auto* rep = new StringRep{HashBytes(s), std::string(s)};
  table->map.emplace(std::string_view(rep->str), rep);
  return rep;
}

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kBool: return "bool";
  }
  return "?";
}

double Value::ToNumeric() const {
  switch (type_) {
    case ValueType::kInt: return static_cast<double>(int_);
    case ValueType::kDouble: return double_;
    case ValueType::kBool: return bool_ ? 1.0 : 0.0;
    default:
      RUMOR_CHECK(false) << "non-numeric value " << ToString();
      return 0.0;
  }
}

int Value::Compare(const Value& other) const {
  // Numeric values compare numerically regardless of int/double/bool tag.
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == ValueType::kInt && other.type_ == ValueType::kInt) {
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    }
    double a = ToNumeric(), b = other.ToNumeric();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case ValueType::kNull: return 0;
    case ValueType::kString:
      return str_ == other.str_ ? 0 : str_->str.compare(other.str_->str);
    default: return 0;  // unreachable: numeric handled above
  }
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return Mix64(0x6e756c6c);  // "null"
    case ValueType::kInt:
      return Mix64(static_cast<uint64_t>(int_));
    case ValueType::kBool:
      return Mix64(bool_ ? 1u : 0u);
    case ValueType::kDouble: {
      // Hash doubles that are integral the same as the equal int so that
      // Hash() is consistent with the numeric Compare().
      if (std::nearbyint(double_) == double_ &&
          std::abs(double_) < 9.0e18) {
        return Mix64(static_cast<uint64_t>(static_cast<int64_t>(double_)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double_));
      __builtin_memcpy(&bits, &double_, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString:
      return str_->hash;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return std::to_string(int_);
    case ValueType::kBool: return bool_ ? "true" : "false";
    case ValueType::kDouble: {
      std::ostringstream os;
      os << double_;
      return os.str();
    }
    case ValueType::kString: return "\"" + str_->str + "\"";
  }
  return "?";
}

namespace {

bool BothInt(const Value& a, const Value& b) {
  return a.type() == ValueType::kInt && b.type() == ValueType::kInt;
}

bool BothNumeric(const Value& a, const Value& b) {
  return a.IsNumeric() && b.IsNumeric();
}

}  // namespace

Value ValueAdd(const Value& a, const Value& b) {
  if (BothInt(a, b)) return Value(WrappingAdd(a.AsInt(), b.AsInt()));
  if (!BothNumeric(a, b)) return Value();
  return Value(a.ToNumeric() + b.ToNumeric());
}

Value ValueSub(const Value& a, const Value& b) {
  if (BothInt(a, b)) return Value(WrappingSub(a.AsInt(), b.AsInt()));
  if (!BothNumeric(a, b)) return Value();
  return Value(a.ToNumeric() - b.ToNumeric());
}

Value ValueMul(const Value& a, const Value& b) {
  if (BothInt(a, b)) return Value(WrappingMul(a.AsInt(), b.AsInt()));
  if (!BothNumeric(a, b)) return Value();
  return Value(a.ToNumeric() * b.ToNumeric());
}

Value ValueDiv(const Value& a, const Value& b) {
  if (!BothNumeric(a, b) || b.ToNumeric() == 0.0) return Value();
  if (BothInt(a, b)) return Value(WrappingDiv(a.AsInt(), b.AsInt()));
  return Value(a.ToNumeric() / b.ToNumeric());
}

Value ValueMod(const Value& a, const Value& b) {
  if (!BothInt(a, b) || b.AsInt() == 0) return Value();
  return Value(WrappingMod(a.AsInt(), b.AsInt()));
}

}  // namespace rumor
