// A small CORBA-`any`-style tagged value.
//
// The Trading service stores service offers as property sets mapping names
// to typed values, and the constraint language evaluates over them. Value
// covers the types InteGrade's resource descriptions need: booleans,
// integers, reals, strings, and homogeneous-ish lists (used for, e.g., the
// list of software platforms installed on a node).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cdr/cdr.hpp"

namespace integrade::cdr {

class Value;
using ValueList = std::vector<Value>;

enum class ValueKind : std::uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kReal = 3,
  kString = 4,
  kList = 5,
};

const char* value_kind_name(ValueKind k);

class Value {
 public:
  Value() = default;  // null
  Value(bool b) : data_(b) {}                          // NOLINT implicit by design
  Value(std::int64_t i) : data_(i) {}                  // NOLINT
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(double d) : data_(d) {}                        // NOLINT
  Value(std::string s) : data_(std::move(s)) {}        // NOLINT
  Value(const char* s) : data_(std::string(s)) {}      // NOLINT
  Value(ValueList l) : data_(std::move(l)) {}          // NOLINT

  [[nodiscard]] ValueKind kind() const {
    return static_cast<ValueKind>(data_.index());
  }
  [[nodiscard]] bool is_null() const { return kind() == ValueKind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind() == ValueKind::kBool; }
  [[nodiscard]] bool is_int() const { return kind() == ValueKind::kInt; }
  [[nodiscard]] bool is_real() const { return kind() == ValueKind::kReal; }
  [[nodiscard]] bool is_numeric() const { return is_int() || is_real(); }
  [[nodiscard]] bool is_string() const { return kind() == ValueKind::kString; }
  [[nodiscard]] bool is_list() const { return kind() == ValueKind::kList; }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] double as_real() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }
  [[nodiscard]] const ValueList& as_list() const { return std::get<ValueList>(data_); }

  /// Numeric widening: int or real -> double. Requires is_numeric().
  [[nodiscard]] double to_real() const {
    return is_int() ? static_cast<double>(as_int()) : as_real();
  }

  /// Deep structural equality (int 3 != real 3.0 — kinds must match, except
  /// that numerics compare by value so constraint `x == 3` matches real 3.0).
  bool operator==(const Value& other) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, ValueList>
      data_;
};

/// Deepest list nesting a decoded Value may have (a scalar is depth 1, a
/// list of scalars depth 2). Trader properties need 2; deeper frames fail.
inline constexpr int kMaxValueDepth = 16;

template <>
struct Codec<Value> {
  static void encode(Writer& w, const Value& v);
  static Value decode(Reader& r);
};

}  // namespace integrade::cdr
