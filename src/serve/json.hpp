// Minimal JSON value / parser / serializer for the serving wire protocol
// (DESIGN.md §10). Self-contained on purpose: the container bakes no JSON
// library, and the protocol needs only the scalar/array/object subset.
//
// Determinism contract: objects preserve member insertion order (they are
// stored as ordered member vectors, never hash maps), and numbers
// serialize via std::to_chars shortest round-trip — so a given JsonValue
// always serializes to the same bytes, and two bitwise-equal doubles
// always print identically. That is what makes "batched responses are
// byte-identical to serially-served responses" a checkable guarantee.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace sgl::serve {

/// One JSON value: null, bool, number (double), string, array, or object.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  /// Ordered member list — insertion order is serialization order.
  using Object = std::vector<Member>;

  JsonValue() = default;
  // NOLINTBEGIN(google-explicit-constructor): JSON literals convert freely.
  JsonValue(bool b) : value_(std::in_place_index<1>, b) {}
  /// Any arithmetic type (Index, std::size_t, Real, …) is a number.
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonValue(T v) : value_(std::in_place_index<2>, static_cast<double>(v)) {}
  JsonValue(const char* s) : value_(std::in_place_index<3>, s) {}
  JsonValue(std::string s) : value_(std::in_place_index<3>, std::move(s)) {}
  JsonValue(Array a) : value_(std::in_place_index<4>, std::move(a)) {}
  JsonValue(Object o) : value_(std::in_place_index<5>, std::move(o)) {}
  // NOLINTEND(google-explicit-constructor)

  [[nodiscard]] Type type() const noexcept { return Type(value_.index()); }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type() == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type() == Type::kObject;
  }

  [[nodiscard]] bool as_bool() const {
    SGL_EXPECTS(is_bool(), "JsonValue: not a bool");
    return *std::get_if<bool>(&value_);
  }
  [[nodiscard]] double as_number() const {
    SGL_EXPECTS(is_number(), "JsonValue: not a number");
    return *std::get_if<double>(&value_);
  }
  [[nodiscard]] const std::string& as_string() const {
    SGL_EXPECTS(is_string(), "JsonValue: not a string");
    return *std::get_if<std::string>(&value_);
  }
  [[nodiscard]] const Array& as_array() const {
    SGL_EXPECTS(is_array(), "JsonValue: not an array");
    return *std::get_if<Array>(&value_);
  }
  [[nodiscard]] const Object& as_object() const {
    SGL_EXPECTS(is_object(), "JsonValue: not an object");
    return *std::get_if<Object>(&value_);
  }
  [[nodiscard]] Object& as_object() {
    SGL_EXPECTS(is_object(), "JsonValue: not an object");
    return *std::get_if<Object>(&value_);
  }

  /// Member lookup on an object; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Appends (or overwrites) an object member, keeping insertion order.
  void set(std::string key, JsonValue value);

  /// Appends an array element.
  void push_back(JsonValue value);

 private:
  // One alternative per Type, in Type order, so type() is the index.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

/// Parses one JSON document (the whole string must be consumed, modulo
/// trailing whitespace). Throws SglError with ErrorCode::kParseError on
/// malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Numeric tuples ([a, b] or [a, b, c]) of one top-level array member,
/// read flat: json_parse(text, capture) parses that member's elements
/// straight into `tuples`, with no JsonValue per element, and leaves an
/// empty array in its place in the tree. Same grammar, same numbers:
/// when any element is not such a tuple (or the text there is
/// malformed), the member is parsed as an ordinary value instead, so
/// values and errors are exactly json_parse(text)'s.
struct TupleCapture {
  /// Top-level member to capture (its first occurrence).
  std::string_view member;
  /// Value of an absent third entry.
  double fill = 0.0;
  /// Set when the member was captured; `tuples` then holds its
  /// elements, three values each, in order.
  bool captured = false;
  std::vector<double> tuples;
};

/// json_parse that captures `capture.member` (see TupleCapture).
[[nodiscard]] JsonValue json_parse(std::string_view text, TupleCapture& capture);

/// Serializes compactly (no whitespace). Numbers use std::to_chars
/// shortest round-trip (integral values without an exponent/point), so
/// parse(serialize(v)) reproduces every double bit-for-bit.
[[nodiscard]] std::string json_serialize(const JsonValue& value);

}  // namespace sgl::serve
