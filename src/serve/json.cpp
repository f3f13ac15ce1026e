#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <system_error>

namespace sgl::serve {
namespace {

[[noreturn]] void parse_fail(std::string_view what, std::size_t pos) {
  throw SglError(ErrorCode::kParseError,
                 "json: " + std::string(what) + " at offset " +
                     std::to_string(pos));
}

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text, TupleCapture* capture = nullptr)
      : text_(text), capture_(capture) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) parse_fail("trailing characters", pos_);
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) parse_fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      parse_fail(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      parse_fail("invalid literal", pos_);
    }
    pos_ += lit.size();
  }

  JsonValue parse_value() {
    if (depth_ >= kMaxDepth) parse_fail("nesting too deep", pos_);
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't': expect_literal("true"); return JsonValue(true);
      case 'f': expect_literal("false"); return JsonValue(false);
      case 'n': expect_literal("null"); return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    ++depth_;
    expect('{');
    JsonValue::Object members;
    if (!consume('}')) {
      do {
        if (peek() != '"') parse_fail("expected member key string", pos_);
        std::string key = parse_string();
        expect(':');
        if (depth_ == 1 && capture_ != nullptr && !capture_->captured &&
            key == capture_->member && capture_tuples()) {
          members.emplace_back(std::move(key), JsonValue(JsonValue::Array{}));
          continue;
        }
        members.emplace_back(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    }
    --depth_;
    return JsonValue(std::move(members));
  }

  JsonValue parse_array() {
    ++depth_;
    expect('[');
    JsonValue::Array elements;
    if (!consume(']')) {
      // Short arrays (node pairs, edge tuples) then take one allocation
      // instead of up to three.
      elements.reserve(4);
      do {
        elements.push_back(parse_value());
      } while (consume(','));
      expect(']');
    }
    --depth_;
    return JsonValue(std::move(elements));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) parse_fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        parse_fail("raw control character in string", pos_ - 1);
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) parse_fail("unterminated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: parse_fail("unknown escape", pos_ - 1);
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    const std::uint32_t code = parse_hex4();
    // Surrogate pairs are passed through as the replacement-free BMP
    // encoding of each half is invalid; the protocol never emits them,
    // so reject instead of silently corrupting.
    if (code >= 0xD800 && code <= 0xDFFF) {
      parse_fail("surrogate escapes are not supported", pos_);
    }
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) parse_fail("truncated \\u escape", pos_);
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        parse_fail("invalid \\u escape digit", pos_ - 1);
      }
    }
    return code;
  }

  JsonValue parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(
        text_.data() + start, text_.data() + text_.size(), value);
    if (ec != std::errc{} || end == text_.data() + start) {
      parse_fail("invalid number", start);
    }
    if (!std::isfinite(value)) parse_fail("non-finite number", start);
    pos_ = static_cast<std::size_t>(end - text_.data());
    return JsonValue(value);
  }

  /// The number parse_number would read at the cursor, or false (cursor
  /// unspecified) where it would fail or see another value.
  bool try_number(double& value) {
    skip_whitespace();
    const char* begin = text_.data() + pos_;
    const auto [end, ec] =
        std::from_chars(begin, text_.data() + text_.size(), value);
    if (ec != std::errc{} || end == begin || !std::isfinite(value)) return false;
    pos_ = static_cast<std::size_t>(end - text_.data());
    return true;
  }

  /// True when the cursor, past whitespace, is at `c` (consumed).
  bool try_char(char c) {
    skip_whitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// Reads an array of 2- or 3-number arrays into capture_->tuples. On
  /// anything else it rewinds the cursor, drops what it read and returns
  /// false, and the caller parses the value generically — which then
  /// yields the same value or raises the same error.
  bool capture_tuples() {
    const std::size_t start = pos_;
    std::vector<double>& out = capture_->tuples;
    const auto fail = [&] {
      pos_ = start;
      out.clear();
      return false;
    };
    if (!try_char('[')) return fail();
    if (!try_char(']')) {
      do {
        if (!try_char('[')) return fail();
        double v[3] = {0.0, 0.0, capture_->fill};
        int k = 0;
        do {
          if (k == 3 || !try_number(v[k])) return fail();
          ++k;
        } while (try_char(','));
        if (k < 2 || !try_char(']')) return fail();
        out.insert(out.end(), v, v + 3);
      } while (try_char(','));
      if (!try_char(']')) return fail();
    }
    capture_->captured = true;
    return true;
  }

  std::string_view text_;
  TupleCapture* capture_ = nullptr;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void serialize_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void serialize_number(double v, std::string& out) {
  // Integral values print without a point/exponent (ids, counts); all
  // other doubles use shortest round-trip, so equal bits ⇒ equal bytes
  // and parse(serialize(x)) == x exactly.
  constexpr double kIntLimit = 9007199254740992.0;  // 2^53
  // Negative zero must keep its sign bit (bitwise round trip), so it
  // takes the to_chars path ("-0").
  if (v == std::floor(v) && std::fabs(v) < kIntLimit &&
      !(v == 0.0 && std::signbit(v))) {
    const auto i = static_cast<long long>(v);
    out += std::to_string(i);
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  SGL_ASSERT(ec == std::errc{}, "json: to_chars failed");
  out.append(buf, end);
}

void serialize_value(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      serialize_number(v.as_number(), out);
      break;
    case JsonValue::Type::kString:
      serialize_string(v.as_string(), out);
      break;
    case JsonValue::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& e : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        serialize_value(e, out);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        serialize_string(key, out);
        out.push_back(':');
        serialize_value(value, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : as_object()) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  SGL_EXPECTS(is_object() || is_null(), "JsonValue::set: not an object");
  if (is_null()) value_.emplace<Object>();
  Object& object = as_object();
  for (Member& m : object) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  object.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  SGL_EXPECTS(is_array() || is_null(), "JsonValue::push_back: not an array");
  if (is_null()) value_.emplace<Array>();
  std::get_if<Array>(&value_)->push_back(std::move(value));
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue json_parse(std::string_view text, TupleCapture& capture) {
  capture.captured = false;
  capture.tuples.clear();
  return Parser(text, &capture).parse_document();
}

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_value(value, out);
  return out;
}

}  // namespace sgl::serve
