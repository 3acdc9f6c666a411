#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace kpm::obs {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  KPM_REQUIRE(value != nullptr, "JSON object has no member '" + std::string(key) + "'");
  return *value;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_whitespace();
    KPM_REQUIRE(pos_ == text_.size(), "JSON: trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    KPM_FAIL("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (done()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  void skip_whitespace() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  /// RAII: one level of array/object nesting, bounded by kMaxJsonDepth.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxJsonDepth)
        throw JsonDepthError("kpm error: JSON parse error at offset " +
                             std::to_string(parser_.pos_) + ": nesting deeper than " +
                             std::to_string(kMaxJsonDepth) + " levels");
    }
    ~Nesting() { --parser_.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser& parser_;
  };

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string_value();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_null() {
    if (!consume_literal("null")) fail("invalid literal");
    return JsonValue{};
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.kind = JsonValue::Kind::Bool;
    if (consume_literal("true")) {
      value.boolean = true;
    } else if (consume_literal("false")) {
      value.boolean = false;
    } else {
      fail("invalid literal");
    }
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    while (!done() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                       text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                       text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(parsed)) fail("malformed number");
    JsonValue value;
    value.kind = JsonValue::Kind::Number;
    value.number = parsed;
    return value;
  }

  static void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80u) {
      out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800u) {
      out.push_back(static_cast<char>(0xC0u | (code_point >> 6)));
      out.push_back(static_cast<char>(0x80u | (code_point & 0x3Fu)));
    } else {
      out.push_back(static_cast<char>(0xE0u | (code_point >> 12)));
      out.push_back(static_cast<char>(0x80u | ((code_point >> 6) & 0x3Fu)));
      out.push_back(static_cast<char>(0x80u | (code_point & 0x3Fu)));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("malformed \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': append_utf8(out, parse_hex4()); break;
          default: fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20u) {
        fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind = JsonValue::Kind::String;
    value.string = parse_string();
    return value;
  }

  JsonValue parse_array() {
    const Nesting nesting(*this);
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::Array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') return value;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    const Nesting nesting(*this);
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::Object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = take();
      if (c == '}') return value;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).run(); }

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20u) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xFFu);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  KPM_REQUIRE(std::isfinite(value), "JSON numbers must be finite");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace kpm::obs
