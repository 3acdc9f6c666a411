// Minimal JSON document model and recursive-descent parser.
//
// Just enough JSON to round-trip the metrics reports this library emits:
// null/bool/number/string/array/object, UTF-8 passthrough, `\uXXXX` escapes
// decoded for the BMP.  Numbers are stored as doubles, which is lossless for
// the exact-integer counters the reports contain (all < 2^53).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace kpm::obs {

/// Deepest array/object nesting parse_json accepts.  The documents this
/// library writes nest a few levels; the bound keeps the recursive-descent
/// parser's stack use small on hostile input.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Thrown by parse_json when arrays/objects nest deeper than kMaxJsonDepth.
class JsonDepthError : public Error {
 public:
  using Error::Error;
};

/// A parsed JSON value (tagged union of the six JSON kinds).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// `find` that throws kpm::Error when the key is missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parses a complete JSON document.  Throws kpm::Error on malformed input
/// or trailing garbage, and JsonDepthError (a kpm::Error) when the nesting
/// is deeper than kMaxJsonDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Escapes `text` for embedding inside a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Formats a double as a JSON number that round-trips exactly.
[[nodiscard]] std::string json_number(double value);

}  // namespace kpm::obs
