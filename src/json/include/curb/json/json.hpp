#pragma once

// curb::json — the one JSON reader and the writer primitives shared by every
// curb exporter (spans, Chrome traces, metrics, ts windows, BENCH rows,
// perf-diff reports, mem profiles, CAP instances). A leaf library: it
// depends on nothing but the standard library, so any layer may use it.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace curb::json {

/// A parsed JSON value. Objects keep member order (duplicate keys are kept
/// too; find() returns the first).
struct Value {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Members = std::vector<std::pair<std::string, Value>>;

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  Members object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed access for strict decoders: each throws std::runtime_error when
  /// the value has another type.
  [[nodiscard]] const Members& as_object() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// An integral number of magnitude below 2^53, where a double holds every
  /// integer exactly (an integer literal at or past 2^53 may already have
  /// been rounded by the parse); anything else throws rather than rounding.
  /// as_uint() additionally rejects negatives.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
};

/// Parse one complete RFC 8259 document: raw control bytes inside strings,
/// malformed numbers, trailing characters and nesting deeper than 512 are
/// errors. `\u` escapes decode to UTF-8 (surrogate pairs to one 4-byte
/// sequence). Throws only std::runtime_error.
[[nodiscard]] Value parse(std::string_view text);
/// As above, over the rest of the stream.
[[nodiscard]] Value parse(std::istream& in);

/// JSON string escaping: '"', '\\' and every control byte below 0x20;
/// other bytes (UTF-8 included) pass through unchanged.
[[nodiscard]] std::string escape(std::string_view s);

/// Shortest round-trippable JSON number formatting: integers print without
/// an exponent or trailing zeros, so exports stay byte-stable and diffable.
[[nodiscard]] std::string number(double v);

}  // namespace curb::json
