#include "curb/json/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <sstream>
#include <stdexcept>

namespace curb::json {

namespace {

/// Recursive-descent RFC 8259 parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  Value parse_document() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"json: " + what + " at offset " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Bound the recursion so hostile nesting throws instead of
        // overflowing the stack (RFC 8259 §9 allows a nesting limit).
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = c == 't';
        if (!consume_literal(c == 't' ? "true" : "false")) fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      }
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  /// The code point of a `\u` escape (the "\u" already consumed); a high
  /// surrogate must be followed by an escaped low one.
  unsigned parse_code_point() {
    const unsigned code = parse_hex4();
    if (code >= 0xDC00 && code < 0xE000) fail("unpaired surrogate");
    if (code < 0xD800 || code >= 0xDC00) return code;
    if (!consume_literal("\\u")) fail("unpaired surrogate");
    const unsigned low = parse_hex4();
    if (low < 0xDC00 || low >= 0xE000) fail("unpaired surrogate");
    return 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
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
        case 'u': append_utf8(out, parse_code_point()); break;
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  std::size_t skip_digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ - from;
  }

  bool consume_char(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// number = [ "-" ] ( "0" / 1-9 *DIGIT ) [ "." 1*DIGIT ] [ ("e"/"E") [ "+"/"-" ] 1*DIGIT ]
  Value parse_number() {
    const std::size_t start = pos_;
    consume_char('-');
    if (!consume_char('0') && skip_digits() == 0) fail("expected value");
    if (consume_char('.') && skip_digits() == 0) fail("bad number");
    if (consume_char('e') || consume_char('E')) {
      if (!consume_char('+')) consume_char('-');
      if (skip_digits() == 0) fail("bad number");
    }
    Value v;
    v.type = Value::Type::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc{} || end != last) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void type_error(const char* expected) {
  throw std::runtime_error{std::string{"json: expected "} + expected};
}

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value::Members& Value::as_object() const {
  if (type != Type::kObject) type_error("an object");
  return object;
}

const std::string& Value::as_string() const {
  if (type != Type::kString) type_error("a string");
  return str;
}

bool Value::as_bool() const {
  if (type != Type::kBool) type_error("a bool");
  return boolean;
}

double Value::as_number() const {
  if (type != Type::kNumber) type_error("a number");
  return number;
}

std::int64_t Value::as_int() const {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  const double v = as_number();
  if (v != std::floor(v) || std::fabs(v) >= kExactLimit) {
    type_error("an integer of magnitude below 2^53");
  }
  return static_cast<std::int64_t>(v);
}

std::uint64_t Value::as_uint() const {
  const std::int64_t v = as_int();
  if (v < 0) type_error("a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

Value parse(std::string_view text) { return Parser{text}.parse_document(); }

Value parse(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  // Integral values print as integers ("10", not "1e+01" — %.1g round-trips
  // it, so the shortest-precision scan below would pick the latter).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  return buf;
}

}  // namespace curb::json
