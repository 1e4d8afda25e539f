#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace ptc::json {
namespace {

[[noreturn]] void fail_kind(const char* wanted) {
  throw std::invalid_argument(std::string("json: value is not a ") + wanted);
}

/// Recursive-descent parser over a raw character range.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
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
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Value v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Value::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value::null();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::map<std::string, Value> members;
    if (peek() == '}') {
      ++pos_;
      return Value::object(std::move(members));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      members.insert_or_assign(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Value::object(std::move(members));
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    if (peek() == ']') {
      ++pos_;
      return Value::array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Value::array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for telemetry artifacts; encode each half as-is).
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
          break;
        }
        default:
          fail("bad escape");
      }
    }
    return out;
  }

  /// Consumes a run of decimal digits and returns its length.
  std::size_t digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    if (int_digits == 0 && pos_ == start) fail("expected a value");
    bool ok = int_digits == 1 || (int_digits > 1 && text_[int_start] != '0');
    if (ok && pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      ok = digits() > 0;
    }
    if (ok && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      ok = digits() > 0;
    }
    if (!ok) fail("malformed number");
    const std::string token = text_.substr(start, pos_ - start);
    const double x = std::strtod(token.c_str(), nullptr);
    // strtod saturates an out-of-range literal such as 1e999 to +-inf,
    // which JSON cannot carry and which no reader can compare against.
    if (!std::isfinite(x)) fail("number out of range");
    return Value::number(x);
  }

  /// Each nesting level is one recursion, so the bound keeps hostile input
  /// from exhausting the stack.  The deepest document the tools read, a
  /// benchmark results file, nests 6 levels.
  static constexpr std::size_t kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

double Value::as_number() const {
  if (kind_ != Kind::kNumber) fail_kind("number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) fail_kind("string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (kind_ != Kind::kArray) fail_kind("array");
  return array_;
}

const std::map<std::string, Value>& Value::as_object() const {
  if (kind_ != Kind::kObject) fail_kind("object");
  return object_;
}

const Value& Value::at(const std::string& key) const {
  const auto& members = as_object();
  const auto it = members.find(key);
  if (it == members.end()) {
    throw std::invalid_argument("json: missing member \"" + key + "\"");
  }
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return kind_ == Kind::kObject && object_.count(key) > 0;
}

Value Value::null() { return Value{}; }

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double x) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = x;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::object(std::map<std::string, Value> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string format_number(double x) {
  if (!std::isfinite(x)) return "null";
  // Integers that fit a double exactly print without a decimal point.
  if (x == std::floor(x) && std::abs(x) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", x);
    return buf;
  }
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, x);
    if (std::strtod(buf, nullptr) == x) break;
  }
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace ptc::json
