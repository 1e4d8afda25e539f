#ifndef PTC_COMMON_JSON_HPP
#define PTC_COMMON_JSON_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

/// Minimal JSON value model + recursive-descent parser, for the telemetry
/// tooling that must *read back* machine artifacts: bench_compare diffs
/// committed BENCH_*.json baselines, and the trace linter re-parses emitted
/// Chrome trace-event files.  Writing stays with the emitters (they control
/// formatting); this header only adds the shared number formatter so every
/// emitted double round-trips exactly without printing 17 digits of noise.
namespace ptc::json {

/// One parsed JSON value (object keys are sorted — iteration order is
/// deterministic and independent of document order).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch.
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::map<std::string, Value>& as_object() const;

  /// Object member lookup; throws std::invalid_argument when absent (use
  /// contains() to probe).
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  static Value null();
  static Value boolean(bool b);
  static Value number(double x);
  static Value string(std::string s);
  static Value array(std::vector<Value> items);
  static Value object(std::map<std::string, Value> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses one JSON document.  Throws std::invalid_argument (with position
/// context) on malformed input or trailing garbage.
Value parse(const std::string& text);

/// Shortest decimal string that strtod round-trips to exactly `x` — clean
/// "0.25" instead of "0.25000000000000000", full 17 digits only when needed.
/// Infinities and NaN (not representable in JSON) format as null.
std::string format_number(double x);

/// `s` with JSON string escaping applied, surrounding quotes included.
std::string quote(const std::string& s);

}  // namespace ptc::json

#endif  // PTC_COMMON_JSON_HPP
