// Minimal JSON reader for provenance files.
//
// The `explain` subcommand consumes JSONL the exporters in this library
// produced, so the reader only needs strict RFC-ish JSON: objects, arrays,
// strings with the escapes we emit, numbers, true/false/null. It lives in
// pk_obs (a leaf library) so the decision-record round-trip — render,
// parse, re-render — is self-contained and unit-testable without pulling
// in any higher layer. parse() returns nullopt on any malformed input; a
// corrupt provenance line degrades to "unreadable", never UB.
#pragma once

#include <charconv>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace patchecko::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind : std::uint8_t { null, boolean, number, string, array,
                                   object };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::boolean), bool_(b) {}
  explicit Value(double n) : kind_(Kind::number), number_(n) {}
  explicit Value(std::string s)
      : kind_(Kind::string), string_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::array), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::object), object_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }

  /// Typed accessors; wrong-kind access returns the fallback rather than
  /// throwing so readers can treat missing and mistyped keys alike.
  bool as_bool(bool fallback = false) const {
    return kind_ == Kind::boolean ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return kind_ == Kind::number ? number_ : fallback;
  }
  const std::string& as_string() const {
    static const std::string empty;
    return kind_ == Kind::string ? string_ : empty;
  }
  const Array& as_array() const {
    static const Array empty;
    return kind_ == Kind::array && array_ ? *array_ : empty;
  }
  const Object& as_object() const {
    static const Object empty;
    return kind_ == Kind::object && object_ ? *object_ : empty;
  }

  /// Object member lookup; null Value when absent or not an object.
  const Value& get(const std::string& key) const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Returns nullopt on any syntax error.
std::optional<Value> parse(std::string_view text);

/// Schema version of an exported JSON document. Prefers the explicit
/// "schema_version" key (metrics documents v2+, bench documents v2+);
/// falls back to the legacy "version" key, then to `fallback` for
/// documents that carry neither. Non-integer values yield `fallback`.
int schema_version(const Value& document, int fallback = 1);

/// The one exact number writer: the bytes of printf's "%.17g" in the C
/// locale (std::to_chars specifies exactly that), so every finite double
/// round-trips bit for bit; non-finite values print as "inf", "-inf",
/// "nan" and "-nan". Canonical reports, metrics exports and store keys use
/// it directly.
void append_exact(std::string& out, double value);

/// Appends each part in turn: floating-point values as append_exact writes
/// them, integers in decimal (the bytes of std::to_string), characters and
/// text as they are.
template <typename... Parts>
void append_all(std::string& out, const Parts&... parts) {
  const auto append_one = [&out](const auto& part) {
    using Part = std::decay_t<decltype(part)>;
    if constexpr (std::is_floating_point_v<Part>) {
      append_exact(out, static_cast<double>(part));
    } else if constexpr (std::is_integral_v<Part> &&
                         !std::is_same_v<Part, char>) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), part).ptr);
    } else {
      out += part;
    }
  };
  (append_one(parts), ...);
}

/// Writers shared by every JSON exporter in this library. Doubles render
/// with append_exact; non-finite values become null so emitted lines stay
/// strict JSON. Strings escape the set parse() understands, with control
/// characters as \uXXXX.
void append_double(std::string& out, double value);
void append_string(std::string& out, std::string_view text);

}  // namespace patchecko::obs::json
