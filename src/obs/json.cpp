#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace patchecko::obs::json {

void append_exact(std::string& out, double value) {
  // Room for the longest %.17g form, "-2.2250738585072014e-308".
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 17)
                      .ptr);
}

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  append_exact(out, value);
}

void append_string(std::string& out, std::string_view text) {
  static constexpr char hex[] = "0123456789abcdef";
  out += '"';
  // Bytes that need no escape are copied one run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.append({'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xF]});
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

const Value& Value::get(const std::string& key) const {
  static const Value null_value;
  if (kind_ != Kind::object || !object_) return null_value;
  const auto it = object_->find(key);
  return it == object_->end() ? null_value : it->second;
}

namespace {

/// Recursive-descent parser over a string_view cursor. Depth is bounded so
/// adversarial nesting cannot blow the stack.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  bool ok = true;
  int depth = 0;
  static constexpr int max_depth = 64;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  Value parse_value() {
    if (++depth > max_depth) {
      ok = false;
      --depth;
      return {};
    }
    skip_ws();
    Value out;
    if (pos >= text.size()) {
      ok = false;
    } else if (text[pos] == '{') {
      out = parse_object();
    } else if (text[pos] == '[') {
      out = parse_array();
    } else if (text[pos] == '"') {
      std::string s;
      if (parse_string(s))
        out = Value(std::move(s));
      else
        ok = false;
    } else if (literal("true")) {
      out = Value(true);
    } else if (literal("false")) {
      out = Value(false);
    } else if (literal("null")) {
      out = Value();
    } else {
      out = parse_number();
    }
    --depth;
    return out;
  }

  Value parse_object() {
    Object object;
    ++pos;  // '{'
    skip_ws();
    if (consume('}')) return Value(std::move(object));
    while (ok) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) {
        ok = false;
        break;
      }
      skip_ws();
      if (!consume(':')) {
        ok = false;
        break;
      }
      object[std::move(key)] = parse_value();
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      ok = false;
    }
    return Value(std::move(object));
  }

  Value parse_array() {
    Array array;
    ++pos;  // '['
    skip_ws();
    if (consume(']')) return Value(std::move(array));
    while (ok) {
      array.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      ok = false;
    }
    return Value(std::move(array));
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      // Bytes that need no decoding are copied one run at a time.
      const std::size_t run = pos;
      while (pos < text.size() && text[pos] != '"' && text[pos] != '\\' &&
             static_cast<unsigned char>(text[pos]) >= 0x20)
        ++pos;
      out.append(text.data() + run, pos - run);
      if (pos >= text.size()) break;
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') return false;  // raw control byte
      if (pos >= text.size()) return false;
      const char escape = text[pos++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          // Our exporters only \u-escape control characters; decode the
          // BMP code point as UTF-8 and accept anything else verbatim.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-'))
      ++pos;
    if (pos == start) {
      ok = false;
      return {};
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      ok = false;
      return {};
    }
    return Value(value);
  }
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Parser parser{text};
  Value value = parser.parse_value();
  parser.skip_ws();
  if (!parser.ok || parser.pos != text.size()) return std::nullopt;
  return value;
}

int schema_version(const Value& document, int fallback) {
  const auto read = [&](const char* key) -> std::optional<int> {
    const Value& value = document.get(key);
    if (value.kind() != Value::Kind::number) return std::nullopt;
    const double number = value.as_number();
    const int integer = static_cast<int>(number);
    if (number != static_cast<double>(integer)) return std::nullopt;
    return integer;
  };
  if (const auto explicit_version = read("schema_version"))
    return *explicit_version;
  if (const auto legacy_version = read("version")) return *legacy_version;
  return fallback;
}

}  // namespace patchecko::obs::json
