#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace masc {

namespace {

void escape_into(const std::string& s, std::string& out) {
  // Copy each run of characters that need no escaping in one append.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape_into(s, out);
  return out;
}

namespace json {

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

bool Value::as_bool() const {
  if (kind != Kind::kBool) throw JsonError("expected JSON boolean");
  return boolean;
}

double Value::as_number() const {
  if (kind != Kind::kNumber) throw JsonError("expected JSON number");
  return number;
}

std::int64_t Value::as_int() const {
  if (kind != Kind::kNumber || !is_integer)
    throw JsonError("expected JSON integer");
  return integer;
}

std::uint64_t Value::as_uint() const {
  const std::int64_t v = as_int();
  if (v < 0) throw JsonError("expected non-negative JSON integer");
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string() const {
  if (kind != Kind::kString) throw JsonError("expected JSON string");
  return string;
}

const std::vector<Value>& Value::as_array() const {
  if (kind != Kind::kArray) throw JsonError("expected JSON array");
  return array;
}

bool Value::get_bool(const std::string& key, bool dflt) const {
  const Value* v = find(key);
  return v ? v->as_bool() : dflt;
}

std::int64_t Value::get_int(const std::string& key, std::int64_t dflt) const {
  const Value* v = find(key);
  return v ? v->as_int() : dflt;
}

std::uint64_t Value::get_uint(const std::string& key,
                              std::uint64_t dflt) const {
  const Value* v = find(key);
  return v ? v->as_uint() : dflt;
}

double Value::get_number(const std::string& key, double dflt) const {
  const Value* v = find(key);
  return v ? v->as_number() : dflt;
}

std::string Value::get_string(const std::string& key,
                              const std::string& dflt) const {
  const Value* v = find(key);
  return v ? v->as_string() : dflt;
}

namespace {

void serialize_into(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull:
      out += "null";
      return;
    case Value::Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case Value::Kind::kNumber: {
      char buf[40];
      if (v.is_integer) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v.integer));
      } else if (std::isfinite(v.number)) {
        std::snprintf(buf, sizeof buf, "%.17g", v.number);
      } else {
        // JSON has no Inf/NaN; parse_number never produces them, but be
        // safe for hand-built values.
        std::snprintf(buf, sizeof buf, "null");
      }
      out += buf;
      return;
    }
    case Value::Kind::kString:
      out += '"';
      escape_into(v.string, out);
      out += '"';
      return;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& e : v.array) {
        if (!first) out += ',';
        first = false;
        serialize_into(e, out);
      }
      out += ']';
      return;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, val] : v.object) {
        if (!first) out += ',';
        first = false;
        out += '"';
        escape_into(key, out);
        out += "\":";
        serialize_into(val, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string serialize(const Value& v) {
  std::string out;
  serialize_into(v, out);
  return out;
}

namespace {

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && is_ws(s[i])) ++i;
  return i;
}

/// One past the end of the value starting at `i` in valid JSON text:
/// strings and containers by their closing character, scalars at the
/// next ',' or enclosing '}'/']' (trailing whitespace included).
std::size_t skip_value(std::string_view s, std::size_t i) {
  int depth = 0;
  bool in_string = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (depth == 0) return i;
        if (--depth == 0) return i + 1;
        break;
      case ',':
        if (depth == 0) return i;
        break;
      default: break;
    }
  }
  return std::min(i, s.size());  // an escape can step past a torn end
}

}  // namespace

std::string_view member_text(std::string_view doc, std::string_view key) {
  std::size_t i = skip_ws(doc, 0);
  if (i >= doc.size() || doc[i] != '{') return {};
  ++i;
  for (;;) {
    i = skip_ws(doc, i);
    if (i >= doc.size() || doc[i] != '"') return {};
    const std::size_t key_end = skip_value(doc, i);
    const bool match = doc.substr(i + 1, key_end - i - 2) == key;
    i = skip_ws(doc, key_end);
    if (i >= doc.size() || doc[i] != ':') return {};
    const std::size_t start = skip_ws(doc, i + 1);
    std::size_t end = skip_value(doc, start);
    i = end;
    while (end > start && is_ws(doc[end - 1])) --end;
    if (match) return doc.substr(start, end - start);
    i = skip_ws(doc, i);
    if (i >= doc.size() || doc[i] != ',') return {};
    ++i;
  }
}

}  // namespace json

namespace {

using json::Value;

/// Recursive-descent parser over the whole document in memory. Wire
/// frames are size-capped well below anything that could make this
/// slow; depth is capped so crafted input cannot blow the C++ stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default:
        return parse_number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.boolean = b;
    return v;
  }

  Value parse_object(int depth) {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  Value parse_array(int depth) {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') { out += c; continue; }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("bad escape character");
      }
    }
  }

  /// \uXXXX escapes, with surrogate pairs, encoded back to UTF-8.
  std::string parse_unicode_escape() {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 < s_.size() && s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
        pos_ += 2;
        const std::uint32_t lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("lone high surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone low surrogate");
    }
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= s_.size()) fail("unterminated \\u escape");
      const char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool saw_digit = false;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') { saw_digit = true; ++pos_; continue; }
      if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') integral = false;
        ++pos_;
        continue;
      }
      break;
    }
    if (!saw_digit) fail("bad number");
    const std::string tok = s_.substr(start, pos_ - start);
    Value v;
    v.kind = Value::Kind::kNumber;
    errno = 0;
    char* end = nullptr;
    v.number = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("bad number");
    if (integral) {
      errno = 0;
      const long long i = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        v.integer = i;
        v.is_integer = true;
      }
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

json::Value parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace masc
