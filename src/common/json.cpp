#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

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
      } else if (v.number == 0 && std::signbit(v.number)) {
        // "%.17g" gives "-0", which reads back as the integer 0.
        std::snprintf(buf, sizeof buf, "-0.0");
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

/// The closing quote of the string whose text starts at `i`, or
/// s.size() when torn: the first '"' no odd run of backslashes escapes.
std::size_t closing_quote(std::string_view s, std::size_t i) {
  for (const std::size_t from = i;; ++i) {
    i = s.find('"', i);
    if (i == std::string_view::npos) return s.size();
    std::size_t run = i;
    while (run > from && s[run - 1] == '\\') --run;
    if ((i - run) % 2 == 0) return i;
  }
}

/// One past the end of the value starting at `i` in valid JSON text:
/// strings and containers by their closing character, scalars at the
/// next ',' or enclosing '}'/']' (trailing whitespace included).
std::size_t skip_value(std::string_view s, std::size_t i) {
  int depth = 0;
  for (; i < s.size(); ++i) {
    switch (s[i]) {
      case '"':
        i = closing_quote(s, i + 1);
        if (depth == 0) return std::min(i + 1, s.size());
        break;
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
  return s.size();
}

}  // namespace

void member_texts(std::string_view doc, std::span<const std::string_view> keys,
                  std::span<std::string_view> out) {
  std::fill(out.begin(), out.end(), std::string_view{});
  std::size_t missing = keys.size();
  std::size_t i = skip_ws(doc, 0);
  if (i >= doc.size() || doc[i] != '{') return;
  ++i;
  while (missing > 0) {
    i = skip_ws(doc, i);
    if (i >= doc.size() || doc[i] != '"') return;
    const std::size_t key_end = skip_value(doc, i);
    const std::string_view key = doc.substr(i + 1, key_end - i - 2);
    i = skip_ws(doc, key_end);
    if (i >= doc.size() || doc[i] != ':') return;
    const std::size_t start = skip_ws(doc, i + 1);
    std::size_t end = skip_value(doc, start);
    i = end;
    while (end > start && is_ws(doc[end - 1])) --end;
    for (std::size_t k = 0; k < keys.size(); ++k)
      if (out[k].empty() && key == keys[k]) {
        out[k] = doc.substr(start, end - start);
        --missing;
      }
    i = skip_ws(doc, i);
    if (i >= doc.size() || doc[i] != ',') return;
    ++i;
  }
}

std::string_view member_text(std::string_view doc, std::string_view key) {
  std::string_view text;
  member_texts(doc, {&key, 1}, {&text, 1});
  return text;
}

}  // namespace json

namespace {

using json::skip_ws;
using json::Value;

[[noreturn]] void fail_at(std::size_t at, const char* what) {
  throw JsonError("JSON parse error at offset " + std::to_string(at) + ": " +
                  what);
}

/// One past the run of plain string characters from `i`: up to a quote,
/// backslash or control character.
std::size_t plain_run(std::string_view s, std::size_t i) {
  while (i < s.size() && static_cast<unsigned char>(s[i]) >= 0x20 &&
         s[i] != '"' && s[i] != '\\')
    ++i;
  return i;
}

/// One past the run of number characters (digits, sign, '.', exponent)
/// from `i`.
std::size_t number_end(std::string_view s, std::size_t i) {
  while (i < s.size() && ((s[i] >= '0' && s[i] <= '9') || s[i] == '.' ||
                          s[i] == 'e' || s[i] == 'E' || s[i] == '+' ||
                          s[i] == '-'))
    ++i;
  return i;
}

/// The value of hex digit `c`, or -1 when it is not one.
int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  const char lower = static_cast<char>(c | 0x20);
  return lower >= 'a' && lower <= 'f' ? lower - 'a' + 10 : -1;
}

/// The one JSON grammar: a recursive-descent walk that checks text as
/// it goes, each step returning one past what it checked and throwing
/// JsonError on the first fault. Given a Value to fill it builds what it
/// checks (parse_json); given none it builds nothing, so a proxy can
/// check a request and keep spans of it. Nesting is bounded so crafted
/// input cannot blow the C++ stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  /// The text is one JSON document, built into `out` when given.
  void document(Value* out) { end(value(0, 0, out)); }

  /// The text is one object (or, with open '[', array), built into
  /// nothing; on_item(key, value) sees each member (or element, with an
  /// empty key), its key as written. When the first top-level member
  /// keyed `split` holds an array, its elements go to `*elements` from
  /// the same pass.
  template <typename OnItem>
  void document(char open, OnItem&& on_item, std::string_view split = {},
                std::vector<std::string_view>* elements = nullptr) {
    const std::size_t i = skip_ws(s_, 0);
    if (i >= s_.size() || s_[i] != open)
      fail_at(i, open == '{' ? "expected '{'" : "expected '['");
    split_ = split;
    split_elements_ = elements;
    end(items(i, 0, nullptr, on_item));
  }

  /// The decoded text of a key written as `raw` (between its quotes),
  /// which the walk accepted.
  static std::string unescape(std::string_view raw) {
    if (raw.find('\\') == std::string_view::npos) return std::string(raw);
    const std::string quoted = '"' + std::string(raw) + '"';
    std::string out;
    Parser(quoted).string(0, &out);
    return out;
  }

 private:
  static constexpr int kMaxDepth = 64;

  /// Ignores each item.
  struct Skip {
    void operator()(std::string_view, std::string_view) const {}
  };
  /// Appends each element to `out`.
  struct Append {
    std::vector<std::string_view>* out;
    void operator()(std::string_view, std::string_view v) const {
      out->push_back(v);
    }
  };

  void end(std::size_t i) const {
    if (skip_ws(s_, i) != s_.size())
      fail_at(i, "trailing characters after JSON document");
  }

  void expect(std::size_t i, char c) const {
    if (i >= s_.size() || s_[i] != c)
      fail_at(i, c == ':' ? "expected ':'" : c == '}' ? "expected '}'"
                                                      : "expected ']'");
  }

  std::size_t value(std::size_t i, int depth, Value* out) {
    if (depth > kMaxDepth) fail_at(i, "nesting too deep");
    i = skip_ws(s_, i);
    if (i >= s_.size()) fail_at(i, "unexpected end of input");
    switch (s_[i]) {
      case '{': case '[': return items(i, depth, out, Skip{});
      case '"':
        if (out) out->kind = Value::Kind::kString;
        return string(i, out ? &out->string : nullptr);
      case 't': return literal(i, "true", out);
      case 'f': return literal(i, "false", out);
      case 'n': return literal(i, "null", out);
      default: return number(i, out);
    }
  }

  /// The object or array opening at `i`, built into `out` when given;
  /// on_item sees each member or element, its value trimmed of
  /// whitespace.
  template <typename OnItem>
  std::size_t items(std::size_t i, int depth, Value* out, OnItem&& on_item) {
    const bool object = s_[i] == '{';
    const char close = object ? '}' : ']';
    if (out) out->kind = object ? Value::Kind::kObject : Value::Kind::kArray;
    i = skip_ws(s_, i + 1);
    if (i < s_.size() && s_[i] == close) return i + 1;
    for (;;) {
      std::string_view key;
      Value* slot = nullptr;
      if (object) {
        i = skip_ws(s_, i);
        if (i >= s_.size() || s_[i] != '"') fail_at(i, "expected '\"'");
        auto* member = out ? &out->object.emplace_back() : nullptr;
        const std::size_t key_end = string(i, member ? &member->first : nullptr);
        key = s_.substr(i + 1, key_end - i - 2);
        if (member) slot = &member->second;
        i = skip_ws(s_, key_end);
        expect(i, ':');
        ++i;
      } else if (out) {
        slot = &out->array.emplace_back();
      }
      const std::size_t start = skip_ws(s_, i);
      std::vector<std::string_view>* split = nullptr;
      if (depth == 0 && split_elements_ && key_is(key, split_))
        split = std::exchange(split_elements_, nullptr);
      if (split && start < s_.size() && s_[start] == '[')
        i = items(start, depth + 1, nullptr, Append{split});
      else
        i = value(start, depth + 1, slot);
      on_item(key, s_.substr(start, i - start));
      i = skip_ws(s_, i);
      if (i < s_.size() && s_[i] == ',') {
        ++i;
        continue;
      }
      expect(i, close);
      return i + 1;
    }
  }

  std::size_t literal(std::size_t i, std::string_view lit, Value* out) const {
    if (s_.compare(i, lit.size(), lit) != 0) fail_at(i, "bad literal");
    if (out && lit != "null") {
      out->kind = Value::Kind::kBool;
      out->boolean = lit == "true";
    }
    return i + lit.size();
  }

  /// The string opening at `i`, decoded into `out` when given.
  std::size_t string(std::size_t i, std::string* out) const {
    for (++i;;) {
      const std::size_t run = plain_run(s_, i);
      if (out) out->append(s_.substr(i, run - i));
      i = run;
      if (i >= s_.size()) fail_at(i, "unterminated string");
      const char c = s_[i++];
      if (c == '"') return i;
      if (c != '\\') fail_at(i - 1, "raw control character in string");
      if (i >= s_.size()) fail_at(i, "unterminated escape");
      char decoded = s_[i++];
      switch (decoded) {
        case '"': case '\\': case '/': break;
        case 'b': decoded = '\b'; break;
        case 'f': decoded = '\f'; break;
        case 'n': decoded = '\n'; break;
        case 'r': decoded = '\r'; break;
        case 't': decoded = '\t'; break;
        case 'u': i = unicode_escape(i, out); continue;
        default: fail_at(i - 1, "bad escape character");
      }
      if (out) *out += decoded;
    }
  }

  /// The four hex digits of a unicode escape at `i`, with a high
  /// surrogate paired with the low one that must follow; the code point
  /// is appended to `out` as UTF-8 when given.
  std::size_t unicode_escape(std::size_t i, std::string* out) const {
    std::uint32_t cp = hex4(i);
    i += 4;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (i + 1 >= s_.size() || s_[i] != '\\' || s_[i + 1] != 'u')
        fail_at(i, "lone high surrogate");
      const std::uint32_t lo = hex4(i + 2);
      if (lo < 0xDC00 || lo > 0xDFFF) fail_at(i, "invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      i += 6;
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail_at(i, "lone low surrogate");
    }
    if (out) append_utf8(*out, cp);
    return i;
  }

  std::uint32_t hex4(std::size_t i) const {
    std::uint32_t v = 0;
    for (std::size_t k = i; k < i + 4; ++k) {
      if (k >= s_.size()) fail_at(k, "unterminated \\u escape");
      const int d = hex_digit(s_[k]);
      if (d < 0) fail_at(k, "bad hex digit in \\u escape");
      v = v << 4 | static_cast<std::uint32_t>(d);
    }
    return v;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
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
  }

  /// A run of number characters that holds a digit and reads whole as a
  /// double, built into `out` when given: every number as a double, and
  /// one with no '.' or exponent that fits int64 also exactly.
  std::size_t number(std::size_t i, Value* out) const {
    const std::size_t end = number_end(s_, i);
    const std::string tok(s_.substr(i, end - i));
    char* stop = nullptr;
    const double number = std::strtod(tok.c_str(), &stop);
    if (tok.find_first_of("0123456789") == std::string::npos ||
        stop != tok.c_str() + tok.size())
      fail_at(i, "bad number");
    if (!out) return end;
    out->kind = Value::Kind::kNumber;
    out->number = number;
    if (tok.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      const long long integer = std::strtoll(tok.c_str(), &stop, 10);
      if (errno == 0 && stop == tok.c_str() + tok.size()) {
        out->integer = integer;
        out->is_integer = true;
      }
    }
    return end;
  }

  /// Whether the key written as `raw` (between its quotes) decodes to
  /// `name`.
  static bool key_is(std::string_view raw, std::string_view name) {
    return raw.find('\\') == std::string_view::npos ? raw == name
                                                    : unescape(raw) == name;
  }

  std::string_view s_;
  std::string_view split_;
  std::vector<std::string_view>* split_elements_ = nullptr;
};

}  // namespace

namespace json {

std::vector<std::pair<std::string, std::string_view>> object_members(
    std::string_view doc, std::string_view split,
    std::vector<std::string_view>* elements) {
  std::vector<std::pair<std::string, std::string_view>> out;
  Parser(doc).document(
      '{',
      [&](std::string_view k, std::string_view v) {
        out.emplace_back(Parser::unescape(k), v);
      },
      split, elements);
  return out;
}

std::vector<std::string_view> array_elements(std::string_view doc) {
  std::vector<std::string_view> out;
  Parser(doc).document('[', [&](std::string_view, std::string_view v) {
    out.push_back(v);
  });
  return out;
}

}  // namespace json

json::Value parse_json(std::string_view text) {
  json::Value v;
  Parser(text).document(&v);
  return v;
}

}  // namespace masc
