// Minimal JSON support shared by the sweep/serve tool surface.
//
// The repo emits JSON in several places (masc-run --json, masc-sweep,
// the stats export) and, with the simulation service, also *consumes*
// it on the wire. Emission stays hand-rolled ostringstream code — the
// output schemas are fixed and the hot paths care about allocation —
// but the one string escaper lives here, and parsing goes through a
// small recursive-descent parser instead of N ad-hoc scanners.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace masc {

/// Raised for malformed JSON text handed to parse_json().
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// JSON string escaping for free-form fields (config names, job labels,
/// exception text): quote, backslash, and all control characters, so a
/// newline in an error message cannot break JSONL output.
std::string json_escape(const std::string& s);

namespace json {

/// One parsed JSON value. A tagged struct rather than a std::variant:
/// the accessors below give precise error messages and the protocol
/// code stays readable without visit() boilerplate.
struct Value {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;          ///< every number, as parsed
  std::int64_t integer = 0;     ///< exact when `is_integer`
  bool is_integer = false;      ///< no '.', 'e', and in int64 range
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  // Checked accessors: throw JsonError naming the expected type.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;      ///< requires an integral number
  std::uint64_t as_uint() const;    ///< requires a non-negative integer
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;

  // Convenience: member of this object with a default when absent.
  bool get_bool(const std::string& key, bool dflt) const;
  std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  std::uint64_t get_uint(const std::string& key, std::uint64_t dflt) const;
  double get_number(const std::string& key, double dflt) const;
  std::string get_string(const std::string& key,
                         const std::string& dflt) const;
};

/// Serialize a Value back to compact JSON text. Round-trips through
/// parse_json() structurally: integers print exactly, other numbers via
/// shortest-round-trip %.17g, strings fully escaped. Used by the job
/// journal to re-record request payloads it replays on recovery.
std::string serialize(const Value& v);

/// The exact text of member `key`'s value in the JSON object `doc`, or
/// an empty view when `doc` is not an object or has no such member.
/// `doc` must be valid JSON (e.g. already accepted by parse_json());
/// keys are compared as written, so `key` must need no escaping. Lets
/// a proxy forward a nested value byte-for-byte instead of
/// re-serializing it.
std::string_view member_text(std::string_view doc, std::string_view key);

/// member_text for each of `keys` in one walk over `doc`: `out[k]` gets
/// the text of the first member keyed `keys[k]` (`out` is as long as
/// `keys`).
void member_texts(std::string_view doc, std::span<const std::string_view> keys,
                  std::span<std::string_view> out);

/// Each top-level member of the JSON object `doc`: its key, escapes
/// decoded, and the exact text of its value. Unlike member_text, this
/// checks as it goes and builds no Value: it throws JsonError unless
/// `doc` is one object that parse_json() would accept. When `elements`
/// is given and the first member keyed `split` holds an array, the same
/// pass appends the exact text of each of its elements, whitespace
/// around it trimmed, so a proxy can hash and forward a request's
/// elements without a second look.
std::vector<std::pair<std::string, std::string_view>> object_members(
    std::string_view doc, std::string_view split = {},
    std::vector<std::string_view>* elements = nullptr);

/// The exact text of each element of the JSON array `doc`, whitespace
/// around it trimmed. Checks `doc` as object_members() does.
std::vector<std::string_view> array_elements(std::string_view doc);

}  // namespace json

/// Parse one JSON document (throws JsonError on malformed input or
/// trailing garbage). Depth is bounded to keep malicious wire input
/// from overflowing the stack.
json::Value parse_json(std::string_view text);

}  // namespace masc
