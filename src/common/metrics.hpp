// One declaration per metric, rendered as /stats JSON or as Prometheus
// text. A component's describe function calls the declarations below in
// JSON member order, nesting with begin()/end(); a counter, gauge or
// histogram names its JSON key and Prometheus family together. A
// Registry renders the one format it was made for, grouping each
// family's samples under one # HELP/# TYPE pair. It only renders: the
// counters stay plain fields of their owners, under the owners' locks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace masc::metrics {

enum class Format { kJson, kPrometheus };

/// A sample: unsigned integers print in decimal, doubles as an ostream
/// prints them, bools as true/false in JSON and 1/0 in Prometheus.
using Value = std::variant<std::uint64_t, double, bool>;

/// An optional Prometheus label, printed as name="value".
struct Label {
  std::string_view name, value;
};

/// The edge rule of a log2 bucket array; its last bucket is +Inf.
enum class Edge {
  kPow2,        ///< bucket b holds (2^(b-1), 2^b]: le = 2^b
  kPow2Minus1,  ///< bucket b holds [2^(b-1), 2^b): le = 2^b - 1
};

/// The bucket of an `n`-bucket array under `edge` that `v` falls in.
std::size_t log2_bucket(double v, Edge edge, std::size_t n);

class Registry {
 public:
  /// `prefix` starts every Prometheus family name ("masc_served_").
  Registry(Format format, std::string prefix);

  /// Open a nested JSON object; an element of an array has no key.
  void begin(std::string_view key = {});
  void begin_array(std::string_view key);
  void end();

  /// One series of `family`, and the JSON member `key` if it has one.
  void counter(std::string_view key, Value v, std::string_view family,
               std::string_view help, Label label = {}) {
    series(key, v, family, help, label, "counter");
  }
  void gauge(std::string_view key, Value v, std::string_view family,
             std::string_view help, Label label = {}) {
    series(key, v, family, help, label, "gauge");
  }
  /// The JSON member is the bucket array; the Prometheus family is a
  /// cumulative histogram with `sum` as its _sum.
  void histogram(std::string_view key, std::span<const std::uint64_t> buckets,
                 Edge edge, Value sum, std::string_view family,
                 std::string_view help);

  /// JSON-only members: a value, an escaped string, or a JSON document
  /// spliced in as it is.
  void value(std::string_view key, Value v);
  void text(std::string_view key, std::string_view s);
  void raw(std::string_view key, std::string_view json);

  /// One JSON object, or the exposition text.
  std::string str() const;

 private:
  void series(std::string_view key, Value v, std::string_view family,
              std::string_view help, Label label, std::string_view type);
  void member(std::string_view key, std::string_view json);
  /// The text of `family`, started with its header on first use.
  std::string& family_text(std::string_view family, std::string_view help,
                           std::string_view type);

  struct Family {
    std::string name, text;
  };

  Format format_;
  std::string prefix_;
  std::string json_ = "{";
  std::string closers_ = "}";  ///< one per open JSON scope
  bool empty_ = true;          ///< nothing yet in the innermost scope
  std::vector<Family> families_;
};

}  // namespace masc::metrics
