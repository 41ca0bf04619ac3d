#include "common/metrics.hpp"

#include <sstream>
#include <utility>

#include "common/json.hpp"

namespace masc::metrics {

namespace {

std::string to_text(const Value& v, Format f) {
  if (const bool* b = std::get_if<bool>(&v))
    return f == Format::kJson ? (*b ? "true" : "false") : (*b ? "1" : "0");
  if (const double* d = std::get_if<double>(&v)) {
    std::ostringstream os;
    os << *d;
    return os.str();
  }
  return std::to_string(std::get<std::uint64_t>(v));
}

std::uint64_t upper_edge(Edge edge, std::size_t b) {
  return (1ULL << b) - (edge == Edge::kPow2Minus1 ? 1ULL : 0ULL);
}

}  // namespace

std::size_t log2_bucket(double v, Edge edge, std::size_t n) {
  std::size_t b = 0;
  while (b + 1 < n && v > static_cast<double>(upper_edge(edge, b))) ++b;
  return b;
}

Registry::Registry(Format format, std::string prefix)
    : format_(format), prefix_(std::move(prefix)) {}

void Registry::member(std::string_view key, std::string_view json) {
  if (format_ != Format::kJson) return;
  if (!empty_) json_ += ',';
  empty_ = false;
  if (!key.empty()) json_ += "\"" + std::string(key) + "\":";
  json_ += json;
}

void Registry::begin(std::string_view key) {
  member(key, "{");
  closers_ += '}';
  empty_ = true;
}

void Registry::begin_array(std::string_view key) {
  member(key, "[");
  closers_ += ']';
  empty_ = true;
}

void Registry::end() {
  if (format_ == Format::kJson) json_ += closers_.back();
  closers_.pop_back();
  empty_ = false;
}

std::string& Registry::family_text(std::string_view family,
                                   std::string_view help,
                                   std::string_view type) {
  const std::string name = prefix_ + std::string(family);
  for (Family& f : families_)
    if (f.name == name) return f.text;
  families_.push_back({name, "# HELP " + name + " " + std::string(help) +
                                 "\n# TYPE " + name + " " +
                                 std::string(type) + "\n"});
  return families_.back().text;
}

void Registry::series(std::string_view key, Value v, std::string_view family,
                      std::string_view help, Label label,
                      std::string_view type) {
  if (format_ == Format::kJson) {
    if (!key.empty()) member(key, to_text(v, format_));
    return;
  }
  if (family.empty()) return;
  std::string& out = family_text(family, help, type);
  out += prefix_ + std::string(family);
  if (!label.name.empty())
    out += "{" + std::string(label.name) + "=\"" + std::string(label.value) +
           "\"}";
  out += " " + to_text(v, format_) + "\n";
}

void Registry::histogram(std::string_view key,
                         std::span<const std::uint64_t> buckets, Edge edge,
                         Value sum, std::string_view family,
                         std::string_view help) {
  if (format_ == Format::kJson) {
    begin_array(key);
    for (const std::uint64_t n : buckets) value({}, n);
    end();
    return;
  }
  std::string& out = family_text(family, help, "histogram");
  const std::string name = prefix_ + std::string(family);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    const std::string le = b + 1 < buckets.size()
                               ? std::to_string(upper_edge(edge, b))
                               : "+Inf";
    out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
  }
  out += name + "_count " + std::to_string(cum) + "\n";
  out += name + "_sum " + to_text(sum, format_) + "\n";
}

void Registry::value(std::string_view key, Value v) {
  if (format_ == Format::kJson) member(key, to_text(v, format_));
}

void Registry::text(std::string_view key, std::string_view s) {
  if (format_ == Format::kJson)
    member(key, "\"" + json_escape(std::string(s)) + "\"");
}

void Registry::raw(std::string_view key, std::string_view json) {
  member(key, json);
}

std::string Registry::str() const {
  if (format_ == Format::kJson) return json_ + "}";
  std::string out;
  for (const Family& f : families_) out += f.text;
  return out;
}

}  // namespace masc::metrics
