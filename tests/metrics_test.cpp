// The metrics registry (src/common/metrics.hpp) and what the daemons
// declare in it.
//
// Golden renders: a ServeMetrics fed a fixed event sequence, with the
// cache off, RAM-only, and RAM + disk, renders /stats JSON and the
// cache_stats body byte for byte as tests/golden/metrics_*.txt, and the
// same Prometheus lines. The goldens were captured from the
// hand-written renderers the registry replaced, on the same inputs.
//
// Doc tables: every family a server (with every cache tier attached) or
// a router renders is a row of its table in docs/SERVER.md or
// docs/CLUSTER.md, with its type, and every row is still rendered.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "common/simd.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"

#ifndef MASC_SOURCE_DIR
#error "MASC_SOURCE_DIR must be defined by the build"
#endif

namespace masc {
namespace {

namespace fs = std::filesystem;

// --- fixed inputs -----------------------------------------------------

/// Feed `m` one fixed event sequence: every final status, host times
/// spread over the histogram (first bucket to overflow), and fixed
/// simulated work.
void feed_fixed_events(serve::ServeMetrics& m) {
  m.on_accepted(12);
  m.on_rejected(3);
  m.on_batch(5);
  m.on_batch(2);
  const struct {
    SweepStatus status;
    double host_seconds;
    std::uint64_t cycles, instructions, idle;
  } jobs[] = {
      {SweepStatus::kFinished, 0.0004, 1200, 900, 300},
      {SweepStatus::kFinished, 0.0015, 5000, 4100, 900},
      {SweepStatus::kCycleLimit, 0.003, 65536, 60000, 5536},
      {SweepStatus::kError, 0.25, 10, 4, 6},
      {SweepStatus::kCancelled, 1.7, 800000, 700001, 99999},
      {SweepStatus::kDeadlineExceeded, 40.0, 12345678, 9876543, 2469135},
  };
  std::uint64_t k = 0;
  for (const auto& j : jobs) {
    SweepResult r;
    r.status = j.status;
    r.host_seconds = j.host_seconds;
    r.stats.cycles = j.cycles;
    r.stats.instructions = j.instructions;
    r.stats.idle_cycles = j.idle;
    for (auto& c : r.stats.idle_by_cause) c = ++k * 7;
    m.on_done(r);
  }
}

/// A RAM-only cache whose --cache-dir could not be opened.
TieredCacheStats fixed_l1_stats() {
  TieredCacheStats s;
  s.hits = 41;
  s.misses = 17;
  s.insertions = 15;
  s.evictions = 2;
  s.entries = 13;
  s.bytes = 52000;
  s.capacity_bytes = 1048576;
  s.shards = 16;
  s.l1_hits = 41;
  s.flights_led = 15;
  s.flights_joined = 3;
  s.flights_served = 3;
  s.disk_open_failed = true;
  return s;
}

/// RAM and disk tiers, every counter distinct.
TieredCacheStats fixed_l2_stats() {
  TieredCacheStats s;
  s.hits = 60;
  s.misses = 9;
  s.insertions = 20;
  s.evictions = 5;
  s.entries = 15;
  s.bytes = 60001;
  s.capacity_bytes = 67108864;
  s.shards = 8;
  s.l1_hits = 51;
  s.l2_hits = 9;
  s.promotions = 9;
  s.demotions = 18;
  s.demote_drops = 1;
  s.decode_failures = 2;
  s.flights_led = 20;
  s.flights_joined = 4;
  s.flights_served = 3;
  s.disk_enabled = true;
  s.disk.gets = 30;
  s.disk.hits = 9;
  s.disk.puts = 18;
  s.disk.put_failures = 1;
  s.disk.corrupt_skipped = 2;
  s.disk.torn_truncated = 1;
  s.disk.segments_created = 4;
  s.disk.segments_retired = 1;
  s.disk.records_evicted = 3;
  s.disk.records_salvaged = 5;
  s.disk.entries = 14;
  s.disk.bytes = 123456;
  s.disk.segments = 3;
  s.disk.capacity_bytes = 268435456;
  s.disk.degraded = true;
  return s;
}

SweepBatchStats fixed_batch_stats() {
  SweepBatchStats b;
  b.batch_flushes = 7;
  b.batched_jobs = 40;
  b.replayed_jobs = 3;
  b.faulted_lanes = 1;
  b.occupancy[1] = 1;
  b.occupancy[2] = 2;
  b.occupancy[3] = 3;
  b.occupancy[4] = 1;
  return b;
}

// --- helpers ----------------------------------------------------------

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void replace_all(std::string& s, const std::string& from,
                 const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size()))
    s.replace(at, from.size(), to);
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

struct Golden {
  std::string stats_json, cache_stats, prometheus;
};

/// tests/golden/metrics_<name>.txt: the /stats JSON line, the
/// cache_stats body line, then the Prometheus text. The SIMD probe is a
/// placeholder, filled in with this build's answer.
Golden load_golden(const std::string& name) {
  std::string text = read_file(fs::path(MASC_SOURCE_DIR) / "tests" /
                               "golden" / ("metrics_" + name + ".txt"));
  const SimdInfo simd = host_simd();
  replace_all(text, "@SIMD@",
              std::string("{\"isa\":\"") + simd.isa + "\",\"width_bits\":" +
                  std::to_string(simd.width_bits) +
                  ",\"auto_lanes\":" + std::to_string(simd.auto_lanes) + "}");
  replace_all(text, "@WIDTH@", std::to_string(simd.width_bits));
  replace_all(text, "@LANES@", std::to_string(simd.auto_lanes));
  Golden g;
  const std::size_t a = text.find('\n');
  const std::size_t b = text.find('\n', a + 1);
  g.stats_json = text.substr(0, a);
  g.cache_stats = text.substr(a + 1, b - a - 1);
  g.prometheus = text.substr(b + 1);
  return g;
}

void expect_golden(const std::string& name, const TieredCacheStats* cache) {
  const Golden want = load_golden(name);
  serve::ServeMetrics m;
  feed_fixed_events(m);
  const SweepBatchStats batch = fixed_batch_stats();
  auto render = [&](metrics::Format f) {
    metrics::Registry r(f, "masc_served_");
    m.describe(r, 4, 2, 256, 9, cache, batch);
    return r.str();
  };
  EXPECT_EQ(render(metrics::Format::kJson), want.stats_json);

  // The envelope Server::handle_cache_stats puts around the same
  // declarations.
  metrics::Registry c(metrics::Format::kJson, "masc_served_");
  describe(c, cache);
  EXPECT_EQ("{\"ok\":true,\"type\":\"cache_stats\",\"cache\":" + c.str() + "}",
            want.cache_stats);

  // Family order may differ; every line, and so every sample and every
  // # HELP/# TYPE pair, is the same.
  EXPECT_EQ(sorted_lines(render(metrics::Format::kPrometheus)),
            sorted_lines(want.prometheus));
}

TEST(MetricsGolden, CacheOffRendersAsBefore) { expect_golden("off", nullptr); }

TEST(MetricsGolden, RamTierRendersAsBefore) {
  const TieredCacheStats s = fixed_l1_stats();
  expect_golden("l1", &s);
}

TEST(MetricsGolden, RamAndDiskTiersRenderAsBefore) {
  const TieredCacheStats s = fixed_l2_stats();
  expect_golden("l2", &s);
}

TEST(MetricsRegistry, OneHelpAndTypePerFamilyWithItsSamplesTogether) {
  metrics::Registry r(metrics::Format::kPrometheus, "p_");
  r.begin("a");
  r.counter("x", 1u, "done_total", "Done", {"status", "ok"});
  r.gauge("y", 2u, "depth", "Depth");
  r.end();
  r.counter("z", 3u, "done_total", "Done", {"status", "error"});
  r.value("json_only", 4u);
  r.gauge({}, true, "up", "Up");
  EXPECT_EQ(r.str(),
            "# HELP p_done_total Done\n# TYPE p_done_total counter\n"
            "p_done_total{status=\"ok\"} 1\np_done_total{status=\"error\"} 3\n"
            "# HELP p_depth Depth\n# TYPE p_depth gauge\np_depth 2\n"
            "# HELP p_up Up\n# TYPE p_up gauge\np_up 1\n");

  metrics::Registry j(metrics::Format::kJson, "p_");
  j.begin("a");
  j.counter("x", 1u, "done_total", "Done", {"status", "ok"});
  j.end();
  j.begin_array("list");
  j.begin();
  j.text("s", "q\"");
  j.gauge({}, true, "up", "Up");
  j.end();
  j.end();
  j.value("f", 0.5);
  EXPECT_EQ(j.str(), "{\"a\":{\"x\":1},\"list\":[{\"s\":\"q\\\"\"}],\"f\":0.5}");
}

// --- doc tables -------------------------------------------------------

/// family -> type from the "# TYPE" lines of an exposition.
std::map<std::string, std::string> rendered_families(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::string hash, tag, name, type;
    words >> hash >> tag >> name >> type;
    if (hash == "#" && tag == "TYPE") out[name] = type;
  }
  return out;
}

/// family -> type from the table rows of `doc` whose first cell is a
/// `prefix...` code span: | `family{labels}` | type | meaning |
std::map<std::string, std::string> documented_families(
    const std::string& doc, const std::string& prefix) {
  const std::regex row("^\\| `(" + prefix + "[a-z0-9_]+)[^`]*` \\| ([a-z]+) \\|");
  std::map<std::string, std::string> out;
  std::istringstream in(read_file(fs::path(MASC_SOURCE_DIR) / "docs" / doc));
  std::smatch m;
  for (std::string line; std::getline(in, line);)
    if (std::regex_search(line, m, row)) out[m[1]] = m[2];
  return out;
}

void expect_documented(const std::string& doc, const std::string& prefix,
                       const std::string& text) {
  const auto rendered = rendered_families(text);
  const auto documented = documented_families(doc, prefix);
  ASSERT_FALSE(rendered.empty());
  for (const auto& [name, type] : rendered) {
    const auto it = documented.find(name);
    if (it == documented.end())
      ADD_FAILURE() << name << " (" << type << ") is rendered but has no row"
                    << " in docs/" << doc;
    else
      EXPECT_EQ(it->second, type) << name << " in docs/" << doc;
  }
  for (const auto& [name, type] : documented)
    EXPECT_TRUE(rendered.count(name))
        << name << " is documented in docs/" << doc
        << " but no longer rendered";
}

TEST(MetricsDocs, ServerFamiliesMatchTheServerDocTable) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("masc_metrics_docs_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    // Every tier attached, so every declared family renders.
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.cache_bytes = 1 << 20;
    opts.cache_dir = dir.string();
    const serve::Server server(opts);
    expect_documented("SERVER.md", "masc_served_", server.metrics_text());
  }
  fs::remove_all(dir);
}

TEST(MetricsDocs, RouterFamiliesMatchTheClusterDocTable) {
  cluster::RouterOptions opts;
  opts.backends.push_back(cluster::BackendSpec{"127.0.0.1", 1});
  cluster::Router router(std::move(opts));
  expect_documented("CLUSTER.md", "masc_routerd_", router.metrics_text());
}

}  // namespace
}  // namespace masc
