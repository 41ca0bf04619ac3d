// Cluster-layer tests (docs/CLUSTER.md): rendezvous-ring ownership and
// minimal disruption, the circuit-breaker state machine driven with
// injected timestamps (no sleeps), scripted health probing, and an
// in-process router fleet — real serve::Server backends behind a
// cluster::Router on ephemeral ports — covering cache-affinity routing
// (the routed/rerouted + cache-hit counter acceptance check),
// keyed-submit idempotency, diversion around a saturated owner, honest
// fleet-wide backpressure, fault-injected breaker trips with
// exactly-once failover, transport-failure failover when a backend
// stops, the Prometheus rendering of the router counters, parked
// result-waits and keyed resends that hold no thread (a client that
// waits never stalls another), a hung backend that stalls no other
// client, and backends named by host.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "assembler/assembler.hpp"
#include "cluster/breaker.hpp"
#include "cluster/health.hpp"
#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace masc {
namespace {

using cluster::BackendSpec;
using cluster::BreakerPolicy;
using cluster::BreakerState;
using cluster::CircuitBreaker;
using cluster::HealthMonitor;
using cluster::RendezvousRing;
using cluster::Router;
using cluster::RouterOptions;
using serve::Client;
using serve::ServeError;
using serve::Server;
using serve::ServerOptions;
using namespace std::chrono_literals;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// ~90M cycles: long enough that a mid-run backend stop genuinely
/// interrupts it (bounds as in recovery_test.cpp).
const char* kLongKernel =
    "li r2, 300\n"
    "outer: li r1, 60000\n"
    "inner: addi r1, r1, -1\n"
    "bne r1, r0, inner\n"
    "addi r2, r2, -1\n"
    "bne r2, r0, outer\n"
    "halt\n";

/// Runs until cancelled or `max_cycles` (within the server's cycle cap).
std::string spin_job_json(const std::string& label,
                          std::uint64_t max_cycles = 1'000'000'000) {
  return "{\"config\":{\"pes\":8,\"threads\":4,\"width\":16},"
         "\"program\":{\"source\":\"loop: j loop\\n\"},"
         "\"max_cycles\":" +
         std::to_string(max_cycles) + ",\"label\":\"" + label + "\"}";
}

/// A spin job's cycle cap for failover tests: ~0.1 s of host time in an
/// optimized build, so a backend stopped just after the job starts
/// interrupts it, while the re-landed run (and the serial reference)
/// still end soon under a sanitizer.
constexpr std::uint64_t kSpinCap = 5'000'000;

/// The serial run of wire job `job` as the record a server returns for
/// job id `id`, host_seconds zeroed.
std::string serial_record(const std::string& job, std::uint64_t id) {
  const SweepJob j = serve::job_from_json(parse_json(job));
  SweepResult r = run_sweep_job(j, static_cast<std::size_t>(id));
  r.host_seconds = 0;
  return to_json(r, j.cfg);
}

/// The result body of a result answer, host_seconds zeroed.
std::string result_record(const std::string& raw) {
  std::string body(json::member_text(raw, "result"));
  const std::string field = "\"host_seconds\":";
  const std::size_t at = body.find(field);
  if (at != std::string::npos) {
    const std::size_t from = at + field.size();
    body.replace(from, body.find(',', from) - from, "0");
  }
  return body;
}

/// Distinct loop bounds give distinct cache keys on demand.
std::string counting_kernel(unsigned n) {
  return "li r1, " + std::to_string(n) +
         "\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n";
}

std::string job_json(const std::string& source, const std::string& label) {
  return "{\"config\":{\"pes\":8,\"threads\":4,\"width\":16},"
         "\"program\":{\"source\":" +
         std::string("\"") + json_escape(source) + "\"},\"label\":\"" +
         label + "\"}";
}

/// Serial ground truth for a kernel on the test geometry.
std::string serial_stats_json(const std::string& source) {
  MachineConfig cfg;
  cfg.num_pes = 8;
  cfg.num_threads = 4;
  cfg.word_width = 16;
  cfg.validate();
  Machine m(cfg);
  m.load(assemble(source));
  EXPECT_TRUE(m.run(100'000'000));
  return to_json(m.stats());
}

/// The "stats" object of a router result response, exactly as the
/// router sent it: routed results carry the backend's own bytes, so
/// they compare byte-for-byte with a serial run's to_json().
std::string result_stats(const std::string& raw) {
  const json::Value resp = parse_json(raw);
  EXPECT_TRUE(resp.get_bool("ok", false)) << raw;
  const json::Value* res = resp.find("result");
  EXPECT_NE(res, nullptr) << raw;
  if (!res) return {};
  EXPECT_EQ(res->get_string("status", ""), "finished") << raw;
  const std::string_view stats =
      json::member_text(json::member_text(raw, "result"), "stats");
  EXPECT_FALSE(stats.empty()) << raw;
  return std::string(stats);
}

std::vector<std::uint64_t> ids_of(const json::Value& resp) {
  std::vector<std::uint64_t> ids;
  for (const auto& id : resp.find("ids")->as_array())
    ids.push_back(id.as_uint());
  return ids;
}

void await_running(Client& c, std::uint64_t id) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    const json::Value resp =
        c.request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
    ASSERT_TRUE(resp.get_bool("ok", false));
    if (resp.get_string("state", "") == "running") return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job " << id << " never started running";
    std::this_thread::sleep_for(5ms);
  }
}

std::string await_result_raw(Client& c, std::uint64_t id) {
  return c.request_raw("{\"op\":\"result\",\"id\":" + std::to_string(id) +
                       ",\"wait\":true,\"timeout_ms\":120000}");
}

// --- rendezvous ring --------------------------------------------------

Hash128 key_of(std::uint64_t i) { return Fnv128().u64(i).digest(); }

TEST(RendezvousRingTest, RankedIsAPermutationLedByTheOwner) {
  const RendezvousRing ring({"127.0.0.1:7801", "127.0.0.1:7802",
                             "127.0.0.1:7803"});
  ASSERT_EQ(ring.size(), 3u);
  for (std::uint64_t k = 0; k < 32; ++k) {
    const Hash128 key = key_of(k);
    const std::vector<std::size_t> order = ring.ranked(key);
    ASSERT_EQ(order.size(), 3u);
    std::vector<bool> seen(3, false);
    for (const std::size_t i : order) {
      ASSERT_LT(i, 3u);
      EXPECT_FALSE(seen[i]) << "node ranked twice for key " << k;
      seen[i] = true;
    }
    EXPECT_EQ(order[0], ring.owner(key, [](std::size_t) { return true; }));
    // Scores really are ordered (ranked is not just any permutation).
    EXPECT_GE(ring.score(order[0], key), ring.score(order[1], key));
    EXPECT_GE(ring.score(order[1], key), ring.score(order[2], key));
  }
}

TEST(RendezvousRingTest, OwnershipIsAPureFunctionOfMembershipAndKey) {
  const std::vector<std::string> nodes = {"a:1", "b:2", "c:3", "d:4"};
  const RendezvousRing ring1(nodes);
  const RendezvousRing ring2(nodes);  // a second router replica
  for (std::uint64_t k = 0; k < 64; ++k)
    EXPECT_EQ(ring1.ranked(key_of(k)), ring2.ranked(key_of(k))) << k;
}

TEST(RendezvousRingTest, KeysSpreadAcrossEveryNode) {
  const RendezvousRing ring({"a:1", "b:2", "c:3"});
  std::vector<unsigned> owned(3, 0);
  for (std::uint64_t k = 0; k < 96; ++k)
    ++owned[ring.owner(key_of(k), [](std::size_t) { return true; })];
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GT(owned[i], 0u) << "node " << i << " owns nothing";
}

TEST(RendezvousRingTest, LosingANodeOnlyMovesItsOwnKeys) {
  const RendezvousRing ring({"a:1", "b:2", "c:3", "d:4"});
  for (std::uint64_t k = 0; k < 128; ++k) {
    const Hash128 key = key_of(k);
    const std::vector<std::size_t> order = ring.ranked(key);
    for (std::size_t dead = 0; dead < ring.size(); ++dead) {
      const std::size_t owner =
          ring.owner(key, [&](std::size_t i) { return i != dead; });
      if (order[0] == dead)
        EXPECT_EQ(owner, order[1]) << "key " << k << " skipped its runner-up";
      else
        EXPECT_EQ(owner, order[0])
            << "key " << k << " moved although its owner survived";
    }
  }
}

// --- circuit breaker (injected time, no sleeps) -----------------------

CircuitBreaker::TimePoint at(std::uint64_t ms) {
  return CircuitBreaker::TimePoint{} + std::chrono::milliseconds(ms);
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndRecovers) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_cooldown_ms = 100;
  CircuitBreaker b(policy);

  EXPECT_TRUE(b.allow(at(0)));
  b.on_failure(at(0));
  b.on_failure(at(1));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.consecutive_failures(), 2u);
  b.on_success();  // a success resets the streak
  EXPECT_EQ(b.consecutive_failures(), 0u);

  b.on_failure(at(10));
  b.on_failure(at(11));
  b.on_failure(at(12));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counts().opened, 1u);

  EXPECT_FALSE(b.allow(at(50)));   // inside the cooldown
  EXPECT_TRUE(b.allow(at(120)));   // cooldown over: this caller probes
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(b.counts().half_opened, 1u);
  EXPECT_FALSE(b.allow(at(121)));  // exactly one probe in flight

  b.on_success();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.counts().closed, 1u);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAFullCooldown) {
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_cooldown_ms = 100;
  CircuitBreaker b(policy);

  b.on_failure(at(0));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_TRUE(b.allow(at(100)));
  b.on_failure(at(100));  // the probe found it still sick
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counts().opened, 2u);
  EXPECT_FALSE(b.allow(at(150)));  // cooldown restarted at t=100
  EXPECT_TRUE(b.allow(at(210)));
}

TEST(CircuitBreakerTest, TripForcesOpenAndRefreshesTheCooldown) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_cooldown_ms = 100;
  CircuitBreaker b(policy);

  b.trip(at(0));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counts().opened, 1u);
  b.trip(at(50));  // already open: just restart the clock
  EXPECT_EQ(b.counts().opened, 1u);
  EXPECT_FALSE(b.allow(at(120)));  // 50 + 100 > 120
  EXPECT_TRUE(b.allow(at(160)));
}

// --- health monitor with a scripted prober ----------------------------

TEST(HealthMonitorTest, ScriptedProbesDriveTheFleetStateMachine) {
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.open_cooldown_ms = 0;  // every round may re-probe
  HealthMonitor mon(2, policy);

  std::vector<int> healthy = {1, 0};
  std::vector<std::tuple<std::size_t, BreakerState, BreakerState>> log;
  mon.set_probe([&](std::size_t i) { return healthy[i] != 0; });
  mon.set_on_transition([&](std::size_t i, BreakerState from,
                            BreakerState to) { log.emplace_back(i, from, to); });

  mon.probe_once();  // backend 1: failure 1 of 2
  EXPECT_EQ(mon.state(1), BreakerState::kClosed);
  EXPECT_EQ(mon.alive_count(), 2u);

  mon.probe_once();  // failure 2 of 2: open
  EXPECT_EQ(mon.state(1), BreakerState::kOpen);
  EXPECT_EQ(mon.alive_count(), 1u);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), std::make_tuple(std::size_t{1},
                                        BreakerState::kClosed,
                                        BreakerState::kOpen));

  mon.probe_once();  // half-open probe, still failing: open again
  EXPECT_EQ(mon.state(1), BreakerState::kOpen);
  EXPECT_GE(mon.counts(1).half_opened, 1u);

  healthy[1] = 1;
  mon.probe_once();  // half-open probe succeeds: recovered
  EXPECT_EQ(mon.state(1), BreakerState::kClosed);
  EXPECT_EQ(mon.alive_count(), 2u);
  EXPECT_EQ(mon.totals().closed, 1u);

  // The healthy backend never transitioned at all.
  EXPECT_EQ(mon.counts(0).opened, 0u);
  EXPECT_EQ(mon.counts(0).closed, 0u);
}

// --- backend spec parsing ---------------------------------------------

TEST(BackendSpecTest, ParsesHostPortAndBarePort) {
  const BackendSpec a = BackendSpec::parse("10.1.2.3:7734");
  EXPECT_EQ(a.host, "10.1.2.3");
  EXPECT_EQ(a.port, 7734);
  EXPECT_EQ(a.name(), "10.1.2.3:7734");

  const BackendSpec b = BackendSpec::parse("9000");
  EXPECT_EQ(b.host, "127.0.0.1");
  EXPECT_EQ(b.port, 9000);

  EXPECT_THROW(BackendSpec::parse("nonsense"), ServeError);
  EXPECT_THROW(BackendSpec::parse("host:0"), ServeError);
  EXPECT_THROW(BackendSpec::parse("host:99999"), ServeError);
}

// --- in-process router fleet ------------------------------------------

/// N serve::Server backends on ephemeral ports behind one Router.
struct Fleet {
  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<Router> router;

  Fleet(std::size_t n, ServerOptions base, RouterOptions ropts) {
    for (std::size_t i = 0; i < n; ++i) {
      base.port = 0;
      servers.push_back(std::make_unique<Server>(base));
      servers.back()->start();
      ropts.backends.push_back(
          BackendSpec{"127.0.0.1", servers.back()->port()});
    }
    ropts.port = 0;
    router = std::make_unique<Router>(std::move(ropts));
    router->start();
  }

  ~Fleet() {
    if (router) router->stop();
    for (auto& s : servers) s->stop();
  }

  Client connect() {
    Client c;
    c.connect("127.0.0.1", router->port(), /*timeout_ms=*/5000);
    return c;
  }
};

/// Deterministic unit-test router defaults: no background prober, so
/// breakers learn only from the requests the test issues.
RouterOptions test_router_options() {
  RouterOptions ropts;
  ropts.probe_interval_ms = 0;
  ropts.connect_timeout_ms = 2'000;
  return ropts;
}

/// The backend the router's affinity ring places this submit on,
/// derived exactly as the router derives it.
std::size_t route_owner(const std::vector<BackendSpec>& backends,
                        const std::vector<std::string>& jobs) {
  std::vector<std::string> names;
  for (const BackendSpec& b : backends) names.push_back(b.name());
  const std::vector<std::string_view> texts(jobs.begin(), jobs.end());
  return RendezvousRing(names).ranked(cluster::route_key(texts))[0];
}

std::size_t route_owner(const Fleet& fleet,
                        const std::vector<std::string>& jobs) {
  std::vector<BackendSpec> backends;
  for (const auto& s : fleet.servers)
    backends.push_back(BackendSpec{"127.0.0.1", s->port()});
  return route_owner(backends, jobs);
}

json::Value router_stats(Client& c) {
  const json::Value resp = c.request("{\"op\":\"stats\"}");
  EXPECT_TRUE(resp.get_bool("ok", false));
  const json::Value* stats = resp.find("stats");
  EXPECT_NE(stats, nullptr);
  return stats ? *stats : json::Value{};
}

std::uint64_t router_counter(const json::Value& stats, const char* name) {
  const json::Value* r = stats.find("router");
  return r ? r->get_uint(name, 0) : 0;
}

/// Index of the (first) backend the router reports exactly `n`
/// outstanding jobs on, or kNpos.
std::size_t backend_with_outstanding(const json::Value& stats,
                                     std::uint64_t n) {
  const json::Value* backends = stats.find("backends");
  if (!backends) return kNpos;
  const auto& arr = backends->as_array();
  for (std::size_t i = 0; i < arr.size(); ++i)
    if (arr[i].get_uint("outstanding", ~std::uint64_t{0}) == n) return i;
  return kNpos;
}

std::string backend_breaker(const json::Value& stats, std::size_t i) {
  return stats.find("backends")->as_array()[i].get_string("breaker", "");
}

std::uint64_t server_cache_hits(const Server& s) {
  const json::Value v = parse_json(s.stats_json());
  const json::Value* cache = v.find("cache");
  return cache ? cache->get_uint("hits", 0) : 0;
}

std::uint64_t server_submitted(const Server& s) {
  const json::Value v = parse_json(s.stats_json());
  const json::Value* counters = v.find("counters");
  return counters ? counters->get_uint("submitted", 0) : 0;
}

std::uint64_t server_jobs_tracked(const Server& s) {
  return parse_json(s.stats_json()).get_uint("jobs_tracked", 0);
}

TEST(RouterProxyTest, SpeaksTheServedProtocolEndToEnd) {
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(1, sopts, test_router_options());
  Client c = fleet.connect();

  const json::Value pong = c.request("{\"op\":\"ping\"}");
  EXPECT_TRUE(pong.get_bool("ok", false));
  EXPECT_EQ(pong.get_string("type", ""), "pong");

  const json::Value unknown = c.request("{\"op\":\"flub\"}");
  EXPECT_FALSE(unknown.get_bool("ok", true));
  EXPECT_EQ(unknown.get_string("error", ""), "unknown_op");

  const json::Value empty = c.request("{\"op\":\"submit\",\"jobs\":[]}");
  EXPECT_FALSE(empty.get_bool("ok", true));
  EXPECT_EQ(empty.get_string("error", ""), "bad_request");

  const json::Value lost = c.request("{\"op\":\"status\",\"id\":424242}");
  EXPECT_FALSE(lost.get_bool("ok", true));
  EXPECT_EQ(lost.get_string("error", ""), "not_found");

  // Cancel forwards through the router and the result reports it.
  const json::Value sub = c.request(
      "{\"op\":\"submit\",\"jobs\":[" + job_json(kLongKernel, "doomed") +
      "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = ids_of(sub)[0];
  await_running(c, id);
  const json::Value cancel =
      c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}");
  EXPECT_TRUE(cancel.get_bool("ok", false));
  EXPECT_EQ(cancel.get_uint("id", 0), id);  // router id, not backend id
  const std::string raw = await_result_raw(c, id);
  EXPECT_NE(raw.find("\"cancelled\""), std::string::npos) << raw;
}

TEST(RouterAffinityTest, RepeatSubmitsLandOnTheOwnersCache) {
  ServerOptions sopts;
  sopts.workers = 2;
  sopts.cache_bytes = 1 << 20;
  Fleet fleet(3, sopts, test_router_options());
  Client c = fleet.connect();

  const std::vector<std::string> kernels = {
      counting_kernel(100), counting_kernel(101), counting_kernel(102)};
  std::string jobs;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (i) jobs += ",";
    jobs += job_json(kernels[i], "aff-" + std::to_string(i));
  }
  const std::string submit = "{\"op\":\"submit\",\"jobs\":[" + jobs + "]}";

  const json::Value first = c.request(submit);
  ASSERT_TRUE(first.get_bool("ok", false));
  const std::vector<std::uint64_t> ids1 = ids_of(first);
  ASSERT_EQ(ids1.size(), 3u);

  // Complete and collect every result: bit-identical to a serial run
  // (after one trip through the shared serializer on both sides).
  for (std::size_t i = 0; i < ids1.size(); ++i)
    EXPECT_EQ(result_stats(await_result_raw(c, ids1[i])),
              serial_stats_json(kernels[i]))
        << "job " << i << " diverged from the serial run";

  // The identical submit hashes to the same owner, whose cache now
  // holds all three results.
  const json::Value second = c.request(submit);
  ASSERT_TRUE(second.get_bool("ok", false));
  const std::vector<std::uint64_t> ids2 = ids_of(second);
  EXPECT_EQ(result_stats(await_result_raw(c, ids2[0])),
            serial_stats_json(kernels[0]));

  std::size_t with_hits = kNpos;
  for (std::size_t i = 0; i < fleet.servers.size(); ++i) {
    const std::uint64_t hits = server_cache_hits(*fleet.servers[i]);
    if (hits == 0) continue;
    EXPECT_EQ(with_hits, kNpos) << "cache hits on two backends";
    EXPECT_EQ(hits, 3u);
    with_hits = i;
  }
  ASSERT_NE(with_hits, kNpos) << "the repeat submit hit no cache at all";

  // Router counters: both submits routed, nothing rerouted — affinity
  // placed them, saturation and failover never intervened.
  const json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "submits_routed"), 2u);
  EXPECT_EQ(router_counter(stats, "jobs_routed"), 6u);
  EXPECT_EQ(router_counter(stats, "jobs_rerouted"), 0u);
  EXPECT_EQ(stats.find("fleet")->get_uint("cache_hits", 0), 3u);

  // An old client's config may still carry "sim_threads", a removed host
  // knob. It is ignored: every job keeps its cache key, so the whole
  // submit routes to the same owner and hits its cache, with the same
  // result bytes — through the router and directly at the backend.
  const std::string width = "\"width\":16}";
  const std::string legacy_width = "\"width\":16,\"sim_threads\":4}";
  std::string legacy_submit = submit;
  for (std::size_t at = legacy_submit.find(width); at != std::string::npos;
       at = legacy_submit.find(width, at + legacy_width.size()))
    legacy_submit.replace(at, width.size(), legacy_width);
  const json::Value legacy_req = parse_json(legacy_submit);
  for (std::size_t i = 0; i < kernels.size(); ++i)
    EXPECT_EQ(sweep_cache_key(serve::job_from_json(
                  legacy_req.find("jobs")->as_array()[i])),
              sweep_cache_key(serve::job_from_json(
                  parse_json(job_json(kernels[i], "aff-" + std::to_string(i))))));
  const json::Value routed = c.request(legacy_submit);
  ASSERT_TRUE(routed.get_bool("ok", false)) << legacy_submit;
  EXPECT_EQ(result_stats(await_result_raw(c, ids_of(routed)[0])),
            serial_stats_json(kernels[0]));
  Client direct;
  direct.connect("127.0.0.1", fleet.servers[with_hits]->port(), 5000);
  const json::Value local = direct.request(legacy_submit);
  ASSERT_TRUE(local.get_bool("ok", false)) << legacy_submit;
  EXPECT_EQ(result_stats(await_result_raw(direct, ids_of(local)[0])),
            serial_stats_json(kernels[0]));
  EXPECT_EQ(server_cache_hits(*fleet.servers[with_hits]), 9u);
}

TEST(RouterIdempotencyTest, KeyedSubmitReturnsTheOriginalRouterIds) {
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(2, sopts, test_router_options());
  Client c = fleet.connect();

  const std::string submit =
      "{\"op\":\"submit\",\"key\":\"router-key\",\"jobs\":[" +
      job_json(counting_kernel(100), "keyed") + "]}";
  const json::Value first = c.request(submit);
  ASSERT_TRUE(first.get_bool("ok", false));
  EXPECT_FALSE(first.get_bool("duplicate", true));
  const std::vector<std::uint64_t> ids = ids_of(first);

  const json::Value dup = c.request(submit);
  ASSERT_TRUE(dup.get_bool("ok", false));
  EXPECT_TRUE(dup.get_bool("duplicate", false));
  EXPECT_EQ(ids_of(dup), ids);

  // Still the same ids once the job has finished.
  await_result_raw(c, ids[0]);
  const json::Value late = c.request(submit);
  ASSERT_TRUE(late.get_bool("ok", false));
  EXPECT_TRUE(late.get_bool("duplicate", false));
  EXPECT_EQ(ids_of(late), ids);
}

TEST(RouterBackpressureTest, DivertsAroundASaturatedOwner) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = 1;
  Fleet fleet(3, sopts, test_router_options());
  Client c = fleet.connect();

  const std::string submit = "{\"op\":\"submit\",\"jobs\":[" +
                             job_json(kLongKernel, "sat") + "]}";
  // First copy: dispatched on the owner (await it so the queue drains).
  const json::Value first = c.request(submit);
  ASSERT_TRUE(first.get_bool("ok", false));
  await_running(c, ids_of(first)[0]);
  const std::size_t owner =
      backend_with_outstanding(router_stats(c), 1);
  ASSERT_NE(owner, kNpos);

  // Second copy: same content, same owner — parked in its queue slot.
  const json::Value second = c.request(submit);
  ASSERT_TRUE(second.get_bool("ok", false));

  // Third copy: the owner is saturated (1 running + 1 queued), so the
  // router diverts it to the next candidate instead of refusing.
  const json::Value third = c.request(submit);
  ASSERT_TRUE(third.get_bool("ok", false))
      << "router refused although two backends were idle";

  const json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "submits_routed"), 3u);
  EXPECT_GE(router_counter(stats, "jobs_rerouted"), 1u);
  EXPECT_EQ(router_counter(stats, "submits_rejected"), 0u);
  EXPECT_EQ(stats.find("backends")
                ->as_array()[owner]
                .get_uint("outstanding", 0),
            2u);
}

TEST(RouterBackpressureTest, PropagatesQueueFullWhenTheWholeFleetIsSaturated) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = 1;
  Fleet fleet(1, sopts, test_router_options());
  Client c = fleet.connect();

  const std::string submit = "{\"op\":\"submit\",\"jobs\":[" +
                             job_json(kLongKernel, "full") + "]}";
  const json::Value first = c.request(submit);
  ASSERT_TRUE(first.get_bool("ok", false));
  await_running(c, ids_of(first)[0]);
  ASSERT_TRUE(c.request(submit).get_bool("ok", false));  // fills the queue

  const json::Value refused = c.request(submit);
  EXPECT_FALSE(refused.get_bool("ok", true));
  EXPECT_EQ(refused.get_string("error", ""), "queue_full");
  EXPECT_GT(refused.get_uint("retry_after_ms", 0), 0u)
      << "backpressure lost its honest retry hint through the router";

  EXPECT_EQ(router_counter(router_stats(c), "submits_rejected"), 1u);
}

TEST(RouterLeastQueuedTest, SpreadsIdenticalWorkAcrossTheFleet) {
  ServerOptions sopts;
  sopts.workers = 1;
  RouterOptions ropts = test_router_options();
  ropts.affinity = false;  // cache-disabled fleet mode
  Fleet fleet(3, sopts, ropts);
  Client c = fleet.connect();

  // Identical content would colocate under affinity; least-queued must
  // spread it one job per backend instead.
  const std::string submit = "{\"op\":\"submit\",\"jobs\":[" +
                             job_json(counting_kernel(100), "spread") + "]}";
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const json::Value resp = c.request(submit);
    ASSERT_TRUE(resp.get_bool("ok", false));
    ids.push_back(ids_of(resp)[0]);
  }

  const json::Value stats = router_stats(c);
  EXPECT_EQ(stats.find("router")->get_string("mode", ""), "least_queued");
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(stats.find("backends")->as_array()[i].get_uint("outstanding",
                                                             0),
              1u)
        << "backend " << i;

  const std::string want = serial_stats_json(counting_kernel(100));
  for (const std::uint64_t id : ids)
    EXPECT_EQ(result_stats(await_result_raw(c, id)), want);
}

TEST(RouterFailoverTest, InjectedFaultsOpenTheBreakerAndRerouteExactlyOnce) {
  ServerOptions sopts;
  sopts.workers = 1;
  RouterOptions ropts = test_router_options();
  ropts.breaker.failure_threshold = 3;
  ropts.breaker.open_cooldown_ms = 60'000;  // stays open for the test
  // Declared before the fleet so it is destroyed only after every
  // backend thread has joined: a backend worker can still call through
  // the global injector pointer after the injected faults are spent.
  std::optional<fault::ScopedInjector> inj;
  Fleet fleet(2, sopts, ropts);
  Client c = fleet.connect();

  const std::string submit =
      "{\"op\":\"submit\",\"key\":\"fault-key\",\"jobs\":[" +
      job_json(counting_kernel(100), "fault-job") + "]}";
  const json::Value sub = c.request(submit);
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = ids_of(sub)[0];
  const std::size_t owner = backend_with_outstanding(router_stats(c), 1);
  ASSERT_NE(owner, kNpos);
  const std::size_t survivor = 1 - owner;

  {
    // Fail every router→backend request from here on, budgeted to the
    // breaker threshold: the third failure opens the owner's breaker
    // and the failover resubmit (request four) goes through untouched.
    fault::FaultPlan plan;
    plan.backend_fail_at = 1;
    plan.max_faults = ropts.breaker.failure_threshold;
    inj.emplace(plan);
    for (unsigned i = 0; i < ropts.breaker.failure_threshold; ++i) {
      const json::Value resp =
          c.request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
      EXPECT_FALSE(resp.get_bool("ok", true))
          << "status " << i << " ignored the injected fault";
    }
    EXPECT_EQ((*inj)->counts().backend_requests_failed,
              std::uint64_t{ropts.breaker.failure_threshold});
  }
  EXPECT_EQ(fleet.router->backend_state(owner), BreakerState::kOpen);

  // The rerouted job completes on the survivor, bit-identical.
  EXPECT_EQ(result_stats(await_result_raw(c, id)),
            serial_stats_json(counting_kernel(100)));

  // Exactly-once from the client's view: the key still answers with the
  // original router ids, and each backend admitted the group once.
  const json::Value dup = c.request(submit);
  ASSERT_TRUE(dup.get_bool("ok", false));
  EXPECT_TRUE(dup.get_bool("duplicate", false));
  EXPECT_EQ(ids_of(dup), std::vector<std::uint64_t>{id});
  EXPECT_EQ(server_submitted(*fleet.servers[owner]), 1u);
  EXPECT_EQ(server_submitted(*fleet.servers[survivor]), 1u);

  const json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "jobs_rerouted"), 1u);
  EXPECT_EQ(router_counter(stats, "ring_moves"), 1u);
  EXPECT_EQ(stats.find("router")->find("breaker")->get_uint("opened", 0),
            1u);
  EXPECT_EQ(stats.find("router")->get_uint("alive", 0), 1u);
  EXPECT_EQ(backend_breaker(stats, owner), "open");
}

TEST(RouterFailoverTest, BackendStopMidRunFailsOverBitIdentically) {
  ServerOptions sopts;
  sopts.workers = 1;
  RouterOptions ropts = test_router_options();
  ropts.breaker.failure_threshold = 1;  // one transport failure is enough
  ropts.breaker.open_cooldown_ms = 60'000;
  Fleet fleet(2, sopts, ropts);
  Client c = fleet.connect();

  const std::string job = spin_job_json("stop-fo", kSpinCap);
  const json::Value sub =
      c.request("{\"op\":\"submit\",\"jobs\":[" + job + "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = ids_of(sub)[0];
  await_running(c, id);
  const std::size_t owner = backend_with_outstanding(router_stats(c), 1);
  ASSERT_NE(owner, kNpos);

  // Stop the owner mid-simulation: the next forward fails, the breaker
  // opens, and the group is resubmitted to the survivor, where it runs
  // to its cycle cap.
  fleet.servers[owner]->stop();
  const std::string raw = await_result_raw(c, id);
  EXPECT_EQ(result_record(raw), serial_record(job, id))
      << "failed-over result diverged from the serial run";
  EXPECT_NE(raw.find("\"label\":\"stop-fo\""), std::string::npos);

  const json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "jobs_rerouted"), 1u);
  EXPECT_EQ(backend_breaker(stats, owner), "open");
  EXPECT_EQ(stats.find("router")->get_uint("alive", 0), 1u);
}

// --- peer cache read-through (docs/CACHE.md tier L3) -------------------

std::uint64_t peer_counter(const json::Value& stats, const char* name) {
  const json::Value* r = stats.find("router");
  if (!r) return 0;
  const json::Value* pc = r->find("peer_cache");
  return pc ? pc->get_uint(name, 0) : 0;
}

TEST(RouterPeerCacheTest, DivertedSubmitIsServedFromTheOwnersCache) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.cache_bytes = 1 << 20;
  RouterOptions ropts = test_router_options();
  ropts.breaker.failure_threshold = 3;  // one failure must NOT open it
  Fleet fleet(2, sopts, ropts);
  Client c = fleet.connect();

  // Warm the owner's cache through the router.
  const std::string submit = "{\"op\":\"submit\",\"jobs\":[" +
                             job_json(counting_kernel(100), "peer-warm") +
                             "]}";
  const json::Value warm = c.request(submit);
  ASSERT_TRUE(warm.get_bool("ok", false));
  const std::string golden = result_stats(
      await_result_raw(c, ids_of(warm)[0]));
  ASSERT_EQ(golden, serial_stats_json(counting_kernel(100)));
  std::size_t owner = kNpos;
  for (std::size_t i = 0; i < fleet.servers.size(); ++i)
    if (server_submitted(*fleet.servers[i]) == 1) owner = i;
  ASSERT_NE(owner, kNpos);
  const std::size_t survivor = 1 - owner;

  // One injected transport failure on the next router->backend request:
  // the repeat submit bounces off the owner and diverts — where the
  // router first asks the owner's cache (a fresh connection, which the
  // exhausted injector no longer touches) and serves the group itself.
  std::uint64_t id = 0;
  {
    fault::FaultPlan plan;
    plan.backend_fail_at = 1;
    plan.max_faults = 1;
    fault::ScopedInjector inj(plan);
    const json::Value resp = c.request(submit);
    ASSERT_TRUE(resp.get_bool("ok", false)) << json::serialize(resp);
    id = ids_of(resp)[0];
    EXPECT_EQ(inj->counts().backend_requests_failed, 1u);
  }

  // Served at submit time: done immediately, bit-identical payload.
  const json::Value status =
      c.request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
  EXPECT_EQ(status.get_string("state", ""), "done");
  EXPECT_EQ(result_stats(await_result_raw(c, id)), golden);

  // Neither backend saw a second submission...
  EXPECT_EQ(server_submitted(*fleet.servers[owner]), 1u);
  EXPECT_EQ(server_submitted(*fleet.servers[survivor]), 0u);
  // ...and the router accounted the round as a peer hit, not a reroute.
  const json::Value stats = router_stats(c);
  EXPECT_EQ(peer_counter(stats, "lookups"), 1u);
  EXPECT_EQ(peer_counter(stats, "hits"), 1u);
  EXPECT_EQ(peer_counter(stats, "jobs_served"), 1u);
  EXPECT_EQ(peer_counter(stats, "misses"), 0u);
  EXPECT_EQ(peer_counter(stats, "errors"), 0u);
  EXPECT_EQ(router_counter(stats, "submits_routed"), 2u);
  EXPECT_EQ(router_counter(stats, "jobs_rerouted"), 0u);
  EXPECT_EQ(backend_breaker(stats, owner), "closed");
}

TEST(RouterPeerCacheTest, DisabledReadThroughDivertsToSimulation) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.cache_bytes = 1 << 20;
  RouterOptions ropts = test_router_options();
  ropts.peer_read_through = false;  // --no-peer-cache
  Fleet fleet(2, sopts, ropts);
  Client c = fleet.connect();

  const std::string submit = "{\"op\":\"submit\",\"jobs\":[" +
                             job_json(counting_kernel(100), "no-peer") + "]}";
  const json::Value warm = c.request(submit);
  ASSERT_TRUE(warm.get_bool("ok", false));
  const std::string golden = result_stats(
      await_result_raw(c, ids_of(warm)[0]));
  std::size_t owner = kNpos;
  for (std::size_t i = 0; i < fleet.servers.size(); ++i)
    if (server_submitted(*fleet.servers[i]) == 1) owner = i;
  ASSERT_NE(owner, kNpos);

  std::uint64_t id = 0;
  {
    fault::FaultPlan plan;
    plan.backend_fail_at = 1;
    plan.max_faults = 1;
    fault::ScopedInjector inj(plan);
    const json::Value resp = c.request(submit);
    ASSERT_TRUE(resp.get_bool("ok", false));
    id = ids_of(resp)[0];
  }
  // Same divert, same answer — but simulated on the other backend, with
  // the peer tier never consulted.
  EXPECT_EQ(result_stats(await_result_raw(c, id)), golden);
  EXPECT_EQ(server_submitted(*fleet.servers[1 - owner]), 1u);
  EXPECT_EQ(peer_counter(router_stats(c), "lookups"), 0u);
}

TEST(RouterPeerCacheTest, FailoverPeerMissStillRecomputesBitIdentically) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.cache_bytes = 1 << 20;
  RouterOptions ropts = test_router_options();
  ropts.breaker.failure_threshold = 1;
  ropts.breaker.open_cooldown_ms = 60'000;
  Fleet fleet(2, sopts, ropts);
  Client c = fleet.connect();

  const std::string job = spin_job_json("peer-fo", kSpinCap);
  const json::Value sub =
      c.request("{\"op\":\"submit\",\"jobs\":[" + job + "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = ids_of(sub)[0];
  await_running(c, id);
  const std::size_t owner = backend_with_outstanding(router_stats(c), 1);
  ASSERT_NE(owner, kNpos);

  // Kill the owner mid-run. The failover re-placement first asks the
  // survivor's cache (nobody has computed this job: honest miss), then
  // resubmits — an optimization that misses must cost one bounded round
  // and nothing else.
  fleet.servers[owner]->stop();
  const std::string raw = await_result_raw(c, id);
  EXPECT_EQ(result_record(raw), serial_record(job, id));

  const json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "jobs_rerouted"), 1u);
  EXPECT_EQ(peer_counter(stats, "lookups"), 1u);
  EXPECT_EQ(peer_counter(stats, "hits"), 0u);
  EXPECT_EQ(peer_counter(stats, "misses") + peer_counter(stats, "errors"),
            1u);
}

TEST(RouterMetricsTest, ExposesRouterAndBackendPrometheusSeries) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.cache_bytes = 1 << 20;
  Fleet fleet(2, sopts, test_router_options());
  Client c = fleet.connect();

  const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                    job_json(counting_kernel(100), "m") +
                                    "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  await_result_raw(c, ids_of(sub)[0]);

  const json::Value resp = c.request("{\"op\":\"metrics_text\"}");
  ASSERT_TRUE(resp.get_bool("ok", false));
  const std::string text = resp.get_string("text", "");
  for (const char* series :
       {"masc_routerd_backends 2", "masc_routerd_backends_alive 2",
        "masc_routerd_submits_routed_total 1",
        "masc_routerd_jobs_routed_total 1",
        "masc_routerd_jobs_rerouted_total 0",
        "masc_routerd_submits_rejected_total 0",
        "masc_routerd_results_served_total 1",
        "masc_routerd_ring_moves_total 0",
        "masc_routerd_jobs_tracked 1",
        "masc_routerd_groups_live 1",
        "masc_routerd_breaker_opened_total 0",
        "masc_routerd_breaker_half_opened_total",
        "masc_routerd_breaker_closed_total",
        "masc_routerd_backend_up{backend=\"127.0.0.1:",
        "masc_routerd_backend_outstanding{backend=\"127.0.0.1:"})
    EXPECT_NE(text.find(series), std::string::npos)
        << "missing series: " << series << "\n" << text;

  // The backends' own exposition uses the masc_served_ namespace
  // (docs/SERVER.md "Prometheus metrics") — both sides documented in
  // docs/CLUSTER.md must actually exist.
  const std::string backend_text = fleet.servers[0]->metrics_text();
  EXPECT_NE(backend_text.find("masc_served_"), std::string::npos);
  EXPECT_EQ(backend_text.find("masc_routerd_"), std::string::npos);
}

TEST(RouterMetricsTest, StatsPinTheRouterObjectAndTheBackendRollCall) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.cache_bytes = 1 << 20;
  Fleet fleet(2, sopts, test_router_options());
  Client c = fleet.connect();

  const std::string kernel = counting_kernel(100);
  const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                    job_json(kernel, "pin") + "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  await_result_raw(c, ids_of(sub)[0]);

  const std::string raw = c.request_raw("{\"op\":\"stats\"}");
  const std::string_view stats = json::member_text(raw, "stats");
  EXPECT_EQ(json::member_text(stats, "router"),
            "{\"backends\":2,\"alive\":2,\"mode\":\"affinity\","
            "\"submits_routed\":1,\"jobs_routed\":1,\"jobs_rerouted\":0,"
            "\"submits_rejected\":0,\"results_served\":1,\"ring_moves\":0,"
            "\"jobs_tracked\":1,\"groups_live\":1,"
            "\"peer_cache\":{\"lookups\":0,\"hits\":0,\"jobs_served\":0,"
            "\"misses\":0,\"errors\":0},"
            "\"breaker\":{\"opened\":0,\"half_opened\":0,\"closed\":0}}")
      << raw;
  // Each backend's members, then its own stats document.
  const std::string_view backends = json::member_text(stats, "backends");
  for (std::size_t i = 0; i < fleet.servers.size(); ++i) {
    const std::string head =
        std::string(i ? ",{" : "[{") + "\"endpoint\":\"127.0.0.1:" +
        std::to_string(fleet.servers[i]->port()) +
        "\",\"breaker\":\"closed\",\"outstanding\":0,\"up\":true,"
        "\"stats\":{\"queue_depth\":0,";
    EXPECT_NE(backends.find(head), std::string_view::npos) << head << "\n"
                                                           << raw;
  }
  const std::uint64_t cycles =
      parse_json(serial_stats_json(kernel)).get_uint("cycles", 0);
  EXPECT_EQ(json::member_text(stats, "fleet"),
            "{\"submitted\":1,\"rejected\":0,\"queue_depth\":0,"
            "\"in_flight\":0,\"cache_hits\":0,\"cache_misses\":1,"
            "\"cycles\":" +
                std::to_string(cycles) + "}")
      << raw;
}

TEST(RouterConcurrencyTest, ConcurrentKeylessSubmitsGetDistinctFleetKeys) {
  // Regression: generated fleet keys must be reserved atomically at
  // generation time. Two concurrent keyless submits once minted the
  // same "r:<prefix>:<N>" key, so the backend deduped the second
  // against the first and one client silently received the other's
  // results without its jobs ever running.
  ServerOptions sopts;
  sopts.workers = 2;
  Fleet fleet(1, sopts, test_router_options());

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> got(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&fleet, &got, t] {
      Client c = fleet.connect();
      const json::Value sub = c.request(
          "{\"op\":\"submit\",\"jobs\":[" +
          job_json(counting_kernel(200 + t), "conc-" + std::to_string(t)) +
          "]}");
      if (!sub.get_bool("ok", false)) return;
      got[t] = result_stats(await_result_raw(c, ids_of(sub)[0]));
    });
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(got[t], serial_stats_json(counting_kernel(200 + t)))
        << "submitter " << t << " received another client's results";
  // Every submit really ran: the lone backend admitted all eight
  // distinct groups instead of answering any of them as a duplicate.
  EXPECT_EQ(server_submitted(*fleet.servers[0]), kThreads);
}

TEST(RouterReleaseTest, ReleasingEveryJobReclaimsTheGroup) {
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(1, sopts, test_router_options());
  Client c = fleet.connect();

  const std::string submit =
      "{\"op\":\"submit\",\"key\":\"rel-key\",\"jobs\":[" +
      job_json(counting_kernel(100), "rel-a") + "," +
      job_json(counting_kernel(101), "rel-b") + "]}";
  const json::Value sub = c.request(submit);
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::vector<std::uint64_t> ids = ids_of(sub);
  ASSERT_EQ(ids.size(), 2u);

  json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "jobs_tracked"), 2u);
  EXPECT_EQ(router_counter(stats, "groups_live"), 1u);

  // Fetch the first with release: the group survives — its sibling is
  // still tracked.
  json::Value resp = c.request(
      "{\"op\":\"result\",\"id\":" + std::to_string(ids[0]) +
      ",\"wait\":true,\"release\":true,\"timeout_ms\":120000}");
  ASSERT_TRUE(resp.get_bool("ok", false));
  stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "jobs_tracked"), 1u);
  EXPECT_EQ(router_counter(stats, "groups_live"), 1u);

  // Releasing the last job reclaims the whole group record: a
  // long-lived router must not grow with total submits.
  resp = c.request("{\"op\":\"result\",\"id\":" + std::to_string(ids[1]) +
                   ",\"wait\":true,\"release\":true,\"timeout_ms\":120000}");
  ASSERT_TRUE(resp.get_bool("ok", false));
  stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "jobs_tracked"), 0u);
  EXPECT_EQ(router_counter(stats, "groups_live"), 0u);
  // The release reached the backend too: it holds no record of either
  // job, and no dedup entry for the fleet key.
  EXPECT_EQ(server_jobs_tracked(*fleet.servers[0]), 0u);

  // The client key was reclaimed with the group, and the fleet key with
  // the backend's records: a resend is a fresh submit with new router
  // ids, not a duplicate of released work.
  const json::Value again = c.request(submit);
  ASSERT_TRUE(again.get_bool("ok", false));
  EXPECT_FALSE(again.get_bool("duplicate", true));
  EXPECT_NE(ids_of(again), ids);
  EXPECT_EQ(server_submitted(*fleet.servers[0]), 4u);
}

TEST(RouterReleaseTest, RoutedReleasesLeaveNoBackendRecords) {
  // Each round is what `masc-client submit --wait` does through the
  // router: submit, then `result wait:true release:true`. Repeats are
  // cache hits on their affinity home; every kind of round must leave
  // the backends holding nothing.
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.cache_bytes = 1u << 20;
  Fleet fleet(3, sopts, test_router_options());
  Client c = fleet.connect();

  constexpr unsigned kRounds = 24;
  for (unsigned r = 0; r < kRounds; ++r) {
    const std::string key =
        r % 3 == 0 ? ",\"key\":\"round-" + std::to_string(r) + "\"" : "";
    const json::Value sub = c.request(
        "{\"op\":\"submit\"" + key + ",\"jobs\":[" +
        job_json(counting_kernel(300 + r % 6), "round") + "]}");
    ASSERT_TRUE(sub.get_bool("ok", false)) << json::serialize(sub);
    const std::uint64_t id = ids_of(sub)[0];
    if (r % 4 == 1) {
      // Fetched first without release: the router caches the body and
      // must still reclaim the backend's record on the later release.
      ASSERT_TRUE(parse_json(await_result_raw(c, id)).get_bool("ok", false));
    }
    const json::Value res = c.request(
        "{\"op\":\"result\",\"id\":" + std::to_string(id) +
        ",\"wait\":true,\"release\":true,\"timeout_ms\":120000}");
    ASSERT_TRUE(res.get_bool("ok", false)) << json::serialize(res);
  }
  EXPECT_EQ(router_counter(router_stats(c), "jobs_tracked"), 0u);
  for (std::size_t b = 0; b < fleet.servers.size(); ++b)
    EXPECT_EQ(server_jobs_tracked(*fleet.servers[b]), 0u) << "backend " << b;
}

TEST(RouterProxyTest, RoutedResultBytesEqualTheBackendsOwn) {
  // docs/CLUSTER.md: a routed result is bit-identical to a direct one.
  // Compared raw — no parse/serialize canonicalization on either side —
  // so a router that re-rendered the body (e.g. "ipc" or host_seconds
  // with more digits) would fail here.
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(1, sopts, test_router_options());
  Client c = fleet.connect();
  const json::Value sub = c.request(
      "{\"op\":\"submit\",\"jobs\":[" +
      job_json(counting_kernel(77), "bytes") + "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::string routed = await_result_raw(c, ids_of(sub)[0]);

  // The lone backend's first job has id 1; ask it directly.
  Client direct;
  direct.connect("127.0.0.1", fleet.servers[0]->port(), 5000);
  const std::string backend =
      direct.request_raw("{\"op\":\"result\",\"id\":1}");
  const std::string_view routed_body = json::member_text(routed, "result");
  ASSERT_FALSE(routed_body.empty()) << routed;
  EXPECT_NE(routed_body.find("\"label\":\"bytes\""), std::string::npos);
  EXPECT_EQ(routed_body, json::member_text(backend, "result"));
}

TEST(RouterShutdownTest, StopUnblocksALongResultWait) {
  // Regression: handle_result's wait loop honored only the
  // client-chosen deadline, so stop() could block on a session thread
  // for that entire (unbounded) wait. With waits parked on the loops,
  // stop() answers all of them at once — shutting_down, or a hang-up
  // for one caught between rounds — the contract masc-served keeps.
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(1, sopts, test_router_options());

  Client c = fleet.connect();
  const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                    job_json(kLongKernel, "stop-wait") +
                                    "]}");
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = ids_of(sub)[0];

  // Park waiters whose deadline is far beyond any shutdown budget.
  constexpr int kWaiters = 32;
  std::vector<std::string> answers(kWaiters);
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i)
    waiters.emplace_back([&fleet, &answers, id, i] {
      try {
        Client w = fleet.connect();
        answers[i] = w.request_raw("{\"op\":\"result\",\"id\":" +
                                   std::to_string(id) +
                                   ",\"wait\":true,\"timeout_ms\":600000}");
      } catch (const std::exception&) {
        answers[i] = "hang-up";
      }
    });
  std::this_thread::sleep_for(300ms);  // let the waits reach the backend
  const auto t0 = std::chrono::steady_clock::now();
  fleet.router->stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  for (auto& t : waiters) t.join();
  EXPECT_LT(took, 1s) << "stop() waited out a client result deadline";
  for (int i = 0; i < kWaiters; ++i)
    EXPECT_TRUE(answers[i] == "hang-up" ||
                answers[i].find("\"shutting_down\"") != std::string::npos)
        << "waiter " << i << ": " << answers[i];
}

// --- parked result-waits hold no thread (docs/NET.md "Front end") ------

/// A raw v1 connection: Client's v1 API is strictly one request at a
/// time, these tests pipeline v1 requests to check response order.
class V1Conn {
 public:
  explicit V1Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~V1Conn() { ::close(fd_); }
  V1Conn(const V1Conn&) = delete;
  V1Conn& operator=(const V1Conn&) = delete;

  void send(const std::string& payload) { serve::write_frame(fd_, payload); }
  /// Next response; throws ServeError on hang-up or after `timeout_ms`.
  std::string recv(std::uint64_t timeout_ms = 60'000) {
    std::string payload;
    if (!serve::read_frame(fd_, payload, timeout_ms, timeout_ms))
      throw ServeError("router hung up");
    return payload;
  }

 private:
  int fd_ = -1;
};

std::string wait_request(std::uint64_t id, std::uint64_t timeout_ms) {
  return "{\"op\":\"result\",\"id\":" + std::to_string(id) +
         ",\"wait\":true,\"timeout_ms\":" + std::to_string(timeout_ms) + "}";
}

TEST(RouterParkedWaitTest, ThirtyTwoParkedWaitsLeavePingFast) {
  // Regression: each result-wait held one of the router's handler
  // threads for its whole wait, so as many parked waits as handlers froze
  // the router for every client (a ping took 19.5 s behind 8 waits).
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(2, sopts, test_router_options());
  Client c = fleet.connect();

  const std::vector<std::string> spins = {spin_job_json("spin-a"),
                                          spin_job_json("spin-b")};
  const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                    spins[0] + "," + spins[1] + "]}");
  ASSERT_TRUE(sub.get_bool("ok", false)) << json::serialize(sub);
  const std::vector<std::uint64_t> spin_ids = ids_of(sub);
  await_running(c, spin_ids[0]);

  // 16 v1 connections, each a parked wait followed by a ping that must
  // queue behind it; 16 v2 waits pipelined on one more connection.
  constexpr int kConns = 16;
  std::vector<std::unique_ptr<V1Conn>> v1;
  for (int i = 0; i < kConns; ++i) {
    v1.push_back(std::make_unique<V1Conn>(fleet.router->port()));
    v1.back()->send(wait_request(spin_ids[i % 2], 120'000));
    v1.back()->send("{\"op\":\"ping\"}");
  }
  Client pipelined = fleet.connect();
  ASSERT_EQ(pipelined.negotiate(), 2u);
  for (int i = 0; i < kConns; ++i)
    pipelined.send_v2(serve::v2::Op::kResult,
                      wait_request(spin_ids[i % 2], 120'000));
  std::this_thread::sleep_for(300ms);  // let every wait reach its backend

  auto t0 = std::chrono::steady_clock::now();
  const json::Value pong = c.request("{\"op\":\"ping\"}");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 50ms)
      << "32 parked waits stalled an unrelated ping";
  EXPECT_EQ(pong.get_string("type", ""), "pong");

  // A fresh job on the other backend runs and is fetched at once.
  const std::size_t spin_owner = route_owner(fleet, spins);
  std::string fresh;
  for (unsigned n = 1000; fresh.empty() && n < 1100; ++n) {
    const std::string job = job_json(counting_kernel(n), "fresh");
    if (route_owner(fleet, {job}) != spin_owner) fresh = job;
  }
  ASSERT_FALSE(fresh.empty());
  t0 = std::chrono::steady_clock::now();
  const json::Value fsub =
      c.request("{\"op\":\"submit\",\"jobs\":[" + fresh + "]}");
  ASSERT_TRUE(fsub.get_bool("ok", false)) << json::serialize(fsub);
  const json::Value fres = c.request(wait_request(ids_of(fsub)[0], 10'000));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_TRUE(fres.get_bool("ok", false)) << json::serialize(fres);

  // Cancelling the spins answers every parked wait with its terminal
  // result, and each v1 connection's answers keep request order.
  for (const std::uint64_t id : spin_ids)
    ASSERT_TRUE(c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                          "}")
                    .get_bool("ok", false));
  for (int i = 0; i < kConns; ++i) {
    const std::string first = v1[i]->recv();
    EXPECT_NE(first.find("\"status\":\"cancelled\""), std::string::npos)
        << "v1 conn " << i << ": " << first;
    EXPECT_EQ(parse_json(v1[i]->recv()).get_string("type", ""), "pong")
        << "v1 conn " << i;
  }
  for (int i = 0; i < kConns; ++i) {
    const Client::V2Response r = pipelined.recv_v2();
    EXPECT_TRUE(r.ok) << r.body;
    EXPECT_NE(r.body.find("\"status\":\"cancelled\""), std::string::npos)
        << r.body;
  }
}

TEST(RouterParkedWaitTest, IdleBudgetNeverReapsBackendChannels) {
  // The idle budget reaps silent client sessions. The router's own
  // channels to its backends stay silent for a whole wait round and must
  // never be reaped with them — each reap would fail the round and count
  // against the backend's breaker.
  ServerOptions sopts;
  sopts.workers = 1;
  RouterOptions ropts = test_router_options();
  ropts.idle_timeout_ms = 200;
  Fleet fleet(1, sopts, ropts);

  std::uint64_t id = 0;
  {
    Client c = fleet.connect();
    const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                      spin_job_json("idle-wait") + "]}");
    ASSERT_TRUE(sub.get_bool("ok", false));
    id = ids_of(sub)[0];
  }
  // The client keeps its own session alive with pings, queued behind
  // the parked wait; the wait itself stays parked for a full second.
  V1Conn waiter(fleet.router->port());
  waiter.send(wait_request(id, 30'000));
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(100ms);
    waiter.send("{\"op\":\"ping\"}");
  }
  {
    Client c = fleet.connect();
    ASSERT_TRUE(c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                          "}")
                    .get_bool("ok", false));
  }
  const std::string result = waiter.recv();
  EXPECT_NE(result.find("\"status\":\"cancelled\""), std::string::npos)
      << result;
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(parse_json(waiter.recv()).get_string("type", ""), "pong");
  EXPECT_EQ(fleet.router->backend_state(0), BreakerState::kClosed);
  EXPECT_EQ(fleet.router->health().counts(0).opened, 0u);
}

TEST(RouterIdempotencyTest, ConcurrentResendsParkBehindTheFirstAttempt) {
  // A resend of a keyed submit whose first attempt is still in flight
  // parks until that attempt resolves — holding no thread, so the
  // router keeps answering everyone else meanwhile.
  //
  // Backend 0 stalls: it listens but never accepts, so the first
  // attempt blocks on it until the listener closes and resets the
  // connection; the submit then lands on backend 1. Least-queued routing
  // with nothing outstanding tries backends in index order.
  const int stall_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(stall_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(stall_fd, 16), 0);
  socklen_t len = sizeof addr;
  ::getsockname(stall_fd, reinterpret_cast<sockaddr*>(&addr), &len);

  ServerOptions sopts;
  sopts.workers = 1;
  sopts.port = 0;
  Server backend(sopts);
  backend.start();
  RouterOptions ropts = test_router_options();
  ropts.affinity = false;
  ropts.backends = {BackendSpec{"127.0.0.1", ntohs(addr.sin_port)},
                    BackendSpec{"127.0.0.1", backend.port()}};
  Router router(ropts);
  router.start();
  auto connect = [&router] {
    Client c;
    c.connect("127.0.0.1", router.port(), 5000);
    return c;
  };

  const std::string submit =
      "{\"op\":\"submit\",\"key\":\"in-flight-key\",\"jobs\":[" +
      job_json(counting_kernel(100), "keyed") + "]}";
  json::Value first;
  std::thread first_thread([&] { first = connect().request(submit); });
  std::this_thread::sleep_for(100ms);  // the first attempt is stalled

  constexpr int kResends = 16;
  std::vector<json::Value> resent(kResends);
  std::vector<std::thread> resenders;
  for (int i = 0; i < kResends; ++i)
    resenders.emplace_back(
        [&, i] { resent[i] = connect().request(submit); });
  std::this_thread::sleep_for(100ms);  // every resend is parked

  Client c = connect();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(c.request("{\"op\":\"ping\"}").get_string("type", ""), "pong");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 50ms)
      << "parked keyed resends stalled an unrelated ping";

  std::this_thread::sleep_for(800ms);
  ::close(stall_fd);  // resets the stalled attempt: it moves on
  first_thread.join();
  for (auto& t : resenders) t.join();

  ASSERT_TRUE(first.get_bool("ok", false)) << json::serialize(first);
  EXPECT_FALSE(first.get_bool("duplicate", true));
  for (int i = 0; i < kResends; ++i) {
    ASSERT_TRUE(resent[i].get_bool("ok", false)) << json::serialize(resent[i]);
    EXPECT_TRUE(resent[i].get_bool("duplicate", false)) << "resend " << i;
    EXPECT_EQ(ids_of(resent[i]), ids_of(first)) << "resend " << i;
  }
  EXPECT_EQ(server_submitted(backend), 1u);
  router.stop();
  backend.stop();
}


// --- a hung backend stalls no other client -----------------------------

/// A bare listening socket on an ephemeral port: connections complete in
/// the kernel's backlog, and nothing ever reads or answers them.
class HungBackend {
 public:
  HungBackend() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 64), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~HungBackend() { ::close(fd_); }
  HungBackend(const HungBackend&) = delete;
  HungBackend& operator=(const HungBackend&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// The next response on `conn` within `timeout_ms`, or nullopt.
std::optional<std::string> recv_within(V1Conn& conn, std::uint64_t timeout_ms) {
  try {
    return conn.recv(timeout_ms);
  } catch (const ServeError&) {
    return std::nullopt;
  }
}

TEST(RouterHungBackendTest, AHungBackendStallsNoOtherClient) {
  // Backend 0 accepts connections and never reads them; backend 1 is a
  // real masc-served. Every backend op is a round with a deadline on a
  // loop's channel, so 64 submits stuck on backend 0 hold no thread:
  // pings, backend 1's submits and stats answer meanwhile, and the stuck
  // submits move to backend 1 once their rounds time out.
  ServerOptions sopts;
  sopts.workers = 2;
  sopts.port = 0;
  Server backend(sopts);
  backend.start();
  // Declared before the hung listener, so the listener closes first even
  // when an assertion ends the test early: a router that parks threads
  // on the hung backend could not stop while they wait.
  std::unique_ptr<Router> router;
  HungBackend hung;
  RouterOptions ropts = test_router_options();
  ropts.backends = {BackendSpec{"127.0.0.1", hung.port()},
                    BackendSpec{"127.0.0.1", backend.port()}};
  router = std::make_unique<Router>(ropts);
  router->start();

  constexpr std::size_t kStuck = 64;
  std::vector<unsigned> stuck;  // loop bounds of the jobs backend 0 owns
  std::string healthy_job;
  unsigned healthy_n = 0;
  for (unsigned n = 2000; n < 4000; ++n) {
    const std::string job = job_json(counting_kernel(n), "h");
    if (route_owner(ropts.backends, {job}) == 0) {
      if (stuck.size() < kStuck) stuck.push_back(n);
    } else if (healthy_job.empty()) {
      healthy_job = job;
      healthy_n = n;
    }
    if (stuck.size() == kStuck && !healthy_job.empty()) break;
  }
  ASSERT_EQ(stuck.size(), kStuck);
  ASSERT_FALSE(healthy_job.empty());

  V1Conn flood(router->port());
  for (const unsigned n : stuck)
    flood.send("{\"op\":\"submit\",\"jobs\":[" +
               job_json(counting_kernel(n), "h") + "]}");
  std::this_thread::sleep_for(100ms);  // every submit is stuck on backend 0

  V1Conn probe(router->port());
  auto t0 = std::chrono::steady_clock::now();
  probe.send("{\"op\":\"ping\"}");
  const std::optional<std::string> pong = recv_within(probe, 5'000);
  ASSERT_TRUE(pong) << "ping was never answered";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 50ms);

  t0 = std::chrono::steady_clock::now();
  probe.send("{\"op\":\"submit\",\"jobs\":[" + healthy_job + "]}");
  const std::optional<std::string> hsub = recv_within(probe, 5'000);
  ASSERT_TRUE(hsub) << "the submit owned by backend 1 was never answered";
  const json::Value hsub_v = parse_json(*hsub);
  ASSERT_TRUE(hsub_v.get_bool("ok", false)) << *hsub;
  probe.send(wait_request(ids_of(hsub_v)[0], 5'000));
  const std::optional<std::string> hres = recv_within(probe, 5'000);
  ASSERT_TRUE(hres) << "the result owned by backend 1 was never answered";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(result_stats(*hres), serial_stats_json(counting_kernel(healthy_n)));

  // Stats waits at most one round deadline (2 s) for backend 0.
  t0 = std::chrono::steady_clock::now();
  probe.send("{\"op\":\"stats\"}");
  const std::optional<std::string> stats = recv_within(probe, 10'000);
  ASSERT_TRUE(stats) << "stats was never answered";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 3s);
  const json::Value stats_v = parse_json(*stats);
  const json::Value& b0 =
      stats_v.find("stats")->find("backends")->as_array()[0];
  EXPECT_FALSE(b0.get_bool("up", true)) << *stats;

  // Every stuck submit ends ok on backend 1, its result bit-identical.
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kStuck; ++i) {
    const std::optional<std::string> sub = recv_within(flood, 10'000);
    ASSERT_TRUE(sub) << "stuck submit " << i << " was never answered";
    const json::Value sub_v = parse_json(*sub);
    ASSERT_TRUE(sub_v.get_bool("ok", false)) << "stuck submit " << i << ": "
                                             << *sub;
    ids.push_back(ids_of(sub_v)[0]);
  }
  for (const std::uint64_t id : ids) flood.send(wait_request(id, 10'000));
  for (std::size_t i = 0; i < kStuck; ++i) {
    const std::optional<std::string> res = recv_within(flood, 15'000);
    ASSERT_TRUE(res) << "stuck result " << i << " was never answered";
    EXPECT_EQ(result_stats(*res), serial_stats_json(counting_kernel(stuck[i])))
        << "stuck job " << i;
  }
  EXPECT_EQ(server_submitted(backend), kStuck + 1);
}

// --- the router forwards bytes (docs/CLUSTER.md "Cache-affinity routing")

/// A listening socket that accepts one connection and answers the first
/// v2 request on it with `answer`, keeping the request's body.
class FakeBackend {
 public:
  explicit FakeBackend(std::string answer) : answer_(std::move(answer)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string payload;
      if (serve::read_frame(conn, payload, 10'000, 10'000)) {
        const serve::v2::Frame f = serve::v2::decode(payload);
        request_ = std::string(f.body);
        serve::write_frame(conn, serve::v2::encode(f.op, serve::v2::Kind::kOk,
                                                   f.request_id, answer_));
      }
      ::close(conn);
    });
  }
  ~FakeBackend() {
    ::shutdown(fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
  }
  FakeBackend(const FakeBackend&) = delete;
  FakeBackend& operator=(const FakeBackend&) = delete;

  std::uint16_t port() const { return port_; }
  /// The request body the router sent, once the backend has hung up.
  const std::string& request() {
    if (thread_.joinable()) thread_.join();
    return request_;
  }

 private:
  std::string answer_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::string request_;
};

TEST(RouterProxyTest, ForwardsTheClientsJobTextVerbatim) {
  FakeBackend backend(
      "{\"ok\":true,\"type\":\"submitted\",\"ids\":[7,8],"
      "\"duplicate\":false}");
  RouterOptions ropts = test_router_options();
  ropts.backends = {BackendSpec{"127.0.0.1", backend.port()}};
  ropts.default_batch_lanes = 4;
  Router router(ropts);
  router.start();

  // Odd whitespace, members in an unusual order, an escape a re-render
  // would spell differently, and a job that sets its own batch_lanes.
  const std::string jobs =
      "[ {\"label\" : \"odd\\u0041\",\n\t\"program\":{ \"source\":\"halt\\n\" },"
      "\"config\":{\"width\":16, \"pes\":8}}  ,\r\n"
      "{\"batch_lanes\":1,\"program\":{\"source\":\"halt\\n\"},\"seed\":3} ]";
  Client c;
  c.connect("127.0.0.1", router.port(), 5000);
  const json::Value sub = c.request(
      "{ \"jobs\" : " + jobs + " , \"op\":\"submit\",\"deadline\\u005fms\":900}");
  ASSERT_TRUE(sub.get_bool("ok", false)) << json::serialize(sub);
  EXPECT_EQ(ids_of(sub).size(), 2u);
  router.stop();

  // The backend got the client's jobs byte for byte, and the fleet's
  // lane width once, beside them. The deadline's key was spelled with an
  // escape, which the router decodes as a backend would.
  const std::string& req = backend.request();
  EXPECT_EQ(json::member_text(req, "jobs"), jobs) << req;
  EXPECT_EQ(json::member_text(req, "batch_lanes"), "4") << req;
  EXPECT_EQ(json::member_text(req, "deadline_ms"), "900") << req;
  EXPECT_EQ(json::member_text(req, "op"), "\"submit\"") << req;
}

TEST(RouterProxyTest, RelaysTheBackendsRefusalOfAJobThatDoesNotAssemble) {
  ServerOptions sopts;
  sopts.workers = 1;
  RouterOptions ropts = test_router_options();
  ropts.breaker.failure_threshold = 2;
  Fleet fleet(1, sopts, ropts);
  Client c = fleet.connect();
  Client direct;
  direct.connect("127.0.0.1", fleet.servers[0]->port(), 5000);

  // The router does not decode jobs: the backend refuses this one, and
  // the client gets that refusal byte for byte — an answer, so the
  // breaker stays closed however often it comes.
  const std::string bad =
      "{\"op\":\"submit\",\"jobs\":[" + job_json("frob r1, r2\n", "bad") + "]}";
  const std::string want = direct.request_raw(bad);
  EXPECT_NE(want.find("\"error\":\"bad_request\""), std::string::npos) << want;
  for (unsigned i = 0; i <= ropts.breaker.failure_threshold; ++i)
    EXPECT_EQ(c.request_raw(bad), want) << "attempt " << i;
  EXPECT_EQ(fleet.router->backend_state(0), BreakerState::kClosed);

  const json::Value stats = router_stats(c);
  EXPECT_EQ(router_counter(stats, "submits_routed"), 0u);
  EXPECT_EQ(router_counter(stats, "submits_rejected"), 0u);
  const json::Value good = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                     job_json(counting_kernel(5), "good") +
                                     "]}");
  ASSERT_TRUE(good.get_bool("ok", false)) << json::serialize(good);
  EXPECT_EQ(result_stats(await_result_raw(c, ids_of(good)[0])),
            serial_stats_json(counting_kernel(5)));
}

TEST(RouterProxyTest, ReadsRequestMembersWhoseKeysAreEscaped) {
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(1, sopts, test_router_options());
  Client c = fleet.connect();

  // A member key spelled with escapes is the key it decodes to, as at a
  // backend: the escaped "jobs" are the jobs, and the escaped "key" keeps
  // the submit idempotent, in either spelling.
  const std::string jobs = "[" + job_json(counting_kernel(5), "esc") + "]";
  const std::string escaped = "{\"op\":\"submit\",\"k\\u0065y\":\"esc\","
                              "\"j\\u006fbs\":" + jobs + "}";
  const json::Value first = c.request(escaped);
  ASSERT_TRUE(first.get_bool("ok", false)) << json::serialize(first);
  EXPECT_FALSE(first.get_bool("duplicate", true));
  for (const std::string& again :
       {escaped, "{\"op\":\"submit\",\"key\":\"esc\",\"jobs\":" + jobs + "}"}) {
    const json::Value repeat = c.request(again);
    ASSERT_TRUE(repeat.get_bool("ok", false)) << again;
    EXPECT_TRUE(repeat.get_bool("duplicate", false)) << again;
    EXPECT_EQ(ids_of(repeat), ids_of(first)) << again;
  }
  EXPECT_EQ(result_stats(await_result_raw(c, ids_of(first)[0])),
            serial_stats_json(counting_kernel(5)));
  EXPECT_EQ(router_counter(router_stats(c), "submits_routed"), 1u);
}

TEST(RouterRouteKeyTest, HashesWhatTheCacheKeyCoversAsWritten) {
  // The router never decodes a job it forwards, yet jobs the result
  // cache keys alike should share an owner. The route key reads the
  // members the cache key covers, by name, from the text: whitespace,
  // member order, the label, the seed, batch_lanes and unknown members
  // do not move a job.
  const auto key = [](const std::string& job) {
    return cluster::route_key({job});
  };
  const auto cache_key = [](const std::string& job) {
    return sweep_cache_key(serve::job_from_json(parse_json(job)));
  };
  const std::string source = "\"source\":\"halt\\n\"";
  const std::string job =
      "{\"config\":{\"pes\":8,\"threads\":4,\"width\":16},"
      "\"program\":{" + source + "},\"label\":\"a\"}";
  const std::string same =
      "{ \"label\":\"b\",\"seed\":7, \"batch_lanes\":1,\n"
      "\"program\" : {" + source + "} ,\"config\":{\"width\":16,"
      "\"sim_threads\":4,\"threads\":4, \"pes\" : 8}}";
  EXPECT_EQ(key(same), key(job));
  EXPECT_EQ(cache_key(same), cache_key(job));
  // What the cache key covers moves the job.
  for (const std::string& other : {
           "{\"config\":{\"pes\":16,\"threads\":4,\"width\":16},"
           "\"program\":{" + source + "}}",
           std::string("{\"config\":{\"pes\":8,\"threads\":4,\"width\":16},"
                       "\"program\":{\"source\":\"li r1, 1\\nhalt\\n\"}}"),
           "{\"config\":{\"pes\":8,\"threads\":4,\"width\":16},"
           "\"program\":{" + source + "},\"max_cycles\":99}"}) {
    EXPECT_NE(key(other), key(job)) << other;
    EXPECT_NE(cache_key(other), cache_key(job)) << other;
  }
  // A value is hashed as written: the same source spelled with an
  // escape is another route key, though the cache keys it alike.
  const std::string spelled =
      "{\"config\":{\"pes\":8,\"threads\":4,\"width\":16},"
      "\"program\":{\"source\":\"h\\u0061lt\\n\"}}";
  EXPECT_NE(key(spelled), key(job));
  EXPECT_EQ(cache_key(spelled), cache_key(job));
  // Each job counts: two of it are not one.
  EXPECT_NE(cluster::route_key({job, job}), key(job));
}

TEST(RouterMetricsTest, BackendStatsAreTheBackendsOwnBytes) {
  ServerOptions sopts;
  sopts.workers = 1;
  Fleet fleet(2, sopts, test_router_options());
  Client c = fleet.connect();
  for (const unsigned n : {100u, 200u, 300u}) {
    const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                      job_json(counting_kernel(n), "own") +
                                      "]}");
    ASSERT_TRUE(sub.get_bool("ok", false));
    await_result_raw(c, ids_of(sub)[0]);
  }

  // The roll-call splices each backend's stats document: its doubles
  // read exactly as the backend printed them, never re-rendered.
  const std::string raw = c.request_raw("{\"op\":\"stats\"}");
  const std::vector<std::string_view> backends = json::array_elements(
      json::member_text(json::member_text(raw, "stats"), "backends"));
  ASSERT_EQ(backends.size(), fleet.servers.size()) << raw;
  bool ran = false;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const std::string own = fleet.servers[i]->stats_json();
    const std::string_view routed = json::member_text(backends[i], "stats");
    EXPECT_EQ(json::member_text(routed, "host_seconds"),
              json::member_text(own, "host_seconds"))
        << "backend " << i;
    EXPECT_EQ(json::member_text(routed, "aggregate"),
              json::member_text(own, "aggregate"))
        << "backend " << i;
    ran = ran || json::member_text(own, "host_seconds") != "0";
  }
  EXPECT_TRUE(ran) << raw;
}

// --- backends named by host ----------------------------------------------

TEST(RouterResolveTest, BackendsNamedByHostSubmitAndFetch) {
  // Names are resolved once, when the router is built; every channel
  // connect after that uses the stored address.
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.port = 0;
  Server backend(sopts);
  backend.start();
  RouterOptions ropts = test_router_options();
  ropts.backends = {
      BackendSpec::parse("localhost:" + std::to_string(backend.port()))};
  Router router(ropts);
  router.start();
  Client c;
  c.connect("127.0.0.1", router.port(), 5000);
  const json::Value sub = c.request("{\"op\":\"submit\",\"jobs\":[" +
                                    job_json(counting_kernel(100), "named") +
                                    "]}");
  ASSERT_TRUE(sub.get_bool("ok", false)) << json::serialize(sub);
  EXPECT_EQ(result_stats(await_result_raw(c, ids_of(sub)[0])),
            serial_stats_json(counting_kernel(100)));
  router.stop();
  backend.stop();
}

TEST(RouterResolveTest, AnUnresolvableBackendFailsConstruction) {
  // A 64-character label is not a valid DNS name, so the lookup fails
  // without leaving the host.
  RouterOptions ropts = test_router_options();
  ropts.backends = {BackendSpec{std::string(64, 'x') + ".invalid", 7734}};
  EXPECT_THROW(Router router(ropts), ServeError);
}

}  // namespace
}  // namespace masc
