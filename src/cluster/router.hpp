// masc-routerd core: a cluster router fronting N masc-served backends.
//
// The router speaks the masc-served wire protocol on both faces: to
// clients it *is* a masc-served (same ops, same framing, so masc-client
// points at it unchanged); to backends it is a pooled client. Three
// responsibilities (docs/CLUSTER.md):
//
//  1. Cache-affinity routing. A submit's jobs are decoded and hashed
//     with the same canonical content hash the result cache uses
//     (sweep_cache_key), and the combined key picks the owning backend
//     on a rendezvous ring — identical work always lands where its
//     cached result already lives. Fleets without caches can route by
//     least-outstanding instead.
//  2. Health-checked failover. Per-backend circuit breakers (fed by
//     both live traffic and a background ping prober) stop the router
//     from burning timeouts on a dead backend; the moment a breaker
//     opens, every unfinished job mapped to that backend is resubmitted
//     to a survivor under the same idempotency key, so replays are
//     exactly-once from the client's view and results stay bit-identical
//     (every simulation is a pure function of its inputs).
//  3. Fleet-wide observability. {"op":"stats"} aggregates every
//     backend's stats plus router counters (routed, rerouted, breaker
//     transitions, ring moves); {"op":"metrics_text"} is the Prometheus
//     rendering. Backpressure is propagated honestly: a submit is
//     diverted around a saturated owner, and only when the whole fleet
//     is full does the client see queue_full with the earliest
//     retry_after_ms hint any backend offered.
//
// The invariant the whole layer preserves: every result returned
// through the router is bit-identical to a serial run of the same job,
// no matter which backend ran it, how many died, or how often the job
// was rerouted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/ring.hpp"
#include "net/event_loop.hpp"
#include "net/task_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/protocol_v2.hpp"

namespace masc::cluster {

struct BackendSpec {
  std::string host;
  std::uint16_t port = 0;

  std::string name() const { return host + ":" + std::to_string(port); }
  /// Parse "host:port" (host defaults to 127.0.0.1 for a bare port).
  static BackendSpec parse(const std::string& s);
};

struct RouterOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (Router::port()).
  std::uint16_t port = 0;
  std::vector<BackendSpec> backends;
  /// true: rendezvous-hash submits by content (cache affinity);
  /// false: send each submit to the alive backend with the fewest
  /// router-tracked outstanding jobs (for cache-disabled fleets).
  bool affinity = true;
  BreakerPolicy breaker;
  /// Background health-ping period; 0 disables the prober (breakers
  /// then learn only from live traffic — unit-test mode).
  std::uint64_t probe_interval_ms = 200;
  /// TCP connect budget per backend connection.
  std::uint64_t connect_timeout_ms = 2'000;
  /// Per-frame I/O budget on backend connections; 0 = none.
  std::uint64_t io_timeout_ms = 0;
  /// Reap client sessions idle this long, ms; 0 = never.
  std::uint64_t idle_timeout_ms = 0;
  /// When > 1, inject top-level "batch_lanes": N into each submitted
  /// job that does not set its own, so a whole fleet can be switched to
  /// SIMD-over-jobs lane batching at the router (docs/PERF.md "Lane
  /// batching"). A host knob excluded from result-cache keys, so
  /// affinity and cache hits are unaffected.
  std::uint32_t default_batch_lanes = 1;
  /// Tier-3 peer cache read-through (docs/CACHE.md). When a submit is
  /// diverted off its ring owner (saturation/drain) or a group is
  /// re-placed by failover, ask a peer's result cache via "cache_get"
  /// before re-simulating; all-hit groups are served straight from the
  /// router. Strictly an optimization: any miss, timeout, or decode
  /// failure falls back to a normal submission. Affinity mode only.
  bool peer_read_through = true;
  /// Whole-connection budget (connect and per-frame I/O) for one peer
  /// cache round. Tight by design: a slow peer must cost less than the
  /// simulation it might save.
  std::uint64_t peer_timeout_ms = 250;
  /// Event-loop threads multiplexing client sessions (docs/NET.md);
  /// 0 = 1. Loops only parse frames and write responses — request
  /// handling (which blocks on backend round-trips) runs on the
  /// handler pool below.
  unsigned io_threads = 2;
  /// Handler-pool threads executing requests against backends; bounds
  /// how many client requests (notably blocking result-waits) are in
  /// flight at once. 0 = 4.
  unsigned handler_threads = 8;
};

class Router {
 public:
  explicit Router(RouterOptions opts);
  ~Router();  ///< calls stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind, listen, spawn the accept thread and the health prober.
  /// Throws ServeError if the port cannot be bound.
  void start();
  /// Refuse new connections, hang up sessions, join all threads.
  /// Backends are left running — the router owns no backend lifecycle.
  void stop();

  std::uint16_t port() const { return port_; }

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// The same JSON served to {"op":"stats"} (for embedding/tests).
  std::string stats_json();
  /// Prometheus text exposition of the router counters.
  std::string metrics_text();

  /// Direct breaker views for tests/embedding.
  BreakerState backend_state(std::size_t i) const {
    return health_.state(i);
  }
  HealthMonitor& health() { return health_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// One client submit, forwarded whole to one backend (admission is
  /// all-or-nothing on the backend, so a group never splits).
  struct SubmitGroup {
    std::string jobs_json;        ///< serialized "jobs" array, for resubmits
    std::uint64_t deadline_ms = 0;
    std::string fleet_key;        ///< idempotency key used toward backends
    std::string client_key;       ///< router-level key ("" for keyless)
    Hash128 route_key;            ///< combined content hash of the jobs
    /// Per-job cache keys (parallel to router_ids), kept so a failover
    /// re-placement can try a peer cache before resubmitting.
    std::vector<Hash128> job_keys;
    std::vector<std::uint64_t> router_ids;
    std::size_t backend = npos;   ///< current owner (index into backends)
    std::vector<std::uint64_t> backend_ids;  ///< parallel to router_ids
    std::size_t unreleased = 0;   ///< jobs not yet fetched-and-released
  };

  struct JobEntry {
    std::size_t group = 0;  ///< index into groups_
    std::size_t pos = 0;    ///< position within the group
    /// Serialized result object, cached on first successful fetch; a
    /// job with a cached result is done and never resubmitted.
    std::string result_json;
  };

  /// Client-key idempotency at the router: a resent keyed submit gets
  /// the original ROUTER ids back, even while the first attempt is
  /// still in flight (waiters block on jobs_cv_).
  struct KeyedSubmit {
    std::vector<std::uint64_t> ids;
    bool ready = false;
  };

  /// Per-connection protocol state, attached to net::Conn::ctx — same
  /// contract as the server's: v1 responses leave strictly in request
  /// order (slots), v2 responses as they complete, matched by id.
  struct ConnState {
    std::deque<std::pair<std::uint64_t, std::optional<std::string>>> v1_q;
    std::uint64_t next_slot = 1;
  };

  /// How one in-flight request's response must be delivered.
  struct Pending {
    bool v2 = false;
    std::uint32_t v2_id = 0;         ///< v2: request id to echo
    serve::v2::Op v2_op = serve::v2::Op::kSubmit;
    std::uint64_t v1_slot = 0;       ///< v1: ordered-response slot
  };

  void accept_loop();

  // Event-loop entry points (loop thread).
  void on_frame(net::Conn& c, std::string&& payload);
  void handle_v2_frame(net::Conn& c, const std::string& payload);
  static ConnState& conn_state(net::Conn& c);
  /// Fill `slot` and flush every in-order response now available.
  void send_v1(net::Conn& c, std::uint64_t slot, std::string&& resp);
  /// Run `payload` on the handler pool; post the response back to the
  /// connection's loop for delivery per `p`.
  void dispatch(net::Conn& c, Pending p, std::string&& payload,
                const char* forced_op);

  std::string handle_request(const std::string& payload,
                             const char* forced_op = nullptr);

  std::string handle_submit(const json::Value& req);
  std::string handle_status(const json::Value& req);
  std::string handle_result(const json::Value& req);
  std::string handle_cache_get(const json::Value& req);
  std::string handle_forwarded_by_id(const json::Value& req,
                                     const std::string& op);

  /// One request/response round-trip to backend `b` through the pool,
  /// gated by its breaker and observed by it. Throws ServeError when
  /// the breaker refuses or the transport fails (after reporting the
  /// failure). This is the fault-injection hook site for
  /// FaultPlan::backend_fail. When `hot` names a protocol-v2 op, the
  /// connection is hello-negotiated once and the request rides a v2
  /// frame against a v2-capable backend (same JSON in, same JSON out).
  /// `raw`, when given, receives the response exactly as the backend
  /// sent it (for forwarding its bytes verbatim).
  json::Value backend_request(std::size_t b, const std::string& payload,
                              std::optional<serve::v2::Op> hot = std::nullopt,
                              std::string* raw = nullptr);

  /// Candidate backends for (re)placing `key`, best first: ring order
  /// under affinity, ascending outstanding-jobs otherwise; only alive
  /// (non-open) backends, optionally excluding one.
  std::vector<std::size_t> placement(const Hash128& key,
                                     std::size_t exclude = npos);

  /// Resubmit every unfinished group mapped to `dead` onto survivors.
  /// Serialized internally; safe to call from any thread.
  void fail_over(std::size_t dead);
  /// Resubmit one group (e.g. its backend forgot it after an
  /// unjournaled restart). `allow_current` keeps the current backend as
  /// a candidate. Returns true when the group is replaced somewhere.
  bool reroute_group(std::size_t group_idx, bool allow_current);
  /// Shared core of fail_over/reroute_group: push `group` at the first
  /// candidate that accepts it. Caller must NOT hold state_mu_.
  bool place_group(std::size_t group_idx, std::size_t exclude);

  /// Fetch every key from backend `b`'s result cache over one fresh
  /// short-deadline connection (the prober pattern — never the pool,
  /// never the breaker: an optimization must not poison the request
  /// path). Returns the decoded payload blobs, parallel to `keys`,
  /// only when EVERY key was found; nullopt on any miss or failure.
  std::optional<std::vector<std::string>> peer_cache_fetch(
      std::size_t b, const std::vector<Hash128>& keys);

  /// Router-tracked unfinished jobs per backend (for least-queued).
  std::vector<std::size_t> outstanding_by_backend();

  /// Erase a released job and, when it was its group's last unreleased
  /// one, reclaim the whole group record (jobs payload, id maps, client
  /// key) so a long-lived router does not grow with total submits.
  /// Caller holds state_mu_.
  void release_job_locked(
      std::unordered_map<std::uint64_t, JobEntry>::iterator it);

  /// Best-effort cancel of backend-side jobs the router refuses to
  /// track (e.g. an id-count mismatch), bounding orphaned work.
  void cancel_backend_ids(std::size_t b,
                          const std::vector<std::uint64_t>& ids);

  void on_breaker_transition(std::size_t i, BreakerState from,
                             BreakerState to);

  RouterOptions opts_;
  RendezvousRing ring_;
  HealthMonitor health_;
  serve::ClientPool pool_;

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  mutable std::mutex state_mu_;
  std::condition_variable jobs_cv_;  ///< keyed-submit waiters
  std::vector<std::unique_ptr<SubmitGroup>> groups_;
  std::unordered_map<std::uint64_t, JobEntry> jobs_;
  std::map<std::string, KeyedSubmit> by_client_key_;
  std::uint64_t next_router_id_ = 1;
  std::uint64_t key_prefix_ = 0;  ///< randomizes generated fleet keys
  std::uint64_t fleet_seq_ = 1;   ///< reserves generated fleet keys

  /// Serializes fail_over/reroute storms. Recursive because placing a
  /// group on a survivor can open THAT survivor's breaker, whose
  /// transition callback re-enters fail_over on the same thread.
  std::recursive_mutex failover_mu_;

  // Router counters (state_mu_; transitions live in health_).
  std::uint64_t submits_routed_ = 0;   ///< submits forwarded successfully
  std::uint64_t jobs_routed_ = 0;      ///< jobs in those submits
  std::uint64_t jobs_rerouted_ = 0;    ///< jobs re-landed by failover or
                                       ///< diverted around saturation
  std::uint64_t submits_rejected_ = 0; ///< fleet-wide queue_full replies
  std::uint64_t results_served_ = 0;   ///< result responses to clients
  std::uint64_t ring_moves_ = 0;       ///< full deaths + full recoveries
                                       ///< (closed ↔ not-closed)
  // Peer cache read-through (docs/CACHE.md tier L3).
  std::uint64_t peer_lookups_ = 0;     ///< fetch rounds attempted
  std::uint64_t peer_hits_ = 0;        ///< groups served whole from a peer
  std::uint64_t peer_jobs_served_ = 0; ///< jobs answered without simulating
  std::uint64_t peer_misses_ = 0;      ///< rounds abandoned on a missing key
  std::uint64_t peer_errors_ = 0;      ///< rounds abandoned on transport or
                                       ///< decode failure

  /// `io_threads` epoll loops; every client session lives on exactly
  /// one. Blocking work never runs on a loop — it runs on handlers_.
  std::unique_ptr<net::LoopGroup> loops_;
  std::unique_ptr<net::TaskPool> handlers_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace masc::cluster
