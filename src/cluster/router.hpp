// masc-routerd core: a cluster router fronting N masc-served backends.
//
// The router speaks the masc-served wire protocol on both faces: to
// clients it *is* a masc-served (the same serve::FrontEnd, so
// masc-client points at it unchanged); to backends it keeps one
// pipelined v2 channel per event loop, and every backend op is a round
// on the channel of the loop that owns the client's connection. No op
// holds a thread while a backend answers. Three responsibilities
// (docs/CLUSTER.md):
//
//  1. Cache-affinity routing. A submit's jobs are hashed on the text
//     their cache keys cover (route_key), and the key picks the owning
//     backend on a rendezvous ring — a repeated submit always lands
//     where its cached result already lives. The jobs are forwarded as
//     sent and the backend's answers spliced, not re-rendered: the
//     router decodes a job only to materialize a peer cache's answer.
//     Fleets without caches can route by least-outstanding instead.
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

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/ring.hpp"
#include "common/metrics.hpp"
#include "net/event_loop.hpp"
#include "serve/front_end.hpp"
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
  /// TCP connect budget of the health prober's connections.
  std::uint64_t connect_timeout_ms = 2'000;
  /// Reap client sessions idle this long, ms; 0 = never.
  std::uint64_t idle_timeout_ms = 0;
  /// When > 1, send "batch_lanes": N with every submit, which backends
  /// apply to each job that does not set its own, so a whole fleet can
  /// be switched to SIMD-over-jobs lane batching at the router
  /// (docs/PERF.md "Lane batching"). A host knob excluded from
  /// result-cache keys, so cache hits are unaffected.
  std::uint32_t default_batch_lanes = 1;
  /// Tier-3 peer cache read-through (docs/CACHE.md). When a submit is
  /// diverted off its ring owner (saturation/drain) or a group is
  /// re-placed by failover, ask a peer's result cache via "cache_get"
  /// before re-simulating; all-hit groups are served straight from the
  /// router. Strictly an optimization: any miss, timeout, or decode
  /// failure falls back to a normal submission. Affinity mode only.
  bool peer_read_through = true;
  /// Budget for one peer cache round. Tight by design: a slow peer must
  /// cost less than the simulation it might save.
  std::uint64_t peer_timeout_ms = 250;
  /// Event-loop threads multiplexing client sessions (docs/NET.md);
  /// 0 = 1. Each loop also owns one pipelined v2 channel per backend,
  /// on which every backend op of its sessions is forwarded.
  unsigned io_threads = 2;
};

/// The affinity key of a submit: FNV-128 over the text of what each
/// job's result-cache key covers — its config members by name, its
/// program and its max_cycles — read from the job as written, never
/// decoded, each text entering as its length and std::hash. Member
/// order, whitespace, and members the cache ignores do not move a job;
/// a value spelled differently may (docs/CLUSTER.md).
Hash128 route_key(const std::vector<std::string_view>& jobs);

class Router {
 public:
  /// Resolves every backend address once. Throws ServeError for an
  /// empty fleet or a backend host that does not resolve.
  explicit Router(RouterOptions opts);
  ~Router();  ///< calls stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind, listen, spawn the accept thread and the health prober.
  /// Throws ServeError if the port cannot be bound.
  void start();
  /// Refuse new connections, fail every round in flight (parked
  /// result-waits answer shutting_down), hang up sessions, join all
  /// threads. Backends are left running — the router owns no backend
  /// lifecycle.
  void stop();

  std::uint16_t port() const { return front_.port(); }

  bool shutdown_requested() const { return front_.shutdown_requested(); }

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
    /// The backend submit, under the fleet's idempotency key: every
    /// (re)placement sends these bytes.
    std::string payload;
    std::string client_key;       ///< router-level key ("" for keyless)
    Hash128 route_key;            ///< route_key() of the jobs
    std::vector<std::uint64_t> router_ids;
    std::size_t backend = npos;   ///< current owner (index into backends)
    std::vector<std::uint64_t> backend_ids;  ///< parallel to router_ids
    std::size_t unreleased = 0;   ///< jobs not yet fetched-and-released
    /// A placement is in flight (backend is npos meanwhile): nobody else
    /// may place the group until it lands or gives up.
    bool placing = false;
  };

  struct JobEntry {
    std::size_t group = 0;  ///< index into groups_
    std::size_t pos = 0;    ///< position within the group
    /// Result object (its "index" the router id), cached on first
    /// successful fetch; a job with a cached result is done and never
    /// resubmitted.
    std::string result_json;
  };

  /// Client-key idempotency at the router: a resent keyed submit gets
  /// the original ROUTER ids back. A resend that arrives while the first
  /// attempt is still in flight parks its reply here; the attempt's
  /// outcome answers every parked reply.
  struct KeyedSubmit {
    std::vector<std::uint64_t> ids;  ///< empty while the attempt is in flight
    std::vector<serve::Reply> parked;
  };

  /// One client `result` request, driven on the loop that owns the
  /// client's connection. Every field is touched only on that loop.
  struct ResultCall {
    serve::Reply reply;
    std::uint64_t rid = 0;
    bool wait = false;
    bool release = false;
    std::uint64_t deadline_ms = 0; ///< on net::EventLoop::now_ms()'s clock
    unsigned attempts = 0;
    std::size_t group = 0;         ///< the job's group, as last read
    /// Set when the router already holds the body: the round in flight
    /// is a best-effort backend release, and any outcome answers this.
    std::string cached;

    /// Answer with error `code`, naming this call's router id.
    void fail(const std::string& code, const std::string& detail,
              const std::string& extra = "") const {
      reply.send(serve::error_json(
          code, detail, "\"id\":" + std::to_string(rid) + extra));
    }
  };
  using CallPtr = std::shared_ptr<ResultCall>;

  struct SubmitCall;
  struct PlaceCall;
  using SubmitPtr = std::shared_ptr<SubmitCall>;
  using PlacePtr = std::shared_ptr<PlaceCall>;

  /// A round's outcome, on the channel's loop: the backend's answer
  /// frame, or nullptr and why the round failed (breaker refusal, lost
  /// connection, deadline).
  using RoundDone =
      std::function<void(const serve::v2::Frame* answer,
                         const std::string& error)>;
  /// Peer read-through's outcome: one result body per job, or nullopt
  /// on any miss or failure.
  using PeerDone =
      std::function<void(std::optional<std::vector<std::string>> bodies,
                         std::vector<std::uint64_t> rids)>;

  struct Round {
    RoundDone done;
    net::TimerId timer = 0;
    /// Peer read-through: never feeds the breaker, and its deadline
    /// abandons the round instead of resetting the shared channel.
    bool peer = false;
  };

  /// One pipelined protocol-v2 connection from a router loop to a
  /// backend. Rounds are matched to their answers by v2 request id.
  struct Channel {
    std::uint64_t conn = 0;  ///< 0 = none open
    std::uint32_t next_tag = 1;
    std::unordered_map<std::uint32_t, Round> rounds;
  };

  /// The op table, on the loop thread (serve::FrontEnd::Handler).
  std::optional<std::string> handle_request(serve::Request&& req,
                                            const serve::Reply& reply);

  // --- rounds: loop thread only, never block --------------------------
  /// Send one v2 request to backend `b` on `loop`'s channel; `done`
  /// runs once, on the loop. A non-peer round is gated by admit() and
  /// observed by the breaker; if no answer comes within `deadline_ms`
  /// the channel is reset.
  void send_round(net::EventLoop& loop, std::size_t b, serve::v2::Op op,
                  std::string_view body, std::uint64_t deadline_ms,
                  RoundDone done, bool peer = false);
  void on_channel_frame(net::EventLoop& loop, std::size_t b,
                        std::uint64_t conn_id, const std::string& payload);
  /// Drop `loop`'s channel to `b`: every round on it fails, and each
  /// non-peer one counts against the breaker. From the channel's own
  /// close callback the failures are posted, since a failed round may
  /// open a new connection and the loop must not do that there.
  void reset_channel(net::EventLoop& loop, std::size_t b,
                     const std::string& what, bool from_close = false);

  /// Breaker gate plus the FaultPlan::backend_fail hook: the refusal
  /// reason, or nullopt when the round may go (it then owes the breaker
  /// one on_success/on_failure). An injected fault counts as a failure.
  std::optional<std::string> admit(std::size_t b);

  // --- ops -------------------------------------------------------------
  /// Key reservation and parking, then forward_submit.
  void handle_submit(std::string_view text, const serve::Reply& reply);
  /// Try the call's next candidate (or peer cache) for its group.
  void forward_submit(const SubmitPtr& call);
  /// Answer the submit, and publish its outcome to parked resends.
  void finish_submit(const SubmitPtr& call, const std::string& resp,
                     const std::vector<std::uint64_t>& ids);
  /// Register a placed (or peer-served) group, taking the call's group
  /// fields; returns its router ids.
  std::vector<std::uint64_t> add_group(SubmitCall& call,
                                       std::size_t backend,
                                       std::vector<std::uint64_t> backend_ids,
                                       std::vector<std::uint64_t> rids,
                                       std::vector<std::string> bodies);
  /// Walks the placement(key) candidates until one cache answers.
  void handle_cache_get(const Hash128& key, const serve::Reply& reply);
  /// status, cancel or extend, forwarded to the job's backend by its
  /// backend id (status answers from the router's copy when it has one).
  std::optional<std::string> forward_by_id(const json::Value& req,
                                           const std::string& op,
                                           const serve::Reply& reply);
  /// One kStats round per alive backend, joined into the stats document.
  void stats(net::EventLoop& loop,
             std::function<void(const std::string&)> done);
  /// Declare the router's counters and its per-backend roll-call into
  /// `r`. `answers[i]`/`errors[i]` are backend i's kStats answer text and
  /// round error, which only the JSON document embeds.
  void describe(metrics::Registry& r, const std::vector<std::string>& answers,
                const std::vector<std::string>& errors);

  // The result path.
  /// Re-read the job's mapping and answer, or forward one round.
  void result_round(const CallPtr& call);
  void on_result_answer(const CallPtr& call, std::size_t b,
                        const serve::v2::Frame& f);
  /// The round could not reach its backend: retry or give up.
  void round_failed(const CallPtr& call, const std::string& what);
  /// Run another round after `delay_ms`, re-placing the call's group
  /// first when `reroute`.
  void retry_after(const CallPtr& call, std::uint64_t delay_ms, bool reroute);

  /// Candidate backends for (re)placing `key`, best first: ring order
  /// under affinity, ascending outstanding-jobs otherwise; only alive
  /// (non-open) backends, optionally excluding one.
  std::vector<std::size_t> placement(const Hash128& key,
                                     std::size_t exclude = npos);

  // --- failover: on the loops --------------------------------------------
  /// Re-place every unfinished group mapped to `dead` (loop 0).
  void fail_over(std::size_t dead);
  /// Re-place one group (e.g. its backend forgot it after an
  /// unjournaled restart). `allow_current` keeps the current backend as
  /// a candidate.
  void reroute_group(net::EventLoop& loop, std::size_t group_idx,
                     bool allow_current);
  /// Claim group `group_idx` when it still sits on `from` and nobody is
  /// placing it, then land it on the first candidate (never `exclude`)
  /// that accepts it, trying a peer cache first.
  void place_group(net::EventLoop& loop, std::size_t group_idx,
                   std::size_t from, std::size_t exclude);
  void place_next(const PlacePtr& call);

  /// Tier-3 peer read-through (docs/CACHE.md): fetch every job's cache
  /// key from backend `b`'s result cache in pipelined kCacheGet rounds
  /// bounded by peer_timeout_ms. Never the breaker: an optimization must
  /// not poison the request path. Only when EVERY key was found and
  /// decodes: the result bodies for router ids `rids` (allocated here
  /// when empty), materialized from `jobs` as a backend does on its own
  /// cache hit.
  void peer_results(net::EventLoop& loop, std::size_t b,
                    std::shared_ptr<const std::vector<SweepJob>> jobs,
                    std::vector<std::uint64_t> rids, PeerDone done);

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
  void cancel_backend_ids(net::EventLoop& loop, std::size_t b,
                          const std::vector<std::uint64_t>& ids);

  void on_breaker_transition(std::size_t i, BreakerState from,
                             BreakerState to);

  RouterOptions opts_;
  /// Backend addresses, resolved once at construction.
  std::vector<sockaddr_in> addrs_;
  RendezvousRing ring_;
  HealthMonitor health_;

  mutable std::mutex state_mu_;
  std::vector<std::unique_ptr<SubmitGroup>> groups_;
  std::unordered_map<std::uint64_t, JobEntry> jobs_;
  std::map<std::string, KeyedSubmit> by_client_key_;
  std::uint64_t next_router_id_ = 1;
  std::uint64_t key_prefix_ = 0;  ///< randomizes generated fleet keys
  std::uint64_t fleet_seq_ = 1;   ///< reserves generated fleet keys

  /// Router counters (transitions live in health_).
  struct Counters {
    std::uint64_t submits_routed = 0;   ///< submits forwarded successfully
    std::uint64_t jobs_routed = 0;      ///< jobs in those submits
    std::uint64_t jobs_rerouted = 0;    ///< jobs re-landed by failover or
                                        ///< diverted around saturation
    std::uint64_t submits_rejected = 0; ///< fleet-wide queue_full replies
    std::uint64_t results_served = 0;   ///< result responses to clients
    std::uint64_t ring_moves = 0;       ///< full deaths + full recoveries
                                        ///< (closed ↔ not-closed)
    // Peer cache read-through (docs/CACHE.md tier L3).
    std::uint64_t peer_lookups = 0;     ///< fetch rounds attempted
    std::uint64_t peer_hits = 0;        ///< groups served whole from a peer
    std::uint64_t peer_jobs_served = 0; ///< jobs answered without simulating
    std::uint64_t peer_misses = 0;      ///< rounds abandoned on a missing key
    std::uint64_t peer_errors = 0;      ///< rounds abandoned on transport or
                                        ///< decode failure
    std::uint64_t jobs_tracked = 0;     ///< snapshot only
    std::uint64_t groups_live = 0;      ///< snapshot only
  };
  Counters counters_;  ///< guarded by state_mu_
  /// A consistent copy of counters_, with the snapshot-only fields set.
  Counters counters() const;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  /// Sessions on `io_threads` epoll loops; every op runs on its
  /// session's loop and never blocks it.
  serve::FrontEnd front_;
  /// Per loop, one channel per backend; each row is touched only by its
  /// own loop (the map itself is fixed at construction).
  std::map<net::EventLoop*, std::vector<Channel>> channels_;
};

}  // namespace masc::cluster
