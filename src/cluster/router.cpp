#include "cluster/router.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <random>
#include <sstream>

#include "common/base64.hpp"
#include "common/hash.hpp"
#include "fault/fault.hpp"
#include "serve/framing.hpp"
#include "sim/sweep.hpp"

namespace masc::cluster {

using serve::Client;
using serve::error_json;
using serve::PooledClient;
using serve::require_id;
using serve::ServeError;
using serve::submitted_json;
namespace v2 = serve::v2;

namespace {

using Clock = std::chrono::steady_clock;

/// A result round is forwarded with a wait of at most this long, so a
/// failover mid-wait is noticed between rounds.
constexpr std::uint64_t kRoundWaitMs = 2'000;
/// A backend that has not answered a round this long past its forwarded
/// wait is hung: its channel is dropped and the round retried.
constexpr std::uint64_t kRoundSlackMs = 2'000;

std::string id_member(std::uint64_t rid) {
  return "\"id\":" + std::to_string(rid);
}

std::string result_json(std::uint64_t rid, std::string_view body) {
  return "{\"ok\":true,\"type\":\"result\"," + id_member(rid) +
         ",\"result\":" + std::string(body) + "}";
}

/// Start a nonblocking connect to `be` for a loop-owned channel; -1 when
/// it failed outright. A host name is resolved here, on the loop thread,
/// so fleets should name backends by address.
int connect_async(const BackendSpec& be) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(be.host.c_str(), std::to_string(be.port).c_str(), &hints,
                    &res) != 0)
    return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) < 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) serve::set_nodelay(fd);
  return fd;
}

/// Rewrite the top-level "id" member of a backend response in place, so
/// the client only ever sees router ids.
void rewrite_id(json::Value& v, std::uint64_t id) {
  for (auto& [key, val] : v.object) {
    if (key != "id") continue;
    val = json::Value{};
    val.kind = json::Value::Kind::kNumber;
    val.number = static_cast<double>(id);
    val.integer = static_cast<std::int64_t>(id);
    val.is_integer = true;
    return;
  }
}

/// Decode one fetched peer-cache blob and render the result object the
/// client will see for router id `rid` — the same materialization a
/// backend performs on its own cache hit, so the simulation payload
/// (status, stats, fabric) is bit-identical to a local run. Empty on
/// decode failure.
std::string result_from_blob(const std::string& blob, const SweepJob& job,
                             std::uint64_t rid, double host_seconds) {
  CachedSweepRun run;
  if (!decode_cached_run(blob, run)) return {};
  const SweepResult r = materialize_cached(
      run, job, static_cast<std::size_t>(rid), host_seconds);
  return to_json(r, job.cfg);
}

/// The backend submit a group is (re)placed with: one fixed payload, so a
/// re-landed group is byte-identical to the original.
std::string submit_payload(const std::string& fleet_key,
                           std::uint64_t deadline_ms,
                           const std::string& jobs_json) {
  std::ostringstream ps;
  ps << "{\"op\":\"submit\",\"key\":\"" << json_escape(fleet_key) << "\"";
  if (deadline_ms > 0) ps << ",\"deadline_ms\":" << deadline_ms;
  ps << ",\"jobs\":" << jobs_json << "}";
  return ps.str();
}

std::vector<std::uint64_t> ids_from_response(const json::Value& resp) {
  const json::Value* ids_v = resp.find("ids");
  if (!ids_v || !ids_v->is_array())
    throw JsonError("backend submit response lacks \"ids\"");
  std::vector<std::uint64_t> ids;
  ids.reserve(ids_v->as_array().size());
  for (const auto& e : ids_v->as_array()) ids.push_back(e.as_uint());
  return ids;
}

}  // namespace

BackendSpec BackendSpec::parse(const std::string& s) {
  BackendSpec spec;
  const std::size_t colon = s.rfind(':');
  const std::string port_str =
      colon == std::string::npos ? s : s.substr(colon + 1);
  spec.host = colon == std::string::npos ? std::string("127.0.0.1")
                                         : s.substr(0, colon);
  if (spec.host.empty()) spec.host = "127.0.0.1";
  try {
    const unsigned long p = std::stoul(port_str);
    if (p == 0 || p > 65535) throw std::out_of_range("port");
    spec.port = static_cast<std::uint16_t>(p);
  } catch (const std::exception&) {
    throw ServeError("bad backend \"" + s + "\" (want host:port)");
  }
  return spec;
}

namespace {
std::vector<std::string> backend_names(const std::vector<BackendSpec>& bs) {
  std::vector<std::string> names;
  names.reserve(bs.size());
  for (const auto& b : bs) names.push_back(b.name());
  return names;
}
}  // namespace

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)),
      ring_(backend_names(opts_.backends)),
      health_(opts_.backends.size(), opts_.breaker),
      pool_(opts_.connect_timeout_ms, opts_.io_timeout_ms),
      // Client-face frames are never throttled (io timeout 0).
      front_(opts_.port, opts_.io_threads, opts_.idle_timeout_ms, 0,
             [this](serve::Request&& req, const serve::Reply& reply) {
               return handle_request(std::move(req), reply);
             }) {
  if (opts_.backends.empty()) throw ServeError("router needs >= 1 backend");
  for (std::size_t i = 0; i < front_.loops().size(); ++i)
    channels_[&front_.loops().at(i)].resize(opts_.backends.size());
  std::random_device rd;
  key_prefix_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  health_.set_on_transition(
      [this](std::size_t i, BreakerState from, BreakerState to) {
        on_breaker_transition(i, from, to);
      });
  health_.set_probe([this](std::size_t i) {
    // A probe is a fresh short-deadline connection, not a pooled one: a
    // hung backend must cost the prober one bounded round, never a
    // parked socket that a request path could inherit.
    try {
      const auto& be = opts_.backends[i];
      Client c;
      c.connect(be.host, be.port,
                opts_.connect_timeout_ms ? opts_.connect_timeout_ms : 1'000);
      c.set_io_timeout_ms(1'000);
      return c.request("{\"op\":\"ping\"}").get_bool("ok", false);
    } catch (const std::exception&) {
      return false;
    }
  });
}

Router::~Router() { stop(); }

void Router::start() {
  if (started_.exchange(true)) throw ServeError("router already started");
  handlers_.start();
  front_.start();
  if (opts_.probe_interval_ms > 0) health_.start(opts_.probe_interval_ms);
}

void Router::stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;
  health_.stop();
  front_.stop_accepting();
  // Pool tasks see stopping_ and finish fast; their responses (and the
  // outcome of any in-flight keyed submit, which answers its parked
  // resends) are posted to the loops, which are still running.
  handlers_.stop();
  // Answer every result round parked on a backend channel with
  // shutting_down, then stop the loops: the posted resets run before
  // each loop's teardown hangs up its sessions.
  for (auto& [loop, row] : channels_)
    loop->post([this, loop = loop] {
      for (std::size_t b = 0; b < opts_.backends.size(); ++b)
        reset_channel(*loop, b, "router stopping");
    });
  front_.stop();
}

std::optional<std::string> Router::handle_request(serve::Request&& req,
                                                  const serve::Reply& reply) {
  if (req.op == "result") {
    auto call = std::make_shared<ResultCall>();
    call->reply = reply;
    call->rid = require_id(req.body);
    call->wait = req.body.get_bool("wait", false);
    call->release = req.body.get_bool("release", false);
    call->deadline_ms =
        net::EventLoop::now_ms() + req.body.get_uint("timeout_ms", 60'000);
    result_round(call);
    return std::nullopt;
  }
  if (req.op == "metrics_text")
    return "{\"ok\":true,\"type\":\"metrics_text\",\"text\":\"" +
           json_escape(metrics_text()) + "\"}";
  // Every other op blocks on a backend round trip (stats on one per
  // backend), so it runs on the pool; the Reply posts the response back
  // to the connection's loop.
  handlers_.submit([this, req = std::move(req), reply] {
    reply.answer([&]() -> std::optional<std::string> {
      const std::string& op = req.op;
      if (op == "submit") return handle_submit(req.body, reply);
      if (op == "cache_get") return handle_cache_get(req.key, reply);
      if (op == "stats")
        return "{\"ok\":true,\"type\":\"stats\",\"stats\":" + stats_json() +
               "}";
      if (op == "status" || op == "cancel" || op == "extend")
        return forward_by_id(req.body, op);
      return error_json("unknown_op", "unrecognized \"op\" \"" + op + "\"");
    });
  });
  return std::nullopt;
}

std::optional<std::string> Router::admit(std::size_t b) {
  const BackendSpec& be = opts_.backends[b];
  if (!health_.allow(b)) return "breaker open for backend " + be.name();
  if (auto* inj = fault::active(); inj && inj->on_backend_request()) {
    health_.on_failure(b);
    return "injected fault: request to " + be.name() + " failed";
  }
  return std::nullopt;
}

json::Value Router::backend_request(std::size_t b, const std::string& payload,
                                    std::optional<v2::Op> hot) {
  const BackendSpec& be = opts_.backends[b];
  if (const auto refused = admit(b)) throw ServeError(*refused);
  try {
    PooledClient lease(pool_, be.host, be.port);
    json::Value resp;
    try {
      // Hot ops ride protocol v2 (backends speak it without a hello):
      // the same JSON in a binary envelope, answered bit-identically.
      resp = parse_json(hot ? lease->request_v2_raw(*hot, payload)
                            : lease->request_raw(payload));
    } catch (...) {
      lease.discard();
      throw;
    }
    health_.on_success(b);
    return resp;
  } catch (const ServeError&) {
    health_.on_failure(b);
    throw;
  } catch (const std::exception& e) {
    // e.g. JsonError: the backend answered garbage — that connection is
    // as dead as a reset, and the caller only understands ServeError.
    health_.on_failure(b);
    throw ServeError(e.what());
  }
}

std::optional<std::vector<std::string>> Router::peer_results(
    std::size_t b, const std::vector<Hash128>& keys,
    const std::vector<SweepJob>& jobs, std::vector<std::uint64_t>& rids) {
  // Like the health prober, a peer read is a fresh short-deadline
  // connection: a hung peer costs one bounded round, never a parked
  // pooled socket. It also bypasses the breaker on purpose — a failed
  // optimization must not generate failure events that could open a
  // breaker and trigger a real failover.
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.peer_lookups;
  }
  const auto t0 = Clock::now();
  bool miss = false;
  std::vector<std::string> blobs;
  try {
    const BackendSpec& be = opts_.backends[b];
    const std::uint64_t budget =
        opts_.peer_timeout_ms ? opts_.peer_timeout_ms : 250;
    Client c;
    c.connect(be.host, be.port, budget);
    c.set_io_timeout_ms(budget);
    blobs.reserve(keys.size());
    // Pipeline every binary cache_get before reading the first response
    // — the whole round costs one RTT and zero base64/JSON, which is
    // what keeps peer_timeout_ms honest for large groups (docs/NET.md
    // "Pipelining"). Backends speak v2 without a hello.
    std::vector<std::uint32_t> ids;
    ids.reserve(keys.size());
    for (const Hash128& k : keys)
      ids.push_back(c.send_v2(
          v2::Op::kCacheGet,
          std::string_view(v2::encode_cache_get_request(0, k))
              .substr(v2::kHeaderBytes)));
    std::map<std::uint32_t, Client::V2Response> got;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Client::V2Response r = c.recv_v2();
      got.emplace(r.request_id, std::move(r));
    }
    for (std::size_t i = 0; i < keys.size() && !miss; ++i) {
      const auto it = got.find(ids[i]);
      std::string rec;
      if (it == got.end() || !it->second.ok ||
          !v2::decode_cache_get_response(it->second.body, ids[i], &rec))
        miss = true;  // a single absent key abandons the whole round
      else
        blobs.push_back(std::move(rec));
    }
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.peer_errors;
    return std::nullopt;
  }
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (miss) {
      ++counters_.peer_misses;
      return std::nullopt;
    }
    while (rids.size() < jobs.size()) rids.push_back(next_router_id_++);
  }
  // Bill the round's wall time across the jobs, as a backend bills its
  // cache-lookup time to each admitted hit.
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count() /
                      static_cast<double>(jobs.size());
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bodies.push_back(result_from_blob(blobs[i], jobs[i], rids[i], secs));
    if (bodies.back().empty()) {
      // Fetched but undecodable (version skew, torn frame): count it and
      // simulate — a peer's garbage must never become our error.
      const std::lock_guard<std::mutex> lock(state_mu_);
      ++counters_.peer_errors;
      return std::nullopt;
    }
  }
  return bodies;
}

std::vector<std::size_t> Router::outstanding_by_backend() {
  std::vector<std::size_t> counts(opts_.backends.size(), 0);
  const std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& [rid, entry] : jobs_) {
    if (!entry.result_json.empty()) continue;
    const std::size_t b = groups_[entry.group]->backend;
    if (b != npos) ++counts[b];
  }
  return counts;
}

std::vector<std::size_t> Router::placement(const Hash128& key,
                                           std::size_t exclude) {
  std::vector<std::size_t> out;
  if (opts_.affinity) {
    for (const std::size_t i : ring_.ranked(key))
      if (i != exclude && health_.alive(i)) out.push_back(i);
  } else {
    const std::vector<std::size_t> counts = outstanding_by_backend();
    for (std::size_t i = 0; i < opts_.backends.size(); ++i)
      if (i != exclude && health_.alive(i)) out.push_back(i);
    std::stable_sort(out.begin(), out.end(),
                     [&](std::size_t a, std::size_t b) {
                       return counts[a] < counts[b];
                     });
  }
  // A half-open backend is routable but should not be first choice: its
  // breaker admits one probe at a time, so a submit aimed there would
  // usually bounce off allow(). Closed backends first, order preserved.
  std::stable_partition(out.begin(), out.end(), [&](std::size_t i) {
    return health_.state(i) == BreakerState::kClosed;
  });
  return out;
}

std::optional<std::string> Router::handle_submit(const json::Value& req,
                                                 const serve::Reply& reply) {
  const json::Value* jobs_v = req.find("jobs");
  if (!jobs_v || !jobs_v->is_array() || jobs_v->as_array().empty())
    throw JsonError("submit needs a non-empty \"jobs\" array");
  if (stopping_.load()) return error_json("shutting_down", "router stopping");
  const std::string client_key = req.get_string("key", "");

  // Router-level idempotency on the client's key: a repeat gets the
  // original router ids; a concurrent repeat parks its reply behind the
  // first attempt instead of double-submitting (or holding a thread).
  if (!client_key.empty()) {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = by_client_key_.find(client_key);
    if (it != by_client_key_.end()) {
      if (!it->second.ids.empty())
        return submitted_json(it->second.ids, true);
      it->second.parked.push_back(reply);
      return std::nullopt;
    }
    by_client_key_.emplace(client_key, KeyedSubmit{});  // reserve
  }
  std::vector<std::uint64_t> ids;
  std::string resp;
  try {
    resp = forward_submit(req, client_key, ids);
  } catch (const std::exception& e) {
    resp = error_json("bad_request", e.what());
  }
  if (client_key.empty()) return resp;

  // Publish the outcome: success keeps the key's ids for later resends,
  // failure frees the key. Either way every parked resend gets it now.
  std::vector<serve::Reply> parked;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = by_client_key_.find(client_key);
    if (it != by_client_key_.end()) {
      parked = std::move(it->second.parked);
      if (ids.empty())
        by_client_key_.erase(it);
      else
        it->second.ids = ids;
    }
  }
  const std::string dup = ids.empty() ? resp : submitted_json(ids, true);
  for (const serve::Reply& r : parked) r.send(dup);
  return resp;
}

std::string Router::forward_submit(const json::Value& req,
                                   const std::string& client_key,
                                   std::vector<std::uint64_t>& ids) {
  const json::Value* jobs_v = req.find("jobs");
  const std::uint64_t deadline_ms = req.get_uint("deadline_ms", 0);

  // Fleet-wide lane-batching default: inject top-level "batch_lanes"
  // into each job (docs/PERF.md "Lane batching") that doesn't set its
  // own, before validation/serialization so backends and failover
  // resubmits all see the same payload. Results and cache keys are
  // unaffected — the knob is excluded from sweep_cache_key — so affinity
  // routing still lands repeats on their cached backend.
  json::Value jobs_owned;
  if (opts_.default_batch_lanes > 1) {
    json::Value lanes;
    lanes.kind = json::Value::Kind::kNumber;
    lanes.number = static_cast<double>(opts_.default_batch_lanes);
    lanes.integer = static_cast<std::int64_t>(opts_.default_batch_lanes);
    lanes.is_integer = true;
    jobs_owned = *jobs_v;
    for (json::Value& elem : jobs_owned.array)
      if (elem.is_object() && elem.find("batch_lanes") == nullptr)
        elem.object.emplace_back("batch_lanes", lanes);
    jobs_v = &jobs_owned;
  }

  // Validate every job with the backend's own parser and fold the jobs'
  // content hashes (the exact keys the backend ResultCache will use)
  // into the route key. A submit that cannot parse is refused here —
  // identically to every backend — without spending network on it. The
  // parsed jobs and per-job keys are kept: peer read-through needs the
  // keys to ask a cache and the jobs to materialize its answers.
  Fnv128 key_hash;
  const std::size_t njobs = jobs_v->as_array().size();
  std::vector<SweepJob> parsed;
  std::vector<Hash128> job_keys;
  parsed.reserve(njobs);
  job_keys.reserve(njobs);
  for (const auto& elem : jobs_v->as_array()) {
    parsed.push_back(serve::job_from_json(elem));
    const Hash128 k = sweep_cache_key(parsed.back());
    key_hash.u64(k.hi).u64(k.lo);
    job_keys.push_back(k);
  }
  const Hash128 route_key = key_hash.digest();

  // Serialize the jobs array once: this exact payload is what failover
  // resubmits, so a re-landed group is byte-identical to the original.
  std::string jobs_json;
  std::string fleet_key;
  {
    std::ostringstream js;
    js << "[";
    for (std::size_t i = 0; i < njobs; ++i) {
      if (i) js << ",";
      js << json::serialize(jobs_v->as_array()[i]);
    }
    js << "]";
    jobs_json = js.str();
  }
  if (client_key.empty()) {
    // Reserve the key atomically: the sequence advances at generation
    // time, so two concurrent keyless submits can never mint the same
    // fleet key (the backend dedups purely on key — a collision would
    // hand one client the other's results).
    std::ostringstream ks;
    const std::lock_guard<std::mutex> lock(state_mu_);
    ks << "r:" << std::hex << key_prefix_ << ":" << std::dec << fleet_seq_++;
    fleet_key = ks.str();
  } else {
    // Derive the fleet key from the client's so the SAME key reaches
    // whichever backend ends up running the jobs — the client can even
    // bypass the router and still dedup against routed work.
    fleet_key = "c:" + client_key;
  }

  const std::string payload = submit_payload(fleet_key, deadline_ms, jobs_json);

  const std::vector<std::size_t> candidates = placement(route_key);
  bool saw_queue_full = false;
  bool peer_tried = false;
  std::uint64_t retry_hint = 0;
  std::string last_error = "no alive backend";
  for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
    const std::size_t b = candidates[rank];
    // Tier-3 peer read-through (docs/CACHE.md): rank > 0 means the ring
    // owner refused or failed and this submit is about to be simulated
    // on a non-owner — but a repeat diverted off its affinity home is
    // exactly the submit whose answer the owner's cache already holds.
    // One tight-deadline cache round against the owner before paying
    // for a simulation elsewhere; any miss/timeout/decode failure falls
    // through to the normal submission below, so this path can delay a
    // submit by at most peer_timeout_ms, never fail it.
    if (rank > 0 && !peer_tried && opts_.affinity && opts_.peer_read_through) {
      peer_tried = true;
      std::vector<std::uint64_t> rids;
      if (auto bodies = peer_results(candidates[0], job_keys, parsed, rids)) {
        auto group = std::make_unique<SubmitGroup>();
        group->jobs_json = std::move(jobs_json);
        group->deadline_ms = deadline_ms;
        group->fleet_key = std::move(fleet_key);
        group->client_key = client_key;
        group->route_key = route_key;
        group->job_keys = std::move(job_keys);
        group->backend = npos;  // fully served: never (re)submitted
        group->router_ids = rids;
        group->unreleased = njobs;
        {
          const std::lock_guard<std::mutex> lock(state_mu_);
          const std::size_t gidx = groups_.size();
          for (std::size_t i = 0; i < njobs; ++i)
            jobs_.emplace(rids[i], JobEntry{gidx, i, std::move((*bodies)[i])});
          groups_.push_back(std::move(group));
          ++counters_.submits_routed;
          counters_.jobs_routed += njobs;
          ++counters_.peer_hits;
          counters_.peer_jobs_served += njobs;
        }
        ids = rids;
        return submitted_json(rids, false);
      }
    }
    json::Value resp;
    try {
      resp = backend_request(b, payload, v2::Op::kSubmit);
    } catch (const ServeError& e) {
      last_error = e.what();
      continue;
    }
    if (!resp.get_bool("ok", false)) {
      const std::string err = resp.get_string("error", "");
      if (err == "queue_full" || err == "shutting_down") {
        // Saturation (or a draining backend): divert to the next
        // candidate; remember the earliest honest retry hint.
        if (err == "queue_full") {
          saw_queue_full = true;
          const std::uint64_t hint = resp.get_uint("retry_after_ms", 0);
          if (hint > 0 && (retry_hint == 0 || hint < retry_hint))
            retry_hint = hint;
        }
        last_error = err + " from " + opts_.backends[b].name();
        continue;
      }
      // Any other refusal (bad_request despite our parse, a cap
      // mismatch...) would be refused by every backend: forward it.
      return json::serialize(resp);
    }
    std::vector<std::uint64_t> backend_ids;
    try {
      backend_ids = ids_from_response(resp);
    } catch (const std::exception& e) {
      // ok:true without a usable "ids" array: treat it as a candidate
      // failure (as place_group does).
      last_error = "backend " + opts_.backends[b].name() + ": " + e.what();
      continue;
    }
    if (backend_ids.size() != njobs) {
      last_error = "backend " + opts_.backends[b].name() +
                   " returned " + std::to_string(backend_ids.size()) +
                   " ids for " + std::to_string(njobs) + " jobs";
      // A fresh acceptance we refuse to track would run as orphans:
      // cancel it best-effort. A duplicate reply maps to jobs some
      // earlier submit legitimately owns — leave those alone.
      if (!resp.get_bool("duplicate", false))
        cancel_backend_ids(b, backend_ids);
      continue;
    }
    auto group = std::make_unique<SubmitGroup>();
    group->jobs_json = std::move(jobs_json);
    group->deadline_ms = deadline_ms;
    group->fleet_key = std::move(fleet_key);
    group->client_key = client_key;
    group->route_key = route_key;
    group->job_keys = job_keys;  // kept for failover peer read-through
    group->backend = b;
    group->backend_ids = std::move(backend_ids);
    group->unreleased = njobs;
    std::vector<std::uint64_t> router_ids;
    router_ids.reserve(njobs);
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      const std::size_t gidx = groups_.size();
      for (std::size_t i = 0; i < njobs; ++i) {
        const std::uint64_t rid = next_router_id_++;
        jobs_.emplace(rid, JobEntry{gidx, i, {}});
        router_ids.push_back(rid);
      }
      group->router_ids = router_ids;
      groups_.push_back(std::move(group));
      ++counters_.submits_routed;
      counters_.jobs_routed += njobs;
      if (rank > 0) counters_.jobs_rerouted += njobs;  // diverted around saturation
    }
    ids = router_ids;
    return submitted_json(router_ids, false);
  }

  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.submits_rejected;
  }
  if (saw_queue_full) {
    if (retry_hint == 0) retry_hint = 100;
    return error_json("queue_full",
                      "every alive backend is saturated",
                      "\"retry_after_ms\":" + std::to_string(retry_hint));
  }
  return error_json("unavailable", last_error,
                    "\"retry_after_ms\":" +
                        std::to_string(opts_.breaker.open_cooldown_ms));
}

bool Router::place_group(std::size_t group_idx, std::size_t exclude) {
  std::string payload;
  std::string jobs_json;
  Hash128 key;
  std::vector<Hash128> job_keys;
  std::vector<std::uint64_t> router_ids;
  std::size_t pending = 0;
  std::size_t expected = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const SubmitGroup* g = groups_[group_idx].get();
    if (!g) return true;  // fully released and reclaimed: no move
    for (const std::uint64_t rid : g->router_ids) {
      const auto it = jobs_.find(rid);
      if (it != jobs_.end() && it->second.result_json.empty()) ++pending;
    }
    if (pending == 0) return true;  // fully served (or released): no move
    payload = submit_payload(g->fleet_key, g->deadline_ms, g->jobs_json);
    jobs_json = g->jobs_json;
    key = g->route_key;
    job_keys = g->job_keys;
    router_ids = g->router_ids;
    expected = g->router_ids.size();
  }
  // Tier-3 peer read-through on re-placement (docs/CACHE.md): a group
  // being re-landed may already be answered somewhere in the fleet —
  // notably when its owner crashed after finishing the work but before
  // the client fetched it, and restarted on a durable --cache-dir. One
  // bounded cache round against the best-placed survivor beats
  // re-simulating the whole group; any miss or failure proceeds to the
  // normal resubmission below.
  if (opts_.affinity && opts_.peer_read_through &&
      job_keys.size() == expected) {
    const std::vector<std::size_t> cands = placement(key, exclude);
    std::vector<SweepJob> jobs;
    try {
      const json::Value jv = parse_json(jobs_json);
      for (const auto& elem : jv.as_array())
        jobs.push_back(serve::job_from_json(elem));
    } catch (const std::exception&) {
      jobs.clear();  // unreachable for our own serialization: resubmit
    }
    std::optional<std::vector<std::string>> bodies;
    if (!cands.empty() && jobs.size() == expected)
      bodies = peer_results(cands[0], job_keys, jobs, router_ids);
    if (bodies) {
      const std::lock_guard<std::mutex> lock(state_mu_);
      if (SubmitGroup* g = groups_[group_idx].get()) {
        g->backend = npos;  // fully served: nothing left to place
        for (std::size_t i = 0; i < expected; ++i) {
          const auto it = jobs_.find(router_ids[i]);
          if (it != jobs_.end() && it->second.result_json.empty())
            it->second.result_json = std::move((*bodies)[i]);
        }
        ++counters_.peer_hits;
        counters_.peer_jobs_served += pending;
        return true;
      }
    }
  }
  for (const std::size_t b : placement(key, exclude)) {
    json::Value resp;
    try {
      resp = backend_request(b, payload, v2::Op::kSubmit);
    } catch (const ServeError&) {
      continue;
    }
    if (!resp.get_bool("ok", false)) continue;  // full/draining: next
    std::vector<std::uint64_t> ids;
    try {
      ids = ids_from_response(resp);
    } catch (const std::exception&) {
      continue;
    }
    const bool duplicate = resp.get_bool("duplicate", false);
    if (ids.size() != expected) {
      // The backend accepted (or remembered) the group in a different
      // shape than it admitted it. A fresh acceptance we walk away from
      // would run as orphans, so cancel it best-effort; a duplicate
      // reply maps to jobs another submit may own, so leave it alone
      // and just skip this candidate.
      if (!duplicate) cancel_backend_ids(b, ids);
      continue;
    }
    bool claimed = false;
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      if (SubmitGroup* g = groups_[group_idx].get()) {
        g->backend = b;
        g->backend_ids = std::move(ids);
        counters_.jobs_rerouted += pending;
        claimed = true;
      }
    }
    if (!claimed) {
      // Every job was fetched-and-released while we were resubmitting:
      // nobody will ever collect this copy, so unwind it best-effort.
      if (!duplicate) cancel_backend_ids(b, ids);
    }
    return true;
  }
  // Nowhere to land right now (whole fleet down or saturated). Leave it
  // unplaced: result waiters keep polling and the next breaker-close or
  // not_found retry will try again.
  const std::lock_guard<std::mutex> lock(state_mu_);
  if (groups_[group_idx]) groups_[group_idx]->backend = npos;
  return false;
}

void Router::release_job_locked(
    std::unordered_map<std::uint64_t, JobEntry>::iterator it) {
  const std::size_t gidx = it->second.group;
  jobs_.erase(it);
  SubmitGroup* g = groups_[gidx].get();
  if (!g || g->unreleased == 0 || --g->unreleased > 0) return;
  // Last job released: nothing can fetch or resubmit this group again,
  // so reclaim its record — a long-lived router must not grow with
  // total submits. The client key goes with it: released means done,
  // and a resend dedups at the backend via the fleet key anyway.
  if (!g->client_key.empty()) by_client_key_.erase(g->client_key);
  groups_[gidx].reset();
}

void Router::cancel_backend_ids(std::size_t b,
                                const std::vector<std::uint64_t>& ids) {
  for (const std::uint64_t id : ids) {
    try {
      backend_request(b, "{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                             "}");
    } catch (const std::exception&) {
      // Best effort: the breaker already heard about transport failures.
    }
  }
}

void Router::fail_over(std::size_t dead) {
  if (stopping_.load()) return;
  const std::lock_guard<std::mutex> lock(failover_mu_);
  pool_.clear(opts_.backends[dead].host, opts_.backends[dead].port);
  std::vector<std::size_t> affected;
  {
    const std::lock_guard<std::mutex> slock(state_mu_);
    for (std::size_t g = 0; g < groups_.size(); ++g)
      if (groups_[g] && groups_[g]->backend == dead) affected.push_back(g);
  }
  for (const std::size_t g : affected) place_group(g, dead);
}

bool Router::reroute_group(std::size_t group_idx, bool allow_current) {
  if (stopping_.load()) return false;
  const std::lock_guard<std::mutex> lock(failover_mu_);
  std::size_t current;
  {
    const std::lock_guard<std::mutex> slock(state_mu_);
    const SubmitGroup* g = groups_[group_idx].get();
    if (!g) return true;  // fully released and reclaimed: nothing to move
    current = g->backend;
  }
  return place_group(group_idx, allow_current ? npos : current);
}

void Router::on_breaker_transition(std::size_t i, BreakerState from,
                                   BreakerState to) {
  // A "ring move" is a full death or a full recovery. The open ↔
  // half-open flapping of a still-dead backend (one failed probe per
  // cooldown) does not shuffle key ownership: placement() already
  // prefers closed backends over half-open ones.
  const bool was_routable = from == BreakerState::kClosed;
  const bool is_routable = to == BreakerState::kClosed;
  if (was_routable != is_routable) {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.ring_moves;
  }
  // Re-landing groups blocks on backend round trips, and transitions are
  // reported from loop threads too: the pool does it.
  if (to == BreakerState::kOpen && !stopping_.load())
    handlers_.submit([this, i] { fail_over(i); });
}

// --- the result path ---------------------------------------------------
// A `result` holds no thread: each round is one pipelined v2 request on
// the client loop's channel to the job's backend, and its reply (or the
// channel's loss) re-enters that loop to answer, re-issue, or reroute.

void Router::result_round(const CallPtr& call) {
  const std::uint64_t rid = call->rid;
  // The wait deadline is client-chosen (and unbounded): never let it
  // outlive the router.
  if (stopping_.load()) return call->fail("shutting_down", "router stopping");
  std::string cached;
  std::size_t b = npos;
  std::uint64_t bid = 0;
  bool has_bid = false;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = jobs_.find(rid);
    if (it == jobs_.end())
      return call->reply.send(
          error_json("not_found", "no job " + std::to_string(rid)));
    call->group = it->second.group;
    const SubmitGroup& g = *groups_[call->group];
    b = g.backend;
    has_bid = b != npos && it->second.pos < g.backend_ids.size();
    if (has_bid) bid = g.backend_ids[it->second.pos];
    if (!it->second.result_json.empty()) {
      cached = it->second.result_json;
      if (call->release) release_job_locked(it);
      ++counters_.results_served;
    }
  }
  if (!cached.empty()) {
    // An earlier fetch without release left the backend's record in
    // place: release it there too, best effort (a backend that died or
    // forgot the job has nothing left to reclaim), then answer.
    if (!call->release || !has_bid)
      return call->reply.send(result_json(rid, cached));
    call->cached = std::move(cached);
    return send_round(call, b,
                      "{\"op\":\"result\",\"id\":" + std::to_string(bid) +
                          ",\"release\":true}",
                      0);
  }

  const std::uint64_t now = net::EventLoop::now_ms();
  if (b == npos) {
    // Unplaced (mid-failover with no survivor yet): poll for a home.
    if (!call->wait || now >= call->deadline_ms)
      return call->fail("not_ready",
                        "job " + std::to_string(rid) + " is awaiting rerouting",
                        ",\"state\":\"queued\"");
    return retry_after(call, 100, /*reroute=*/true);
  }

  // Forward in bounded rounds so a failover mid-wait is noticed: the
  // backend parks at most kRoundWaitMs per round, then the mapping is
  // re-read.
  std::ostringstream ps;
  ps << "{\"op\":\"result\",\"id\":" << bid;
  // The router keeps no copy of a released result, so neither may the
  // backend: forward the release, or its record lives forever.
  if (call->release) ps << ",\"release\":true";
  std::uint64_t wait_ms = 0;
  if (call->wait) {
    wait_ms = std::min(
        call->deadline_ms > now ? call->deadline_ms - now : 0, kRoundWaitMs);
    ps << ",\"wait\":true,\"timeout_ms\":" << wait_ms;
  }
  ps << "}";
  send_round(call, b, ps.str(), wait_ms);
}

void Router::send_round(const CallPtr& call, std::size_t b,
                        const std::string& payload, std::uint64_t wait_ms) {
  if (const auto refused = admit(b)) return round_failed(call, *refused);
  net::EventLoop* loop = &call->reply.loop();
  Channel& ch = channels_.at(loop)[b];
  net::Conn* c = ch.conn ? loop->find(ch.conn) : nullptr;
  if (c == nullptr) {
    auto on_frame = [this, loop, b](net::Conn& conn, std::string&& p) {
      on_channel_frame(*loop, b, conn.id(), p);
    };
    auto on_close = [this, loop, b](net::Conn& conn) {
      if (channels_.at(loop)[b].conn == conn.id())
        reset_channel(*loop, b,
                      "lost connection to " + opts_.backends[b].name());
    };
    const int fd = connect_async(opts_.backends[b]);
    ch.conn = fd < 0 ? 0 : loop->attach(fd, on_frame, on_close);
    c = ch.conn ? loop->find(ch.conn) : nullptr;
    if (c == nullptr) {
      health_.on_failure(b);
      return round_failed(call, "cannot connect to " + opts_.backends[b].name());
    }
  }
  const std::uint32_t tag = ch.next_tag++;
  ch.calls.emplace(tag, call);
  // The forwarded timeout bounds a healthy backend's answer; this timer
  // catches a hung one.
  call->timer = loop->add_timer(wait_ms + kRoundSlackMs, [this, loop, b] {
    reset_channel(*loop, b, opts_.backends[b].name() + " did not answer");
  });
  c->send_frame(v2::encode(v2::Op::kResult, v2::Kind::kRequest, tag, payload));
}

void Router::on_channel_frame(net::EventLoop& loop, std::size_t b,
                              std::uint64_t conn_id,
                              const std::string& payload) {
  Channel& ch = channels_.at(&loop)[b];
  if (ch.conn != conn_id) return;  // a dropped channel's late bytes
  v2::Frame f;
  try {
    f = v2::decode(payload);
  } catch (const v2::V2Error&) {
    return reset_channel(loop, b, "bad frame from " + opts_.backends[b].name());
  }
  const auto it = ch.calls.find(f.request_id);
  if (it == ch.calls.end()) return;  // its round was abandoned
  const CallPtr call = std::move(it->second);
  ch.calls.erase(it);
  loop.cancel_timer(call->timer);
  call->timer = 0;
  const std::uint64_t rid = call->rid;
  json::Value resp;
  try {
    resp = parse_json(std::string(f.body));
  } catch (const std::exception& e) {
    // The backend answered garbage: as dead as a reset.
    health_.on_failure(b);
    return round_failed(call, e.what());
  }
  health_.on_success(b);
  if (!call->cached.empty())
    return call->reply.send(result_json(rid, call->cached));
  if (resp.get_bool("ok", false) && resp.get_string("type", "") == "result") {
    // The backend's own bytes, spliced verbatim: a routed result is
    // byte-equal to the same job's direct one (docs/CLUSTER.md).
    const std::string_view body = json::member_text(f.body, "result");
    if (body.empty())
      return call->reply.send(
          error_json("bad_gateway", "backend result lacks body"));
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      const auto job = jobs_.find(rid);
      if (job != jobs_.end()) {
        if (call->release)
          release_job_locked(job);
        else
          job->second.result_json = std::string(body);
      }
      ++counters_.results_served;
    }
    return call->reply.send(result_json(rid, body));
  }
  const std::string err = resp.get_string("error", "");
  const bool expired = net::EventLoop::now_ms() >= call->deadline_ms;
  if (err == "not_ready") {
    if (!call->wait || expired)
      return call->fail(
          "not_ready",
          "job " + std::to_string(rid) + " is " +
              resp.get_string("state", "pending"),
          ",\"state\":\"" + resp.get_string("state", "queued") + "\"");
    return result_round(call);
  }
  if (err == "not_found") {
    // The backend forgot the job (restarted without its journal, or the
    // mapping is stale): resubmit the group under its fleet key.
    // Determinism makes the rerun's result bit-identical; the fleet key
    // makes a backend that DOES remember answer duplicate.
    if (++call->attempts > (call->wait ? 16u : 3u) || (call->wait && expired))
      return call->fail("unavailable", "backend lost job " +
                                           std::to_string(rid) +
                                           " and rerouting failed");
    return retry_after(call, 0, /*reroute=*/true);
  }
  if (err == "shutting_down") {
    // An announced drain is as good as a death: move the work now.
    health_.trip(b);
    if (call->wait ? expired : ++call->attempts >= 3)
      return call->fail("unavailable", "backend draining");
    return result_round(call);
  }
  rewrite_id(resp, rid);
  call->reply.send(json::serialize(resp));
}

void Router::round_failed(const CallPtr& call, const std::string& what) {
  // Never sends a round synchronously: this runs inside a channel's
  // close callback, where the loop must not open a new conn.
  if (!call->cached.empty())  // the release was best effort
    return call->reply.send(result_json(call->rid, call->cached));
  if (stopping_.load()) return call->fail("shutting_down", "router stopping");
  // The breaker heard about it; if it opened, the pool is re-landing the
  // group. Re-read the mapping shortly, until the deadline (or attempt
  // budget).
  if (call->wait ? net::EventLoop::now_ms() >= call->deadline_ms
                 : ++call->attempts >= 3)
    return call->fail("unavailable", what);
  retry_after(call, 50, false);
}

void Router::retry_after(const CallPtr& call, std::uint64_t delay_ms,
                         bool reroute) {
  if (reroute) {
    // Re-placing the group blocks on backend round trips: the pool does
    // it, then the next round runs back on the loop.
    handlers_.submit([this, call, delay_ms] {
      reroute_group(call->group, /*allow_current=*/true);
      call->reply.loop().post(
          [this, call, delay_ms] { retry_after(call, delay_ms, false); });
    });
  } else if (delay_ms == 0) {
    result_round(call);
  } else {
    call->timer = call->reply.loop().add_timer(delay_ms, [this, call] {
      call->timer = 0;
      result_round(call);
    });
  }
}

void Router::reset_channel(net::EventLoop& loop, std::size_t b,
                           const std::string& what) {
  Channel& ch = channels_.at(&loop)[b];
  if (net::Conn* c = ch.conn ? loop.find(ch.conn) : nullptr) c->close();
  ch.conn = 0;
  const auto calls = std::move(ch.calls);
  ch.calls.clear();
  for (const auto& [tag, call] : calls) {
    (void)tag;
    loop.cancel_timer(call->timer);
    call->timer = 0;
    // Every admitted round owes the breaker one observation.
    if (!stopping_.load()) health_.on_failure(b);
    round_failed(call, what);
  }
}

std::optional<std::string> Router::handle_cache_get(
    const Hash128& key, const serve::Reply& reply) {
  // Fleet cache lookup: the key IS the content hash affinity routes
  // by, so under affinity the first candidate is exactly the backend
  // whose cache would hold it. Scan the remaining alive backends only
  // on a miss (bounded by fleet size; a cache probe is cheap).
  const std::string request =
      "{\"op\":\"cache_get\",\"key\":\"" + to_hex(key) + "\"}";
  bool missed = false;  // a definite miss from a live cache
  for (const std::size_t b : placement(key)) {
    json::Value resp;
    try {
      resp = backend_request(b, request);
    } catch (const ServeError&) {
      continue;
    }
    if (!resp.get_bool("ok", false)) continue;
    if (resp.get_bool("found", false)) {
      reply.send_cache_record(base64_decode(resp.get_string("payload", "")));
      return std::nullopt;
    }
    missed = true;
  }
  if (!missed) return error_json("unavailable", "no alive backend");
  reply.send_cache_record(std::nullopt);
  return std::nullopt;
}

std::string Router::forward_by_id(const json::Value& req,
                                  const std::string& op) {
  const std::uint64_t rid = require_id(req);
  const bool status = op == "status";
  std::string cached;
  std::size_t gidx = 0, b = npos;
  std::uint64_t bid = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = jobs_.find(rid);
    if (it == jobs_.end())
      return error_json("not_found", "no job " + std::to_string(rid));
    cached = it->second.result_json;
    gidx = it->second.group;
    const SubmitGroup& g = *groups_[gidx];
    b = g.backend;
    if (b != npos && it->second.pos < g.backend_ids.size())
      bid = g.backend_ids[it->second.pos];
  }
  const std::string rerouting = "{\"ok\":true,\"type\":\"status\"," +
                                id_member(rid) +
                                ",\"state\":\"queued\",\"rerouting\":true}";
  if (status && !cached.empty()) {
    // Served from the router's copy; mirror the backend's shape.
    std::string st = "finished";
    try {
      st = parse_json(cached).get_string("status", "finished");
    } catch (const std::exception&) {
    }
    return "{\"ok\":true,\"type\":\"status\"," + id_member(rid) +
           ",\"state\":\"done\",\"status\":\"" + json_escape(st) + "\"}";
  }
  if (b == npos)
    return status ? rerouting
                  : error_json("not_ready",
                               "job " + std::to_string(rid) +
                                   " is being rerouted",
                               id_member(rid));
  std::ostringstream ps;
  ps << "{\"op\":\"" << op << "\",\"id\":" << bid;
  if (op == "extend" && req.find("deadline_ms"))
    ps << ",\"deadline_ms\":" << req.get_uint("deadline_ms", 0);
  ps << "}";
  json::Value resp;
  try {
    resp = backend_request(b, ps.str());
  } catch (const ServeError& e) {
    return error_json("unavailable", e.what(), id_member(rid));
  }
  if (status && !resp.get_bool("ok", false) &&
      resp.get_string("error", "") == "not_found") {
    // Amnesiac backend: kick a reroute and report the honest state.
    reroute_group(gidx, /*allow_current=*/true);
    return rerouting;
  }
  if (op == "extend" && resp.get_bool("ok", false)) {
    // The backend requeued the job: drop our stale cached result so the
    // next result fetch waits for the extension's outcome.
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = jobs_.find(rid);
    if (it != jobs_.end()) it->second.result_json.clear();
  }
  rewrite_id(resp, rid);
  return json::serialize(resp);
}

Router::Counters Router::counters() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  Counters n = counters_;
  n.jobs_tracked = jobs_.size();
  for (const auto& g : groups_)
    if (g) ++n.groups_live;
  return n;
}

std::string Router::stats_json() {
  const Counters n = counters();
  const BreakerCounts trans = health_.totals();
  const std::vector<std::size_t> outstanding = outstanding_by_backend();

  std::ostringstream os;
  os << "{\"router\":{";
  os << "\"backends\":" << opts_.backends.size();
  os << ",\"alive\":" << health_.alive_count();
  os << ",\"mode\":\"" << (opts_.affinity ? "affinity" : "least_queued")
     << "\"";
  os << ",\"submits_routed\":" << n.submits_routed;
  os << ",\"jobs_routed\":" << n.jobs_routed;
  os << ",\"jobs_rerouted\":" << n.jobs_rerouted;
  os << ",\"submits_rejected\":" << n.submits_rejected;
  os << ",\"results_served\":" << n.results_served;
  os << ",\"ring_moves\":" << n.ring_moves;
  os << ",\"jobs_tracked\":" << n.jobs_tracked;
  os << ",\"groups_live\":" << n.groups_live;
  os << ",\"peer_cache\":{\"lookups\":" << n.peer_lookups
     << ",\"hits\":" << n.peer_hits << ",\"jobs_served\":" << n.peer_jobs_served
     << ",\"misses\":" << n.peer_misses << ",\"errors\":" << n.peer_errors
     << "}";
  os << ",\"breaker\":{\"opened\":" << trans.opened
     << ",\"half_opened\":" << trans.half_opened
     << ",\"closed\":" << trans.closed << "}";
  os << "}";

  // Per-backend roll-call with each one's own stats document; the fleet
  // totals below sum what was reachable (a down backend contributes
  // nothing — honest, if momentarily lopsided).
  std::uint64_t fleet_submitted = 0, fleet_rejected = 0, fleet_depth = 0,
                fleet_in_flight = 0, fleet_cache_hits = 0,
                fleet_cache_misses = 0, fleet_cycles = 0;
  os << ",\"backends\":[";
  for (std::size_t i = 0; i < opts_.backends.size(); ++i) {
    if (i) os << ",";
    os << "{\"endpoint\":\"" << json_escape(opts_.backends[i].name()) << "\"";
    os << ",\"breaker\":\"" << to_string(health_.state(i)) << "\"";
    os << ",\"outstanding\":" << outstanding[i];
    if (!health_.alive(i)) {
      os << ",\"up\":false}";
      continue;
    }
    try {
      const json::Value resp =
          backend_request(i, "{\"op\":\"stats\"}", v2::Op::kStats);
      const json::Value* stats = resp.find("stats");
      if (resp.get_bool("ok", false) && stats) {
        os << ",\"up\":true,\"stats\":" << json::serialize(*stats);
        fleet_depth += stats->get_uint("queue_depth", 0);
        fleet_in_flight += stats->get_uint("in_flight", 0);
        if (const json::Value* c = stats->find("counters")) {
          fleet_submitted += c->get_uint("submitted", 0);
          fleet_rejected += c->get_uint("rejected", 0);
        }
        if (const json::Value* c = stats->find("cache")) {
          fleet_cache_hits += c->get_uint("hits", 0);
          fleet_cache_misses += c->get_uint("misses", 0);
        }
        if (const json::Value* a = stats->find("aggregate"))
          fleet_cycles += a->get_uint("cycles", 0);
      } else {
        os << ",\"up\":false";
      }
    } catch (const std::exception& e) {
      os << ",\"up\":false,\"error\":\"" << json_escape(e.what()) << "\"";
    }
    os << "}";
  }
  os << "]";
  os << ",\"fleet\":{";
  os << "\"submitted\":" << fleet_submitted;
  os << ",\"rejected\":" << fleet_rejected;
  os << ",\"queue_depth\":" << fleet_depth;
  os << ",\"in_flight\":" << fleet_in_flight;
  os << ",\"cache_hits\":" << fleet_cache_hits;
  os << ",\"cache_misses\":" << fleet_cache_misses;
  os << ",\"cycles\":" << fleet_cycles;
  os << "}}";
  return os.str();
}

std::string Router::metrics_text() {
  const Counters n = counters();
  const BreakerCounts trans = health_.totals();
  const std::vector<std::size_t> outstanding = outstanding_by_backend();

  std::ostringstream os;
  auto gauge = [&](const char* name, auto value, const char* help) {
    os << "# HELP " << name << " " << help << "\n# TYPE " << name
       << " gauge\n" << name << " " << value << "\n";
  };
  auto counter = [&](const char* name, auto value, const char* help) {
    os << "# HELP " << name << " " << help << "\n# TYPE " << name
       << " counter\n" << name << " " << value << "\n";
  };
  gauge("masc_routerd_backends", opts_.backends.size(),
        "Configured backends");
  gauge("masc_routerd_backends_alive", health_.alive_count(),
        "Backends whose breaker is not open");
  counter("masc_routerd_submits_routed_total", n.submits_routed,
          "Client submits placed on a backend");
  counter("masc_routerd_jobs_routed_total", n.jobs_routed,
          "Jobs in placed submits");
  counter("masc_routerd_jobs_rerouted_total", n.jobs_rerouted,
          "Jobs re-landed by failover or diverted around saturation");
  counter("masc_routerd_submits_rejected_total", n.submits_rejected,
          "Submits refused fleet-wide (queue_full/unavailable)");
  counter("masc_routerd_results_served_total", n.results_served,
          "Result responses returned to clients");
  counter("masc_routerd_ring_moves_total", n.ring_moves,
          "Routable-set changes (backend died or recovered)");
  counter("masc_routerd_peer_cache_lookups_total", n.peer_lookups,
          "Peer cache read-through rounds attempted");
  counter("masc_routerd_peer_cache_hits_total", n.peer_hits,
          "Submit groups served whole from a peer's result cache");
  counter("masc_routerd_peer_cache_jobs_served_total", n.peer_jobs_served,
          "Jobs answered from a peer cache instead of re-simulating");
  counter("masc_routerd_peer_cache_misses_total", n.peer_misses,
          "Peer cache rounds abandoned on a missing key");
  counter("masc_routerd_peer_cache_errors_total", n.peer_errors,
          "Peer cache rounds abandoned on transport or decode failure");
  gauge("masc_routerd_jobs_tracked", n.jobs_tracked,
        "Jobs the router still tracks (unfetched or unreleased)");
  gauge("masc_routerd_groups_live", n.groups_live,
        "Submit groups not yet fully released");
  counter("masc_routerd_breaker_opened_total", trans.opened,
          "Breaker transitions to open");
  counter("masc_routerd_breaker_half_opened_total", trans.half_opened,
          "Breaker transitions to half-open");
  counter("masc_routerd_breaker_closed_total", trans.closed,
          "Breaker recoveries to closed");
  os << "# HELP masc_routerd_backend_up 1 when the backend's breaker is "
        "not open\n# TYPE masc_routerd_backend_up gauge\n";
  for (std::size_t i = 0; i < opts_.backends.size(); ++i)
    os << "masc_routerd_backend_up{backend=\""
       << opts_.backends[i].name() << "\"} " << (health_.alive(i) ? 1 : 0)
       << "\n";
  os << "# HELP masc_routerd_backend_outstanding Router-tracked unfinished "
        "jobs per backend\n# TYPE masc_routerd_backend_outstanding gauge\n";
  for (std::size_t i = 0; i < opts_.backends.size(); ++i)
    os << "masc_routerd_backend_outstanding{backend=\""
       << opts_.backends[i].name() << "\"} " << outstanding[i] << "\n";
  return os.str();
}

}  // namespace masc::cluster
