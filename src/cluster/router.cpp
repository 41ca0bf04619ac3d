#include "cluster/router.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <sstream>

#include "common/hash.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/framing.hpp"
#include "sim/sweep.hpp"

namespace masc::cluster {

using serve::Client;
using serve::error_json;
using serve::require_id;
using serve::ServeError;
using serve::submitted_json;
namespace v2 = serve::v2;

namespace {

using Clock = std::chrono::steady_clock;

/// Every Prometheus family of masc-routerd starts with this.
constexpr const char* kMetricPrefix = "masc_routerd_";

/// A result round is forwarded with a wait of at most this long, so a
/// failover mid-wait is noticed between rounds.
constexpr std::uint64_t kRoundWaitMs = 2'000;
/// Every round must be answered this long after it was sent (a result
/// round gets it on top of its forwarded wait). A backend that misses it
/// is hung: its channel is reset and every round on it fails.
constexpr std::uint64_t kRoundSlackMs = 2'000;

std::string id_member(std::uint64_t rid) {
  return "\"id\":" + std::to_string(rid);
}

/// Resolve a backend's address; throws ServeError when it does not.
sockaddr_in resolve(const BackendSpec& be) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(be.host.c_str(), std::to_string(be.port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr)
    throw ServeError("cannot resolve backend \"" + be.name() + "\"");
  sockaddr_in addr{};
  std::memcpy(&addr, res->ai_addr, sizeof addr);
  ::freeaddrinfo(res);
  return addr;
}

/// Start a nonblocking connect for a loop-owned channel; -1 when it
/// failed outright.
int connect_async(const sockaddr_in& addr) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
          0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    fd = -1;
  }
  if (fd >= 0) serve::set_nodelay(fd);
  return fd;
}

/// A backend's JSON object with its top-level member `key` set to router
/// id `rid`, spliced into the backend's own bytes: the client only ever
/// sees router ids — an answer's "id", a result body's "index".
std::string with_id(std::string_view text, std::string_view key,
                    std::uint64_t rid) {
  const std::string_view v = json::member_text(text, key);
  if (v.empty()) return std::string(text);
  const auto at = static_cast<std::size_t>(v.data() - text.data());
  return std::string(text.substr(0, at)) + std::to_string(rid) +
         std::string(text.substr(at + v.size()));
}

/// A round's JSON answer, or a null Value when the round failed (an
/// empty body) or the backend answered garbage or no boolean "ok" (all
/// read as "not ok").
json::Value answer_json(std::string_view body) {
  try {
    json::Value v = parse_json(body);
    const json::Value* ok = v.find("ok");
    if (ok && ok->is_bool()) return v;
  } catch (const std::exception&) {
  }
  return {};
}

/// What every alive backend's stats add up to.
struct FleetTotals {
  std::uint64_t submitted = 0, rejected = 0, queue_depth = 0, in_flight = 0,
                cache_hits = 0, cache_misses = 0, cycles = 0;
};

/// Add one backend's stats document to `fleet`; false, leaving it as it
/// was, when a member has the wrong type.
bool add_to_fleet(const json::Value& stats, FleetTotals& fleet) {
  FleetTotals t = fleet;
  try {
    t.queue_depth += stats.get_uint("queue_depth", 0);
    t.in_flight += stats.get_uint("in_flight", 0);
    if (const json::Value* c = stats.find("counters")) {
      t.submitted += c->get_uint("submitted", 0);
      t.rejected += c->get_uint("rejected", 0);
    }
    if (const json::Value* c = stats.find("cache")) {
      t.cache_hits += c->get_uint("hits", 0);
      t.cache_misses += c->get_uint("misses", 0);
    }
    if (const json::Value* a = stats.find("aggregate"))
      t.cycles += a->get_uint("cycles", 0);
  } catch (const JsonError&) {
    return false;
  }
  fleet = t;
  return true;
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
/// re-landed group is byte-identical to the original. The jobs are the
/// client's own text; the fleet's lane width rides once, for backends to
/// apply to jobs that set none.
std::string submit_payload(const std::string& fleet_key,
                           std::uint64_t deadline_ms,
                           std::uint32_t batch_lanes,
                           std::string_view jobs_text) {
  std::string ps =
      "{\"op\":\"submit\",\"key\":\"" + json_escape(fleet_key) + "\"";
  if (deadline_ms > 0) ps += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  if (batch_lanes > 1) ps += ",\"batch_lanes\":" + std::to_string(batch_lanes);
  ps.append(",\"jobs\":").append(jobs_text);
  ps += '}';
  return ps;
}

/// The jobs of a backend submit, decoded as a backend decodes them, or
/// nullptr when one does not decode. Only the paths that need a SweepJob
/// (peer read-through) pay for this.
std::shared_ptr<const std::vector<SweepJob>> decode_jobs(
    std::string_view payload) {
  auto jobs = std::make_shared<std::vector<SweepJob>>();
  try {
    for (const std::string_view elem :
         json::array_elements(json::member_text(payload, "jobs")))
      jobs->push_back(serve::job_from_json(parse_json(elem)));
  } catch (const std::exception&) {
    return nullptr;
  }
  return jobs;
}

/// The "ids" of an ok submit answer; empty when it has none.
std::vector<std::uint64_t> ids_from_response(const json::Value& resp) {
  std::vector<std::uint64_t> ids;
  const json::Value* ids_v = resp.find("ids");
  if (!ids_v || !ids_v->is_array()) return ids;
  try {
    for (const auto& e : ids_v->as_array()) ids.push_back(e.as_uint());
  } catch (const std::exception&) {
    ids.clear();
  }
  return ids;
}

std::vector<std::string> backend_names(const std::vector<BackendSpec>& bs) {
  std::vector<std::string> names;
  names.reserve(bs.size());
  for (const auto& b : bs) names.push_back(b.name());
  return names;
}

// The job members a result-cache key covers (sweep_cache_key), under the
// names job_from_json reads them by: every config member
// config_from_json reads, the program and the cycle budget. label, seed,
// batch_lanes and members no reader knows are left out, as the cache
// leaves them out. A member missing here costs affinity, never results.
constexpr std::string_view kJobMembers[] = {"config", "program",
                                            "max_cycles"};
constexpr std::string_view kConfigMembers[] = {
    "pes",         "threads",        "width",          "arity",
    "issue_width", "switch_penalty", "multithreading", "pipelined_network",
    "pipelined_execution", "sched"};

}  // namespace

Hash128 route_key(const std::vector<std::string_view>& jobs) {
  // Each text goes in as its length and its standard-library hash, a
  // word at a time: FNV-128 a byte at a time over every program was a
  // fifth of the router's CPU, and a route key only has to spread keys
  // and agree within one build.
  Fnv128 h;
  const auto add = [&h](std::string_view text) {
    h.u64(text.size()).u64(std::hash<std::string_view>{}(text));
  };
  std::string_view job_texts[std::size(kJobMembers)];
  std::string_view config_texts[std::size(kConfigMembers)];
  for (const std::string_view job : jobs) {
    json::member_texts(job, kJobMembers, job_texts);
    const auto& [config, program, max_cycles] = job_texts;
    json::member_texts(config, kConfigMembers, config_texts);
    for (const std::string_view text : config_texts) add(text);
    add(program);
    add(max_cycles);
  }
  return h.digest();
}

/// One client submit on its way to a backend, on the client's loop.
struct Router::SubmitCall {
  serve::Reply reply;
  std::string client_key;
  std::string payload;  ///< the backend submit
  std::size_t njobs = 0;
  Hash128 route_key;
  std::vector<std::size_t> candidates;
  std::size_t rank = 0;  ///< next candidate to try
  bool peer_tried = false;
  bool saw_queue_full = false;
  std::uint64_t retry_hint = 0;
  std::string last_error = "no alive backend";
};

/// One group being (re)placed, on the loop that claimed it.
struct Router::PlaceCall {
  net::EventLoop* loop = nullptr;
  std::size_t group = 0;
  std::size_t pending = 0;   ///< unfinished jobs when claimed
  std::size_t expected = 0;  ///< jobs in the group
  std::string payload;
  std::vector<std::size_t> candidates;
  std::size_t rank = 0;
};

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

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)),
      ring_(backend_names(opts_.backends)),
      health_(opts_.backends.size(), opts_.breaker),
      // Client-face frames are never throttled (frame timeout 0).
      front_(opts_.port, opts_.io_threads, opts_.idle_timeout_ms, 0,
             [this](serve::Request&& req, const serve::Reply& reply) {
               return handle_request(std::move(req), reply);
             }) {
  if (opts_.backends.empty()) throw ServeError("router needs >= 1 backend");
  for (const BackendSpec& be : opts_.backends) addrs_.push_back(resolve(be));
  for (std::size_t i = 0; i < front_.loops().size(); ++i)
    channels_[&front_.loops().at(i)].resize(opts_.backends.size());
  std::random_device rd;
  key_prefix_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  health_.set_on_transition(
      [this](std::size_t i, BreakerState from, BreakerState to) {
        on_breaker_transition(i, from, to);
      });
  health_.set_probe([this](std::size_t i) {
    // The prober's own thread and its own fresh short-deadline
    // connection: a hung backend costs it one bounded round.
    try {
      const auto& be = opts_.backends[i];
      Client c;
      c.connect(be.host, be.port,
                opts_.connect_timeout_ms ? opts_.connect_timeout_ms : 1'000);
      c.set_frame_timeout_ms(1'000);
      return c.request("{\"op\":\"ping\"}").get_bool("ok", false);
    } catch (const std::exception&) {
      return false;
    }
  });
}

Router::~Router() { stop(); }

void Router::start() {
  if (started_.exchange(true)) throw ServeError("router already started");
  front_.start();
  if (opts_.probe_interval_ms > 0) health_.start(opts_.probe_interval_ms);
}

void Router::stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;
  health_.stop();
  front_.stop_accepting();
  // Fail every round in flight (a parked result-wait answers
  // shutting_down, a keyed submit publishes to its parked resends),
  // then stop the loops: the posted resets run before each loop's
  // teardown hangs up its sessions.
  for (auto& [loop, row] : channels_)
    loop->post([this, loop = loop] {
      for (std::size_t b = 0; b < opts_.backends.size(); ++b)
        reset_channel(*loop, b, "router stopping");
    });
  front_.stop();
}

std::optional<std::string> Router::handle_request(serve::Request&& req,
                                                  const serve::Reply& reply) {
  const std::string& op = req.op;
  if (op == "submit") {
    handle_submit(req.text, reply);
    return std::nullopt;
  }
  if (op == "cache_get") {
    handle_cache_get(req.key, reply);
    return std::nullopt;
  }
  // Every other op's request is small: parse it (refusing malformed text).
  const json::Value& body = req.body();
  if (op == "result") {
    auto call = std::make_shared<ResultCall>();
    call->reply = reply;
    call->rid = require_id(body);
    call->wait = body.get_bool("wait", false);
    call->release = body.get_bool("release", false);
    call->deadline_ms =
        net::EventLoop::now_ms() + body.get_uint("timeout_ms", 60'000);
    result_round(call);
    return std::nullopt;
  }
  if (op == "status" || op == "cancel" || op == "extend")
    return forward_by_id(body, op, reply);
  if (op == "stats") {
    stats(reply.loop(), [reply](const std::string& doc) {
      reply.send("{\"ok\":true,\"type\":\"stats\",\"stats\":" + doc + "}");
    });
    return std::nullopt;
  }
  if (op == "metrics_text")
    return "{\"ok\":true,\"type\":\"metrics_text\",\"text\":\"" +
           json_escape(metrics_text()) + "\"}";
  return error_json("unknown_op", "unrecognized \"op\" \"" + op + "\"");
}

// --- rounds --------------------------------------------------------------
// Every backend op is a round: one pipelined v2 request on the channel
// from the client's loop to the backend, answered by request id. The
// answer (or the channel's loss, or the round's deadline) re-enters that
// loop through the round's callback. Nothing here blocks.

std::optional<std::string> Router::admit(std::size_t b) {
  const BackendSpec& be = opts_.backends[b];
  if (!health_.allow(b)) return "breaker open for backend " + be.name();
  if (auto* inj = fault::active(); inj && inj->on_backend_round()) {
    health_.on_failure(b);
    return "injected fault: request to " + be.name() + " failed";
  }
  return std::nullopt;
}

void Router::send_round(net::EventLoop& loop, std::size_t b, v2::Op op,
                        std::string_view body, std::uint64_t deadline_ms,
                        RoundDone done, bool peer) {
  if (stopping_.load()) return done(nullptr, "router stopping");
  if (!peer)
    if (const auto refused = admit(b)) return done(nullptr, *refused);
  Channel& ch = channels_.at(&loop)[b];
  net::Conn* c = ch.conn ? loop.find(ch.conn) : nullptr;
  if (c == nullptr) {
    auto on_frame = [this, lp = &loop, b](net::Conn& conn, std::string&& p) {
      on_channel_frame(*lp, b, conn.id(), p);
    };
    auto on_close = [this, lp = &loop, b](net::Conn& conn) {
      if (channels_.at(lp)[b].conn == conn.id())
        reset_channel(*lp, b, "lost connection to " + opts_.backends[b].name(),
                      /*from_close=*/true);
    };
    const int fd = connect_async(addrs_[b]);
    ch.conn = fd < 0 ? 0 : loop.attach(fd, on_frame, on_close);
    c = ch.conn ? loop.find(ch.conn) : nullptr;
    if (c == nullptr) {
      if (!peer) health_.on_failure(b);
      return done(nullptr, "cannot connect to " + opts_.backends[b].name());
    }
  }
  const std::uint32_t tag = ch.next_tag++;
  Round& round = ch.rounds[tag];
  round.done = std::move(done);
  round.peer = peer;
  round.timer = loop.add_timer(deadline_ms, [this, lp = &loop, b, tag, peer] {
    if (!peer)
      return reset_channel(*lp, b,
                           opts_.backends[b].name() + " did not answer");
    // A late peer round is abandoned, not its channel: the channel is
    // shared, and a slow cache owes the breaker nothing.
    Channel& pch = channels_.at(lp)[b];
    const auto it = pch.rounds.find(tag);
    if (it == pch.rounds.end()) return;
    const RoundDone late = std::move(it->second.done);
    pch.rounds.erase(it);
    late(nullptr, "peer cache round timed out");
  });
  c->send_frame(v2::encode(op, v2::Kind::kRequest, tag, body));
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
  const auto it = ch.rounds.find(f.request_id);
  if (it == ch.rounds.end()) return;  // its round was abandoned
  const Round round = std::move(it->second);
  ch.rounds.erase(it);
  loop.cancel_timer(round.timer);
  if (!round.peer) health_.on_success(b);
  try {
    round.done(&f, {});
  } catch (const JsonError& e) {
    // A member of the wrong JSON type: the answer is as good as none.
    // Every caller reads what it needs from an answer before it acts on
    // it, so its failure path can still run.
    round.done(nullptr, "garbled answer from " + opts_.backends[b].name() +
                            ": " + e.what());
  }
}

void Router::reset_channel(net::EventLoop& loop, std::size_t b,
                           const std::string& what, bool from_close) {
  Channel& ch = channels_.at(&loop)[b];
  if (net::Conn* c = ch.conn && !from_close ? loop.find(ch.conn) : nullptr) {
    // Hard close: a hung backend may never drain what is queued to it.
    ::shutdown(c->fd(), SHUT_RDWR);
    c->close();
  }
  ch.conn = 0;
  auto rounds = std::make_shared<std::unordered_map<std::uint32_t, Round>>(
      std::move(ch.rounds));
  ch.rounds.clear();
  for (const auto& [tag, round] : *rounds) {
    (void)tag;
    loop.cancel_timer(round.timer);
    // Every admitted round owes the breaker one observation.
    if (!round.peer && !stopping_.load()) health_.on_failure(b);
  }
  auto fail = [rounds, what] {
    for (const auto& [tag, round] : *rounds) round.done(nullptr, what);
  };
  if (from_close)
    loop.post(fail);
  else
    fail();
}

// --- submit ----------------------------------------------------------------

void Router::handle_submit(std::string_view text, const serve::Reply& reply) {
  // One checking pass over the request that builds nothing and splits
  // the jobs: they are routed by a hash of their text and forwarded as
  // the client wrote them. A job that does not decode is refused by the
  // backend, whose bad_request the client gets byte for byte.
  std::string_view jobs_text, key_text, deadline_text;
  std::vector<std::string_view> jobs;
  const std::string_view doc = text.empty() ? "{}" : text;
  for (const auto& [key, value] : json::object_members(doc, "jobs", &jobs)) {
    std::string_view* slot = key == "jobs"          ? &jobs_text
                             : key == "key"         ? &key_text
                             : key == "deadline_ms" ? &deadline_text
                                                    : nullptr;
    if (slot && slot->empty()) *slot = value;  // the first one, as find() does
  }
  if (jobs.empty())
    throw JsonError("submit needs a non-empty \"jobs\" array");
  const std::uint64_t deadline_ms =
      deadline_text.empty() ? 0 : parse_json(deadline_text).as_uint();
  if (stopping_.load())
    return reply.send(error_json("shutting_down", "router stopping"));
  auto call = std::make_shared<SubmitCall>();
  call->reply = reply;
  if (!key_text.empty()) call->client_key = parse_json(key_text).as_string();

  // Router-level idempotency on the client's key: a repeat gets the
  // original router ids; a concurrent repeat parks its reply behind the
  // first attempt instead of double-submitting.
  std::string fleet_key;
  if (!call->client_key.empty()) {
    std::optional<std::string> dup;
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      const auto it = by_client_key_.find(call->client_key);
      if (it == by_client_key_.end())
        by_client_key_.emplace(call->client_key, KeyedSubmit{});  // reserve
      else if (it->second.ids.empty())
        return it->second.parked.push_back(reply);
      else
        dup = submitted_json(it->second.ids, true);
    }
    if (dup) return reply.send(*dup);
    // Derive the fleet key from the client's so the SAME key reaches
    // whichever backend ends up running the jobs — the client can even
    // bypass the router and still dedup against routed work.
    fleet_key = "c:" + call->client_key;
  } else {
    // Reserve the key atomically: the sequence advances at generation
    // time, so two concurrent keyless submits can never mint the same
    // fleet key (the backend dedups purely on key — a collision would
    // hand one client the other's results).
    std::ostringstream ks;
    const std::lock_guard<std::mutex> lock(state_mu_);
    ks << "r:" << std::hex << key_prefix_ << ":" << std::dec << fleet_seq_++;
    fleet_key = ks.str();
  }
  call->njobs = jobs.size();
  call->route_key = route_key(jobs);
  // This exact payload is what failover resubmits, so a re-landed group
  // is byte-identical to the original.
  call->payload = submit_payload(fleet_key, deadline_ms,
                                 opts_.default_batch_lanes, jobs_text);
  call->candidates = placement(call->route_key);
  forward_submit(call);
}

void Router::forward_submit(const SubmitPtr& call) {
  if (stopping_.load())
    return finish_submit(call, error_json("shutting_down", "router stopping"),
                         {});
  if (call->rank == call->candidates.size()) {
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      ++counters_.submits_rejected;
    }
    if (call->saw_queue_full)
      return finish_submit(
          call,
          error_json("queue_full", "every alive backend is saturated",
                     "\"retry_after_ms\":" +
                         std::to_string(call->retry_hint ? call->retry_hint
                                                         : 100)),
          {});
    return finish_submit(
        call,
        error_json("unavailable", call->last_error,
                   "\"retry_after_ms\":" +
                       std::to_string(opts_.breaker.open_cooldown_ms)),
        {});
  }
  net::EventLoop& loop = call->reply.loop();
  const std::size_t owner = call->candidates[0];
  // Tier-3 peer read-through (docs/CACHE.md): rank > 0 means the ring
  // owner refused or failed and this submit is about to be simulated on
  // a non-owner — but a repeat diverted off its affinity home is exactly
  // the submit whose answer the owner's cache already holds. One
  // tight-deadline cache round against the owner (while its breaker is
  // not open) before paying for a simulation elsewhere; any
  // miss/timeout/decode failure falls through to the normal submission,
  // so this path can delay a submit by at most peer_timeout_ms, never
  // fail it. Only here are the jobs decoded: a peer's answers are
  // materialized from them.
  if (call->rank > 0 && !call->peer_tried && opts_.affinity &&
      opts_.peer_read_through && health_.alive(owner)) {
    call->peer_tried = true;
    if (auto jobs = decode_jobs(call->payload))
      return peer_results(
          loop, owner, std::move(jobs), {},
          [this, call](std::optional<std::vector<std::string>> bodies,
                       std::vector<std::uint64_t> rids) {
            if (!bodies) return forward_submit(call);
            add_group(*call, npos, {}, rids, std::move(*bodies));
            {
              const std::lock_guard<std::mutex> lock(state_mu_);
              ++counters_.peer_hits;
              counters_.peer_jobs_served += rids.size();
            }
            finish_submit(call, submitted_json(rids, false), rids);
          });
  }
  const bool diverted = call->rank > 0;
  const std::size_t b = call->candidates[call->rank++];
  send_round(
      loop, b, v2::Op::kSubmit, call->payload, kRoundSlackMs,
      [this, call, b, diverted](const v2::Frame* f, const std::string& error) {
        const BackendSpec& be = opts_.backends[b];
        if (f == nullptr) {
          call->last_error = error;
          return forward_submit(call);
        }
        const json::Value resp = answer_json(f ? f->body : "");
        if (!resp.get_bool("ok", false)) {
          const std::string err = resp.get_string("error", "");
          if (err == "queue_full" || err == "shutting_down" || err.empty()) {
            // Saturation (or a draining backend, or garbage): divert to
            // the next candidate; remember the earliest honest hint.
            if (err == "queue_full") {
              const std::uint64_t hint = resp.get_uint("retry_after_ms", 0);
              call->saw_queue_full = true;
              if (hint > 0 && (!call->retry_hint || hint < call->retry_hint))
                call->retry_hint = hint;
            }
            call->last_error =
                (err.empty() ? "bad answer" : err) + " from " + be.name();
            return forward_submit(call);
          }
          // Any other refusal (a job that does not decode, a cap
          // mismatch...) would be refused by every backend: relay it.
          return finish_submit(call, std::string(f->body), {});
        }
        std::vector<std::uint64_t> backend_ids = ids_from_response(resp);
        if (backend_ids.size() != call->njobs) {
          call->last_error = "backend " + be.name() + " returned " +
                             std::to_string(backend_ids.size()) + " ids for " +
                             std::to_string(call->njobs) + " jobs";
          // A fresh acceptance we refuse to track would run as orphans:
          // cancel it best-effort. A duplicate reply maps to jobs some
          // earlier submit legitimately owns — leave those alone.
          if (!resp.get_bool("duplicate", false))
            cancel_backend_ids(call->reply.loop(), b, backend_ids);
          return forward_submit(call);
        }
        const std::vector<std::uint64_t> ids =
            add_group(*call, b, std::move(backend_ids), {}, {});
        if (diverted) {  // diverted around saturation
          const std::lock_guard<std::mutex> lock(state_mu_);
          counters_.jobs_rerouted += ids.size();
        }
        finish_submit(call, submitted_json(ids, false), ids);
      });
}

std::vector<std::uint64_t> Router::add_group(
    SubmitCall& call, std::size_t backend,
    std::vector<std::uint64_t> backend_ids, std::vector<std::uint64_t> rids,
    std::vector<std::string> bodies) {
  const std::size_t njobs = call.njobs;
  auto group = std::make_unique<SubmitGroup>();
  group->payload = std::move(call.payload);
  group->client_key = call.client_key;
  group->route_key = call.route_key;
  group->backend = backend;  // npos: fully served, never (re)submitted
  group->backend_ids = std::move(backend_ids);
  group->unreleased = njobs;
  const std::lock_guard<std::mutex> lock(state_mu_);
  const std::size_t gidx = groups_.size();
  while (rids.size() < njobs) rids.push_back(next_router_id_++);
  for (std::size_t i = 0; i < njobs; ++i)
    jobs_.emplace(rids[i], JobEntry{gidx, i,
                                    bodies.empty() ? std::string()
                                                   : std::move(bodies[i])});
  group->router_ids = rids;
  groups_.push_back(std::move(group));
  ++counters_.submits_routed;
  counters_.jobs_routed += njobs;
  return rids;
}

void Router::finish_submit(const SubmitPtr& call, const std::string& resp,
                           const std::vector<std::uint64_t>& ids) {
  // Publish the outcome: success keeps the key's ids for later resends,
  // failure frees the key. Either way every parked resend gets it now.
  std::vector<serve::Reply> parked;
  if (!call->client_key.empty()) {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = by_client_key_.find(call->client_key);
    if (it != by_client_key_.end()) {
      parked = std::move(it->second.parked);
      if (ids.empty())
        by_client_key_.erase(it);
      else
        it->second.ids = ids;
    }
  }
  call->reply.send(resp);
  const std::string dup = ids.empty() ? resp : submitted_json(ids, true);
  for (const serve::Reply& r : parked) r.send(dup);
}

void Router::peer_results(net::EventLoop& loop, std::size_t b,
                          std::shared_ptr<const std::vector<SweepJob>> jobs,
                          std::vector<std::uint64_t> rids, PeerDone done) {
  // Every key's cache_get is pipelined before the first answer arrives,
  // so the whole lookup costs one RTT and zero base64/JSON, which keeps
  // peer_timeout_ms honest for large groups (docs/NET.md "Pipelining").
  struct Lookup {
    std::vector<std::string> blobs;
    std::size_t unanswered = 0;
    bool over = false;  ///< done has run
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<const std::vector<SweepJob>> jobs;
    std::vector<std::uint64_t> rids;
    PeerDone done;
  };
  std::vector<Hash128> keys;
  for (const SweepJob& job : *jobs) keys.push_back(sweep_cache_key(job));
  auto st = std::make_shared<Lookup>();
  st->blobs.resize(keys.size());
  st->unanswered = keys.size();
  st->jobs = std::move(jobs);
  st->rids = std::move(rids);
  st->done = std::move(done);
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.peer_lookups;
  }
  // A single absent key (or failed round) abandons the whole lookup.
  auto give_up = [this](Lookup& s, bool miss) {
    s.over = true;
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      ++(miss ? counters_.peer_misses : counters_.peer_errors);
    }
    s.done(std::nullopt, {});
  };
  const std::uint64_t budget =
      opts_.peer_timeout_ms ? opts_.peer_timeout_ms : 250;
  for (std::size_t i = 0; i < keys.size() && !st->over; ++i) {
    const std::string req = v2::encode_cache_get_request(0, keys[i]);
    send_round(
        loop, b, v2::Op::kCacheGet,
        std::string_view(req).substr(v2::kHeaderBytes), budget,
        [this, st, i, give_up](const v2::Frame* f, const std::string&) {
          if (st->over) return;
          if (f == nullptr) return give_up(*st, false);
          bool hit = false;
          try {
            hit = f->kind == v2::Kind::kOk &&
                  v2::decode_cache_get_response(f->body, f->request_id,
                                                &st->blobs[i]);
          } catch (const v2::V2Error&) {
            return give_up(*st, false);
          }
          if (!hit) return give_up(*st, true);
          if (--st->unanswered > 0) return;
          st->over = true;
          {
            const std::lock_guard<std::mutex> lock(state_mu_);
            while (st->rids.size() < st->jobs->size())
              st->rids.push_back(next_router_id_++);
          }
          // Bill the lookup's wall time across the jobs, as a backend
          // bills its cache-lookup time to each admitted hit.
          const double secs =
              std::chrono::duration<double>(Clock::now() - st->t0).count() /
              static_cast<double>(st->jobs->size());
          std::vector<std::string> bodies;
          for (std::size_t k = 0; k < st->jobs->size(); ++k) {
            bodies.push_back(result_from_blob(st->blobs[k], (*st->jobs)[k],
                                              st->rids[k], secs));
            if (bodies.back().empty()) {
              // Fetched but undecodable (version skew, torn frame): count
              // it and simulate — a peer's garbage must never become our
              // error.
              return give_up(*st, false);
            }
          }
          st->done(std::move(bodies), std::move(st->rids));
        },
        /*peer=*/true);
  }
}

// --- placement and failover --------------------------------------------------

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

void Router::place_group(net::EventLoop& loop, std::size_t group_idx,
                         std::size_t from, std::size_t exclude) {
  if (stopping_.load()) return;
  auto call = std::make_shared<PlaceCall>();
  call->loop = &loop;
  call->group = group_idx;
  Hash128 key;
  std::vector<std::uint64_t> router_ids;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    SubmitGroup* g = groups_[group_idx].get();
    // Reclaimed, moved meanwhile, or someone else is placing it.
    if (!g || g->placing || g->backend != from) return;
    for (const std::uint64_t rid : g->router_ids) {
      const auto it = jobs_.find(rid);
      if (it != jobs_.end() && it->second.result_json.empty()) ++call->pending;
    }
    if (call->pending == 0) return;  // fully served (or released): no move
    g->placing = true;
    g->backend = npos;  // result-waits poll until it lands
    call->payload = g->payload;
    call->expected = g->router_ids.size();
    key = g->route_key;
    router_ids = g->router_ids;
  }
  call->candidates = placement(key, exclude);
  // Tier-3 peer read-through on re-placement (docs/CACHE.md): a group
  // being re-landed may already be answered somewhere in the fleet —
  // notably when its owner crashed after finishing the work but before
  // the client fetched it, and restarted on a durable --cache-dir. One
  // bounded cache round against the best-placed survivor beats
  // re-simulating the whole group; any miss or failure proceeds to the
  // normal resubmission.
  if (opts_.affinity && opts_.peer_read_through && !call->candidates.empty())
    if (auto jobs = decode_jobs(call->payload);
        jobs && jobs->size() == call->expected)
      return peer_results(
          loop, call->candidates[0], std::move(jobs), router_ids,
          [this, call](std::optional<std::vector<std::string>> bodies,
                       std::vector<std::uint64_t> rids) {
            if (!bodies) return place_next(call);
            const std::lock_guard<std::mutex> lock(state_mu_);
            SubmitGroup* g = groups_[call->group].get();
            if (!g) return;
            g->placing = false;  // fully served: nothing left to place
            for (std::size_t i = 0; i < rids.size(); ++i) {
              const auto it = jobs_.find(rids[i]);
              if (it != jobs_.end() && it->second.result_json.empty())
                it->second.result_json = std::move((*bodies)[i]);
            }
            ++counters_.peer_hits;
            counters_.peer_jobs_served += call->pending;
          });
  place_next(call);
}

void Router::place_next(const PlacePtr& call) {
  if (call->rank == call->candidates.size()) {
    // Nowhere to land right now (whole fleet down or saturated). Leave it
    // unplaced: result waiters keep polling and the next breaker-close or
    // not_found retry will try again.
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (SubmitGroup* g = groups_[call->group].get()) g->placing = false;
    return;
  }
  const std::size_t b = call->candidates[call->rank++];
  send_round(
      *call->loop, b, v2::Op::kSubmit, call->payload, kRoundSlackMs,
      [this, call, b](const v2::Frame* f, const std::string&) {
        const json::Value resp = answer_json(f ? f->body : "");
        // Failed, full or draining: the next candidate.
        if (!resp.get_bool("ok", false)) return place_next(call);
        std::vector<std::uint64_t> ids = ids_from_response(resp);
        const bool duplicate = resp.get_bool("duplicate", false);
        if (ids.size() != call->expected) {
          // The backend accepted (or remembered) the group in a different
          // shape than it admitted it. A fresh acceptance we walk away
          // from would run as orphans, so cancel it best-effort; a
          // duplicate reply maps to jobs another submit may own, so
          // leave it alone and just skip this candidate.
          if (!duplicate) cancel_backend_ids(*call->loop, b, ids);
          return place_next(call);
        }
        bool claimed = false;
        {
          const std::lock_guard<std::mutex> lock(state_mu_);
          if (SubmitGroup* g = groups_[call->group].get()) {
            g->placing = false;
            g->backend = b;
            g->backend_ids = ids;
            counters_.jobs_rerouted += call->pending;
            claimed = true;
          }
        }
        if (!claimed) {
          // Every job was fetched-and-released while we were
          // resubmitting: nobody will ever collect this copy, so unwind
          // it best-effort.
          if (!duplicate) cancel_backend_ids(*call->loop, b, ids);
          return;
        }
        // A breaker that opened while the group was in flight found it
        // unplaced and passed it by: move it on now.
        if (!health_.alive(b)) place_group(*call->loop, call->group, b, b);
      });
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

void Router::cancel_backend_ids(net::EventLoop& loop, std::size_t b,
                                const std::vector<std::uint64_t>& ids) {
  // Fire and forget: the breaker hears about transport failures anyway.
  for (const std::uint64_t id : ids)
    send_round(loop, b, v2::Op::kJson,
               "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}",
               kRoundSlackMs, [](const v2::Frame*, const std::string&) {});
}

void Router::fail_over(std::size_t dead) {
  std::vector<std::size_t> affected;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    for (std::size_t g = 0; g < groups_.size(); ++g)
      if (groups_[g] && groups_[g]->backend == dead) affected.push_back(g);
  }
  for (const std::size_t g : affected)
    place_group(front_.loops().at(0), g, dead, dead);
}

void Router::reroute_group(net::EventLoop& loop, std::size_t group_idx,
                           bool allow_current) {
  std::size_t current;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const SubmitGroup* g = groups_[group_idx].get();
    if (!g) return;  // fully released and reclaimed: nothing to move
    current = g->backend;
  }
  place_group(loop, group_idx, current, allow_current ? npos : current);
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
  // Transitions are reported from any thread (loops, the prober): the
  // re-placement runs on loop 0.
  if (to == BreakerState::kOpen && !stopping_.load())
    front_.loops().at(0).post([this, i] { fail_over(i); });
}

// --- the result path ---------------------------------------------------
// A `result` holds no thread: each round is one kResult round to the
// job's backend, and its answer (or failure) re-enters the client's loop
// to answer, re-issue, or reroute.

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
  auto forward = [&](const std::string& payload, std::uint64_t wait_ms) {
    send_round(call->reply.loop(), b, v2::Op::kResult, payload,
               wait_ms + kRoundSlackMs,
               [this, call, b](const v2::Frame* f, const std::string& error) {
                 if (f == nullptr) return round_failed(call, error);
                 on_result_answer(call, b, *f);
               });
  };
  if (!cached.empty()) {
    // An earlier fetch without release left the backend's record in
    // place: release it there too, best effort (a backend that died or
    // forgot the job has nothing left to reclaim), then answer.
    if (!call->release || !has_bid)
      return call->reply.send(serve::result_answer(rid, cached));
    call->cached = std::move(cached);
    return forward("{\"op\":\"result\",\"id\":" + std::to_string(bid) +
                       ",\"release\":true}",
                   0);
  }

  const std::uint64_t now = net::EventLoop::now_ms();
  if (b == npos) {
    // Unplaced (mid-failover, or no survivor yet): poll for a home.
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
  forward(ps.str(), wait_ms);
}

void Router::on_result_answer(const CallPtr& call, std::size_t b,
                              const v2::Frame& f) {
  const std::uint64_t rid = call->rid;
  if (!call->cached.empty())
    return call->reply.send(serve::result_answer(rid, call->cached));
  // A finished job's answer is known by masc-served's fixed prefix and
  // spliced unparsed: the backend's own bytes with the router's ids, so
  // a routed result is byte-equal to the same job's direct one
  // (docs/CLUSTER.md). Any other answer is parsed.
  if (const std::string_view body = serve::result_answer_body(f.body);
      !body.empty()) {
    std::string record = with_id(body, "index", rid);
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      const auto job = jobs_.find(rid);
      if (job != jobs_.end()) {
        if (call->release)
          release_job_locked(job);
        else
          job->second.result_json = record;
      }
      ++counters_.results_served;
    }
    return call->reply.send(serve::result_answer(rid, record));
  }
  const json::Value resp = answer_json(f.body);
  if (resp.is_null())
    return round_failed(call,
                        "garbled answer from " + opts_.backends[b].name());
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
  call->reply.send(with_id(f.body, "id", rid));
}

void Router::round_failed(const CallPtr& call, const std::string& what) {
  if (!call->cached.empty())  // the release was best effort
    return call->reply.send(serve::result_answer(call->rid, call->cached));
  if (stopping_.load()) return call->fail("shutting_down", "router stopping");
  // The breaker heard about it; if it opened, loop 0 is re-landing the
  // group. Re-read the mapping shortly, until the deadline (or attempt
  // budget).
  if (call->wait ? net::EventLoop::now_ms() >= call->deadline_ms
                 : ++call->attempts >= 3)
    return call->fail("unavailable", what);
  retry_after(call, 50, false);
}

void Router::retry_after(const CallPtr& call, std::uint64_t delay_ms,
                         bool reroute) {
  if (reroute)
    reroute_group(call->reply.loop(), call->group, /*allow_current=*/true);
  if (delay_ms == 0) return result_round(call);
  call->reply.loop().add_timer(delay_ms, [this, call] { result_round(call); });
}

// --- cache_get, status/cancel/extend, stats ---------------------------------

void Router::handle_cache_get(const Hash128& key, const serve::Reply& reply) {
  // Fleet cache lookup: the key IS the content hash affinity routes by,
  // so under affinity the first candidate is exactly the backend whose
  // cache would hold it. The remaining alive backends are asked only on
  // a miss (bounded by fleet size; a cache probe is cheap).
  struct Walk {
    serve::Reply reply;
    std::string request;
    std::vector<std::size_t> candidates;
    std::size_t rank = 0;
    bool missed = false;  ///< a definite miss from a live cache
    std::function<void(const std::shared_ptr<Walk>&)> next;
  };
  auto walk = std::make_shared<Walk>();
  walk->reply = reply;
  walk->request = v2::encode_cache_get_request(0, key).substr(v2::kHeaderBytes);
  walk->candidates = placement(key);
  walk->next = [this](const std::shared_ptr<Walk>& w) {
    if (w->rank == w->candidates.size()) {
      if (!w->missed)
        return w->reply.send(error_json("unavailable", "no alive backend"));
      return w->reply.send_cache_record(std::nullopt);
    }
    const std::size_t b = w->candidates[w->rank++];
    send_round(w->reply.loop(), b, v2::Op::kCacheGet, w->request,
               kRoundSlackMs,
               [w](const v2::Frame* f, const std::string&) {
                 std::string record;
                 try {
                   if (f && f->kind == v2::Kind::kOk) {
                     if (v2::decode_cache_get_response(f->body, f->request_id,
                                                       &record))
                       return w->reply.send_cache_record(std::move(record));
                     w->missed = true;
                   }
                 } catch (const v2::V2Error&) {
                 }
                 w->next(w);
               });
  };
  walk->next(walk);
}

std::optional<std::string> Router::forward_by_id(const json::Value& req,
                                                 const std::string& op,
                                                 const serve::Reply& reply) {
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
    const std::string_view st = json::member_text(cached, "status");
    return "{\"ok\":true,\"type\":\"status\"," + id_member(rid) +
           ",\"state\":\"done\",\"status\":" +
           (st.empty() ? "\"finished\"" : std::string(st)) + "}";
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
  send_round(
      reply.loop(), b, v2::Op::kJson, ps.str(), kRoundSlackMs,
      [this, reply, rid, gidx, op, rerouting](const v2::Frame* f,
                                              const std::string& error) {
        json::Value resp = answer_json(f ? f->body : "");
        if (resp.is_null())
          return reply.send(error_json(
              "unavailable", f ? "garbled answer" : error, id_member(rid)));
        const bool ok = resp.get_bool("ok", false);
        if (op == "status" && !ok &&
            resp.get_string("error", "") == "not_found") {
          // Amnesiac backend: kick a reroute and report the honest state.
          reroute_group(reply.loop(), gidx, /*allow_current=*/true);
          return reply.send(rerouting);
        }
        if (op == "extend" && ok) {
          // The backend requeued the job: drop our stale cached result so
          // the next result fetch waits for the extension's outcome.
          const std::lock_guard<std::mutex> lock(state_mu_);
          const auto it = jobs_.find(rid);
          if (it != jobs_.end()) it->second.result_json.clear();
        }
        reply.send(with_id(f->body, "id", rid));
      });
  return std::nullopt;
}

Router::Counters Router::counters() const {
  const std::lock_guard<std::mutex> lock(state_mu_);
  Counters n = counters_;
  n.jobs_tracked = jobs_.size();
  for (const auto& g : groups_)
    if (g) ++n.groups_live;
  return n;
}

void Router::stats(net::EventLoop& loop,
                   std::function<void(const std::string&)> done) {
  // One kStats round per alive backend, joined by a counter; a backend
  // that is down or misses its deadline reports "up":false.
  struct Fanout {
    std::vector<std::string> answers;
    std::vector<std::string> errors;
    std::size_t waiting = 1;  ///< rounds in flight, plus the sender
    std::function<void(const std::string&)> done;
  };
  auto fan = std::make_shared<Fanout>();
  fan->answers.resize(opts_.backends.size());
  fan->errors.resize(opts_.backends.size());
  fan->done = std::move(done);
  auto render = [this, fan] {
    metrics::Registry r(metrics::Format::kJson, kMetricPrefix);
    describe(r, fan->answers, fan->errors);
    fan->done(r.str());
  };
  for (std::size_t i = 0; i < opts_.backends.size(); ++i) {
    if (!health_.alive(i)) continue;
    ++fan->waiting;
    send_round(loop, i, v2::Op::kStats, "{\"op\":\"stats\"}", kRoundSlackMs,
               [fan, i, render](const v2::Frame* f, const std::string& error) {
                 fan->answers[i] = f ? std::string(f->body) : std::string();
                 fan->errors[i] = f ? std::string() : error;
                 if (--fan->waiting == 0) render();
               });
  }
  if (--fan->waiting == 0) render();
}

std::string Router::metrics_text() {
  const std::size_t n = opts_.backends.size();
  metrics::Registry r(metrics::Format::kPrometheus, kMetricPrefix);
  describe(r, std::vector<std::string>(n), std::vector<std::string>(n));
  return r.str();
}

void Router::describe(metrics::Registry& r,
                      const std::vector<std::string>& answers,
                      const std::vector<std::string>& errors) {
  const Counters n = counters();
  const BreakerCounts trans = health_.totals();
  const std::vector<std::size_t> outstanding = outstanding_by_backend();
  r.begin("router");
  r.gauge("backends", opts_.backends.size(), "backends", "Configured backends");
  r.gauge("alive", health_.alive_count(), "backends_alive",
          "Backends whose breaker is not open");
  r.text("mode", opts_.affinity ? "affinity" : "least_queued");
  r.counter("submits_routed", n.submits_routed, "submits_routed_total",
            "Client submits placed on a backend");
  r.counter("jobs_routed", n.jobs_routed, "jobs_routed_total",
            "Jobs in placed submits");
  r.counter("jobs_rerouted", n.jobs_rerouted, "jobs_rerouted_total",
            "Jobs re-landed by failover or diverted around saturation");
  r.counter("submits_rejected", n.submits_rejected, "submits_rejected_total",
            "Submits refused fleet-wide (queue_full/unavailable)");
  r.counter("results_served", n.results_served, "results_served_total",
            "Result responses returned to clients");
  r.counter("ring_moves", n.ring_moves, "ring_moves_total",
            "Routable-set changes (backend died or recovered)");
  r.gauge("jobs_tracked", n.jobs_tracked, "jobs_tracked",
          "Jobs the router still tracks (unfetched or unreleased)");
  r.gauge("groups_live", n.groups_live, "groups_live",
          "Submit groups not yet fully released");
  r.begin("peer_cache");
  r.counter("lookups", n.peer_lookups, "peer_cache_lookups_total",
            "Peer cache read-through rounds attempted");
  r.counter("hits", n.peer_hits, "peer_cache_hits_total",
            "Submit groups served whole from a peer's result cache");
  r.counter("jobs_served", n.peer_jobs_served, "peer_cache_jobs_served_total",
            "Jobs answered from a peer cache instead of re-simulating");
  r.counter("misses", n.peer_misses, "peer_cache_misses_total",
            "Peer cache rounds abandoned on a missing key");
  r.counter("errors", n.peer_errors, "peer_cache_errors_total",
            "Peer cache rounds abandoned on transport or decode failure");
  r.end();
  r.begin("breaker");
  r.counter("opened", trans.opened, "breaker_opened_total",
            "Breaker transitions to open");
  r.counter("half_opened", trans.half_opened, "breaker_half_opened_total",
            "Breaker transitions to half-open");
  r.counter("closed", trans.closed, "breaker_closed_total",
            "Breaker recoveries to closed");
  r.end();
  r.end();

  // Per-backend roll-call with each one's own stats document; the fleet
  // totals below sum what was reachable (a down backend contributes
  // nothing — honest, if momentarily lopsided).
  FleetTotals fleet;
  r.begin_array("backends");
  for (std::size_t i = 0; i < opts_.backends.size(); ++i) {
    const std::string name = opts_.backends[i].name();
    r.begin();
    r.text("endpoint", name);
    r.text("breaker", to_string(health_.state(i)));
    r.gauge("outstanding", outstanding[i], "backend_outstanding",
            "Router-tracked unfinished jobs per backend", {"backend", name});
    r.gauge({}, health_.alive(i), "backend_up",
            "1 when the backend's breaker is not open", {"backend", name});
    const json::Value resp = answer_json(answers[i]);
    const json::Value* stats = resp.find("stats");
    if (resp.get_bool("ok", false) && stats && add_to_fleet(*stats, fleet)) {
      r.value("up", true);
      // The backend's own bytes: a re-render would reprint its doubles.
      r.raw("stats", json::member_text(answers[i], "stats"));
    } else {
      r.value("up", false);
      if (!errors[i].empty()) r.text("error", errors[i]);
    }
    r.end();
  }
  r.end();
  r.begin("fleet");
  r.value("submitted", fleet.submitted);
  r.value("rejected", fleet.rejected);
  r.value("queue_depth", fleet.queue_depth);
  r.value("in_flight", fleet.in_flight);
  r.value("cache_hits", fleet.cache_hits);
  r.value("cache_misses", fleet.cache_misses);
  r.value("cycles", fleet.cycles);
  r.end();
}

}  // namespace masc::cluster
