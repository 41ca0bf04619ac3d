#include "cluster/router.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <sstream>

#include "common/base64.hpp"
#include "common/hash.hpp"
#include "fault/fault.hpp"
#include "serve/framing.hpp"
#include "sim/sweep.hpp"

namespace masc::cluster {

using serve::Client;
using serve::PooledClient;
using serve::ServeError;
namespace v2 = serve::v2;

namespace {

using Clock = std::chrono::steady_clock;

std::string error_json(const std::string& code, const std::string& detail,
                       const std::string& extra = "") {
  std::ostringstream os;
  os << "{\"ok\":false,\"error\":\"" << json_escape(code) << "\"";
  if (!detail.empty()) os << ",\"detail\":\"" << json_escape(detail) << "\"";
  if (!extra.empty()) os << "," << extra;
  os << "}";
  return os.str();
}

std::uint64_t require_id(const json::Value& req) {
  const json::Value* id = req.find("id");
  if (!id) throw JsonError("missing \"id\"");
  return id->as_uint();
}

std::string submitted_json(const std::vector<std::uint64_t>& ids,
                           bool duplicate) {
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"submitted\",\"ids\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) os << ",";
    os << ids[i];
  }
  os << "],\"duplicate\":" << (duplicate ? "true" : "false") << "}";
  return os.str();
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
      pool_(opts_.connect_timeout_ms, opts_.io_timeout_ms) {
  if (opts_.backends.empty()) throw ServeError("router needs >= 1 backend");
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

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw ServeError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServeError("bind/listen 127.0.0.1:" + std::to_string(opts_.port) +
                     ": " + what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  net::LoopConfig loop_cfg;
  loop_cfg.idle_timeout_ms = opts_.idle_timeout_ms;
  loop_cfg.io_timeout_ms = 0;  // client-face frames are never throttled
  loop_cfg.max_frame_bytes = serve::kMaxFrameBytes;
  loop_cfg.on_frame = [this](net::Conn& c, std::string&& payload) {
    on_frame(c, std::move(payload));
  };
  loops_ = std::make_unique<net::LoopGroup>(
      opts_.io_threads ? opts_.io_threads : 1, loop_cfg);
  loops_->start();
  handlers_ = std::make_unique<net::TaskPool>(
      opts_.handler_threads ? opts_.handler_threads : 4);
  handlers_->start();

  accept_thread_ = std::thread([this] { accept_loop(); });
  if (opts_.probe_interval_ms > 0) health_.start(opts_.probe_interval_ms);
}

void Router::stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;
  // Serialize with keyed-submit waiters exactly like the server does:
  // take and drop the lock so no waiter can miss the notify.
  { const std::lock_guard<std::mutex> lock(state_mu_); }
  jobs_cv_.notify_all();

  health_.stop();

  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain in dependency order: handler tasks (which see stopping_ and
  // finish fast) may still post responses, so the loops stop after the
  // pool — their teardown flushes the last posted deliveries.
  if (handlers_) handlers_->stop();
  if (loops_) loops_->stop();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Router::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    serve::set_nodelay(fd);
    loops_->next().adopt(fd);
  }
}

Router::ConnState& Router::conn_state(net::Conn& c) {
  if (!c.ctx) c.ctx = std::make_shared<ConnState>();
  return *static_cast<ConnState*>(c.ctx.get());
}

void Router::send_v1(net::Conn& c, std::uint64_t slot, std::string&& resp) {
  ConnState& st = conn_state(c);
  for (auto& [s, r] : st.v1_q)
    if (s == slot) {
      r = std::move(resp);
      break;
    }
  while (!st.v1_q.empty() && st.v1_q.front().second) {
    c.send_frame(*st.v1_q.front().second);
    st.v1_q.pop_front();
    if (c.closing()) return;
  }
}

void Router::dispatch(net::Conn& c, Pending p, std::string&& payload,
                      const char* forced_op) {
  net::EventLoop* loop = &c.loop();
  const std::uint64_t conn_id = c.id();
  handlers_->submit([this, loop, conn_id, p, forced_op,
                     req = std::move(payload)]() mutable {
    // Handler thread: free to block on backend round-trips. The
    // response is rendered to its final outgoing payload here, then
    // posted to the owning loop, which only looks up the conn (it may
    // have died meanwhile) and writes.
    std::string out;
    bool drop = false;
    try {
      std::string resp = handle_request(req, forced_op);
      if (!p.v2) {
        out = std::move(resp);
      } else if (p.v2_op == v2::Op::kCacheGet && !v2::is_error_body(resp)) {
        // Re-encode the backend's JSON answer as the binary v2 body.
        try {
          const json::Value r = parse_json(resp);
          if (r.get_bool("found", false))
            out = v2::encode_cache_get_hit(
                p.v2_id, base64_decode(r.get_string("payload", "")));
          else
            out = v2::encode_cache_get_miss(p.v2_id);
        } catch (const std::exception& e) {
          out = v2::encode(p.v2_op, v2::Kind::kError, p.v2_id,
                           error_json("bad_gateway", e.what()));
        }
      } else {
        out = v2::encode(p.v2_op,
                         v2::is_error_body(resp) ? v2::Kind::kError
                                                 : v2::Kind::kOk,
                         p.v2_id, resp);
      }
    } catch (const std::exception&) {
      // ServeError out of handle_request means the stream is not to be
      // trusted (matching the server): drop the connection.
      drop = true;
    }
    loop->post([this, loop, conn_id, p, drop, out = std::move(out)]() mutable {
      net::Conn* c = loop->find(conn_id);
      if (!c) return;  // client hung up while we worked
      if (drop) {
        c->close();
        return;
      }
      if (p.v2)
        c->send_frame(out);
      else
        send_v1(*c, p.v1_slot, std::move(out));
    });
  });
}

void Router::on_frame(net::Conn& c, std::string&& payload) {
  if (v2::is_v2(payload)) {
    handle_v2_frame(c, payload);
    return;
  }
  ConnState& st = conn_state(c);
  Pending p;
  p.v1_slot = st.next_slot++;
  st.v1_q.emplace_back(p.v1_slot, std::nullopt);
  dispatch(c, p, std::move(payload), nullptr);
}

void Router::handle_v2_frame(net::Conn& c, const std::string& payload) {
  v2::Frame f;
  try {
    f = v2::decode(payload);
  } catch (const v2::V2Error& e) {
    if (e.fatal()) {
      c.close();  // header garbage: the stream can't be trusted
      return;
    }
    const std::uint8_t op_byte =
        payload.size() > 2 ? static_cast<std::uint8_t>(payload[2]) : 0;
    c.send_frame(v2::encode(static_cast<v2::Op>(op_byte), v2::Kind::kError,
                            e.request_id(),
                            error_json(e.code(), e.what())));
    return;
  }
  if (f.kind != v2::Kind::kRequest) {
    c.send_frame(v2::encode(f.op, v2::Kind::kError, f.request_id,
                            error_json("bad_frame",
                                       "expected a request frame")));
    return;
  }
  Pending p;
  p.v2 = true;
  p.v2_id = f.request_id;
  p.v2_op = f.op;
  if (f.op == v2::Op::kCacheGet) {
    // Binary in, binary out on the client face; the fleet lookup
    // itself is the same JSON forward handle_cache_get always does.
    try {
      const Hash128 key = v2::decode_cache_get_key(f.body, f.request_id);
      dispatch(c, p,
               "{\"op\":\"cache_get\",\"key\":\"" + to_hex(key) + "\"}",
               "cache_get");
    } catch (const v2::V2Error& e) {
      c.send_frame(v2::encode(f.op, v2::Kind::kError, e.request_id(),
                              error_json(e.code(), e.what())));
    }
    return;
  }
  const char* forced_op = f.op == v2::Op::kSubmit   ? "submit"
                          : f.op == v2::Op::kResult ? "result"
                                                    : "stats";
  dispatch(c, p, std::string(f.body), forced_op);
}

std::string Router::handle_request(const std::string& payload,
                                   const char* forced_op) {
  try {
    const json::Value req = parse_json(payload.empty() ? "{}" : payload);
    const std::string op = forced_op ? forced_op : req.get_string("op", "");
    if (op == "ping") return "{\"ok\":true,\"type\":\"pong\"}";
    if (op == "hello") {
      // Same negotiation contract as the server (docs/NET.md): the
      // router speaks v2 on its client face regardless of what its
      // backends speak — v2 frames are translated per-op.
      unsigned best = 1;
      if (const json::Value* v = req.find("versions"); v && v->is_array())
        for (const auto& e : v->as_array())
          if (e.is_number() && e.as_uint() == 2) best = 2;
      return "{\"ok\":true,\"type\":\"hello\",\"version\":" +
             std::to_string(best) + ",\"versions\":[1,2]}";
    }
    if (op == "submit") return handle_submit(req);
    if (op == "status") return handle_status(req);
    if (op == "result") return handle_result(req);
    if (op == "cache_get") return handle_cache_get(req);
    if (op == "cancel" || op == "extend")
      return handle_forwarded_by_id(req, op);
    if (op == "stats")
      return "{\"ok\":true,\"type\":\"stats\",\"stats\":" + stats_json() + "}";
    if (op == "metrics_text")
      return "{\"ok\":true,\"type\":\"metrics_text\",\"text\":\"" +
             json_escape(metrics_text()) + "\"}";
    if (op == "shutdown") {
      shutdown_requested_.store(true, std::memory_order_release);
      return "{\"ok\":true,\"type\":\"shutdown\"}";
    }
    return error_json("unknown_op", "unrecognized \"op\" \"" + op + "\"");
  } catch (const ServeError&) {
    throw;  // transport desync: drop the session, as the server does
  } catch (const std::exception& e) {
    return error_json("bad_request", e.what());
  }
}

json::Value Router::backend_request(std::size_t b, const std::string& payload,
                                    std::optional<v2::Op> hot,
                                    std::string* raw) {
  const BackendSpec& be = opts_.backends[b];
  if (!health_.allow(b))
    throw ServeError("breaker open for backend " + be.name());
  try {
    if (auto* inj = fault::active(); inj && inj->on_backend_request())
      throw ServeError("injected fault: request to " + be.name() + " failed");
    PooledClient lease(pool_, be.host, be.port);
    json::Value resp;
    try {
      // Hot ops ride protocol v2 against a v2-capable backend: one
      // hello per pooled connection, then the same JSON in a binary
      // envelope (responses are bit-identical by construction).
      if (hot && !lease->negotiated()) lease->negotiate();
      std::string text = hot && lease->protocol() >= 2
                             ? lease->request_v2_raw(*hot, payload)
                             : lease->request_raw(payload);
      resp = parse_json(text);
      if (raw) *raw = std::move(text);
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

std::optional<std::vector<std::string>> Router::peer_cache_fetch(
    std::size_t b, const std::vector<Hash128>& keys) {
  // Like the health prober, a peer read is a fresh short-deadline
  // connection: a hung peer costs one bounded round, never a parked
  // pooled socket. It also bypasses the breaker on purpose — a failed
  // optimization must not generate failure events that could open a
  // breaker and trigger a real failover.
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++peer_lookups_;
  }
  bool miss = false;
  try {
    const BackendSpec& be = opts_.backends[b];
    const std::uint64_t budget =
        opts_.peer_timeout_ms ? opts_.peer_timeout_ms : 250;
    Client c;
    c.connect(be.host, be.port, budget);
    c.set_io_timeout_ms(budget);
    std::vector<std::string> blobs;
    blobs.reserve(keys.size());
    if (c.negotiate() >= 2) {
      // v2 peer: pipeline every binary cache_get before reading the
      // first response — the whole round costs one RTT and zero
      // base64/JSON, which is what keeps peer_timeout_ms honest for
      // large groups (docs/NET.md "Pipelining").
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
    } else {
      for (const Hash128& k : keys) {
        const json::Value resp = c.request(
            "{\"op\":\"cache_get\",\"key\":\"" + to_hex(k) + "\"}");
        if (!resp.get_bool("ok", false) || !resp.get_bool("found", false)) {
          miss = true;  // a single absent key abandons the whole round:
          break;        // a partial serve would still cost a submission
        }
        blobs.push_back(base64_decode(resp.get_string("payload", "")));
      }
    }
    if (!miss) return blobs;
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(state_mu_);
    ++peer_errors_;
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(state_mu_);
  ++peer_misses_;
  return std::nullopt;
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

std::string Router::handle_submit(const json::Value& req) {
  const json::Value* jobs_v = req.find("jobs");
  if (!jobs_v || !jobs_v->is_array() || jobs_v->as_array().empty())
    throw JsonError("submit needs a non-empty \"jobs\" array");
  if (stopping_.load()) return error_json("shutting_down", "router stopping");
  const std::uint64_t deadline_ms = req.get_uint("deadline_ms", 0);
  const std::string client_key = req.get_string("key", "");

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

  // Router-level idempotency on the client's key: a repeat gets the
  // original router ids; a concurrent repeat waits for the first
  // attempt to resolve instead of double-submitting.
  if (!client_key.empty()) {
    std::unique_lock<std::mutex> lock(state_mu_);
    for (;;) {
      const auto it = by_client_key_.find(client_key);
      if (it == by_client_key_.end()) break;
      if (it->second.ready) return submitted_json(it->second.ids, true);
      if (stopping_.load())
        return error_json("shutting_down", "router stopping");
      if (jobs_cv_.wait_for(lock, std::chrono::seconds(30)) ==
          std::cv_status::timeout)
        return error_json("unavailable",
                          "keyed submit \"" + client_key +
                              "\" still unresolved after 30s");
    }
    by_client_key_.emplace(client_key, KeyedSubmit{});  // reserve
  }

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

  std::ostringstream ps;
  ps << "{\"op\":\"submit\",\"key\":\"" << json_escape(fleet_key) << "\"";
  if (deadline_ms > 0) ps << ",\"deadline_ms\":" << deadline_ms;
  ps << ",\"jobs\":" << jobs_json << "}";
  const std::string payload = ps.str();

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
      const auto t0 = Clock::now();
      if (const auto blobs = peer_cache_fetch(candidates[0], job_keys)) {
        std::vector<std::uint64_t> rids(njobs);
        {
          const std::lock_guard<std::mutex> lock(state_mu_);
          for (auto& rid : rids) rid = next_router_id_++;
        }
        // Bill the peer round's wall time across the jobs, as a backend
        // bills its cache-lookup time to each admitted hit.
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count() /
            static_cast<double>(njobs);
        std::vector<std::string> bodies(njobs);
        bool decoded = true;
        for (std::size_t i = 0; i < njobs && decoded; ++i) {
          bodies[i] = result_from_blob((*blobs)[i], parsed[i], rids[i], secs);
          if (bodies[i].empty()) decoded = false;
        }
        if (decoded) {
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
              jobs_.emplace(rids[i], JobEntry{gidx, i, std::move(bodies[i])});
            groups_.push_back(std::move(group));
            ++submits_routed_;
            jobs_routed_ += njobs;
            ++peer_hits_;
            peer_jobs_served_ += njobs;
            if (!client_key.empty())
              by_client_key_[client_key] = KeyedSubmit{rids, true};
          }
          jobs_cv_.notify_all();
          return submitted_json(rids, false);
        }
        // Fetched but undecodable (version skew, torn frame): count it
        // and simulate — a peer's garbage must never become our error.
        const std::lock_guard<std::mutex> lock(state_mu_);
        ++peer_errors_;
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
      if (!client_key.empty()) {
        const std::lock_guard<std::mutex> lock(state_mu_);
        by_client_key_.erase(client_key);
        jobs_cv_.notify_all();
      }
      return json::serialize(resp);
    }
    std::vector<std::uint64_t> backend_ids;
    try {
      backend_ids = ids_from_response(resp);
    } catch (const std::exception& e) {
      // ok:true without a usable "ids" array: treat it as a candidate
      // failure (as place_group does) — it must never unwind past the
      // keyed reservation above, which would wedge that client key.
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
      ++submits_routed_;
      jobs_routed_ += njobs;
      if (rank > 0) jobs_rerouted_ += njobs;  // diverted around saturation
      if (!client_key.empty())
        by_client_key_[client_key] = KeyedSubmit{router_ids, true};
    }
    jobs_cv_.notify_all();
    return submitted_json(router_ids, false);
  }

  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (!client_key.empty()) by_client_key_.erase(client_key);
    ++submits_rejected_;
  }
  jobs_cv_.notify_all();
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
    std::ostringstream ps;
    ps << "{\"op\":\"submit\",\"key\":\"" << json_escape(g->fleet_key)
       << "\"";
    if (g->deadline_ms > 0) ps << ",\"deadline_ms\":" << g->deadline_ms;
    ps << ",\"jobs\":" << g->jobs_json << "}";
    payload = ps.str();
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
    if (!cands.empty()) {
      const auto t0 = Clock::now();
      if (const auto blobs = peer_cache_fetch(cands[0], job_keys)) {
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count() /
            static_cast<double>(expected);
        std::vector<std::string> bodies(expected);
        bool decoded = true;
        try {
          const json::Value jv = parse_json(jobs_json);
          if (!jv.is_array() || jv.as_array().size() != expected)
            decoded = false;
          for (std::size_t i = 0; i < expected && decoded; ++i) {
            const SweepJob job = serve::job_from_json(jv.as_array()[i]);
            bodies[i] =
                result_from_blob((*blobs)[i], job, router_ids[i], secs);
            if (bodies[i].empty()) decoded = false;
          }
        } catch (const std::exception&) {
          decoded = false;
        }
        bool served = false;
        {
          const std::lock_guard<std::mutex> lock(state_mu_);
          if (decoded) {
            if (SubmitGroup* g = groups_[group_idx].get()) {
              g->backend = npos;  // fully served: nothing left to place
              for (std::size_t i = 0; i < expected; ++i) {
                const auto it = jobs_.find(router_ids[i]);
                if (it != jobs_.end() && it->second.result_json.empty())
                  it->second.result_json = std::move(bodies[i]);
              }
              ++peer_hits_;
              peer_jobs_served_ += pending;
              served = true;
            }
          } else {
            ++peer_errors_;
          }
        }
        if (served) {
          jobs_cv_.notify_all();
          return true;
        }
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
        jobs_rerouted_ += pending;
        claimed = true;
      }
    }
    if (!claimed) {
      // Every job was fetched-and-released while we were resubmitting:
      // nobody will ever collect this copy, so unwind it best-effort.
      if (!duplicate) cancel_backend_ids(b, ids);
      return true;
    }
    jobs_cv_.notify_all();
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
  // Recursive: resubmitting to a survivor can open ITS breaker mid-loop
  // and re-enter fail_over from the transition callback on this thread.
  const std::lock_guard<std::recursive_mutex> lock(failover_mu_);
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
  const std::lock_guard<std::recursive_mutex> lock(failover_mu_);
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
    ++ring_moves_;
  }
  if (to == BreakerState::kOpen && !stopping_.load()) fail_over(i);
}

std::string Router::handle_result(const json::Value& req) {
  const std::uint64_t rid = require_id(req);
  const bool wait = req.get_bool("wait", false);
  const bool release = req.get_bool("release", false);
  const auto deadline =
      Clock::now() +
      std::chrono::milliseconds(req.get_uint("timeout_ms", 60'000));

  unsigned attempts = 0;
  for (;;) {
    // The wait/retry deadline is client-chosen (and unbounded): never
    // let it outlive the router — stop() joins this session's thread.
    if (stopping_.load())
      return error_json("shutting_down", "router stopping",
                        "\"id\":" + std::to_string(rid));
    std::string cached;
    std::size_t gidx = 0, b = npos;
    std::uint64_t bid = 0;
    bool has_bid = false;
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      const auto it = jobs_.find(rid);
      if (it == jobs_.end())
        return error_json("not_found", "no job " + std::to_string(rid));
      gidx = it->second.group;
      const SubmitGroup& g = *groups_[gidx];
      b = g.backend;
      has_bid = b != npos && it->second.pos < g.backend_ids.size();
      if (has_bid) bid = g.backend_ids[it->second.pos];
      if (!it->second.result_json.empty()) {
        cached = it->second.result_json;
        if (release) release_job_locked(it);
        ++results_served_;
      }
    }
    if (!cached.empty()) {
      // An earlier fetch without release left the backend's record in
      // place: release it there too, best effort (a backend that died
      // or forgot the job has nothing left to reclaim).
      if (release && has_bid) {
        try {
          backend_request(b, "{\"op\":\"result\",\"id\":" +
                                 std::to_string(bid) + ",\"release\":true}",
                          v2::Op::kResult);
        } catch (const ServeError&) {
        }
      }
      return "{\"ok\":true,\"type\":\"result\",\"id\":" + std::to_string(rid) +
             ",\"result\":" + cached + "}";
    }

    const bool expired = Clock::now() >= deadline;
    if (b == npos) {
      // Unplaced (mid-failover with no survivor yet): poll for a home.
      if (!wait || expired)
        return error_json("not_ready",
                          "job " + std::to_string(rid) +
                              " is awaiting rerouting",
                          "\"id\":" + std::to_string(rid) +
                              ",\"state\":\"queued\"");
      reroute_group(gidx, /*allow_current=*/true);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }

    // Forward in bounded chunks so a failover mid-wait is noticed: the
    // backend blocks at most 2s per round, then the mapping is re-read.
    std::ostringstream ps;
    ps << "{\"op\":\"result\",\"id\":" << bid;
    // The router keeps no copy of a released result, so neither may the
    // backend: forward the release, or its record lives forever.
    if (release) ps << ",\"release\":true";
    if (wait) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      ps << ",\"wait\":true,\"timeout_ms\":"
         << std::min<std::int64_t>(std::max<std::int64_t>(left.count(), 0),
                                   2'000);
    }
    ps << "}";
    json::Value resp;
    std::string raw;
    try {
      resp = backend_request(b, ps.str(), v2::Op::kResult, &raw);
    } catch (const ServeError& e) {
      // Transport failure: the breaker heard about it; if it opened,
      // fail_over already re-landed the group on this thread. Re-read
      // the mapping and retry until the deadline (or attempt budget).
      if (wait ? Clock::now() >= deadline : ++attempts >= 3)
        return error_json("unavailable", e.what(),
                          "\"id\":" + std::to_string(rid));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (resp.get_bool("ok", false) &&
        resp.get_string("type", "") == "result") {
      // The backend's own bytes, spliced verbatim: a routed result is
      // byte-equal to the same job's direct one (docs/CLUSTER.md).
      const std::string body(json::member_text(raw, "result"));
      if (body.empty())
        return error_json("bad_gateway", "backend result lacks body");
      {
        const std::lock_guard<std::mutex> lock(state_mu_);
        const auto it = jobs_.find(rid);
        if (it != jobs_.end()) {
          if (release)
            release_job_locked(it);
          else
            it->second.result_json = body;
        }
        ++results_served_;
      }
      return "{\"ok\":true,\"type\":\"result\",\"id\":" + std::to_string(rid) +
             ",\"result\":" + body + "}";
    }
    const std::string err = resp.get_string("error", "");
    if (err == "not_ready") {
      if (!wait || expired)
        return error_json("not_ready",
                          "job " + std::to_string(rid) + " is " +
                              resp.get_string("state", "pending"),
                          "\"id\":" + std::to_string(rid) + ",\"state\":\"" +
                              resp.get_string("state", "queued") + "\"");
      continue;
    }
    if (err == "not_found") {
      // The backend forgot the job (restarted without its journal, or
      // the mapping is stale): resubmit the group under its fleet key.
      // Determinism makes the rerun's result bit-identical; the fleet
      // key makes a backend that DOES remember answer duplicate.
      if (++attempts > (wait ? 16u : 3u) || (wait && expired))
        return error_json("unavailable",
                          "backend lost job " + std::to_string(rid) +
                              " and rerouting failed",
                          "\"id\":" + std::to_string(rid));
      reroute_group(gidx, /*allow_current=*/true);
      continue;
    }
    if (err == "shutting_down") {
      // An announced drain is as good as a death: move the work now.
      health_.trip(b);
      if (wait ? Clock::now() >= deadline : ++attempts >= 3)
        return error_json("unavailable", "backend draining",
                          "\"id\":" + std::to_string(rid));
      continue;
    }
    rewrite_id(resp, rid);
    return json::serialize(resp);
  }
}

std::string Router::handle_status(const json::Value& req) {
  const std::uint64_t rid = require_id(req);
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
  if (!cached.empty()) {
    // Served from the router's copy; mirror the backend's shape.
    std::string status = "finished";
    try {
      status = parse_json(cached).get_string("status", "finished");
    } catch (const std::exception&) {
    }
    return "{\"ok\":true,\"type\":\"status\",\"id\":" + std::to_string(rid) +
           ",\"state\":\"done\",\"status\":\"" + json_escape(status) + "\"}";
  }
  if (b == npos)
    return "{\"ok\":true,\"type\":\"status\",\"id\":" + std::to_string(rid) +
           ",\"state\":\"queued\",\"rerouting\":true}";
  json::Value resp;
  try {
    resp = backend_request(
        b, "{\"op\":\"status\",\"id\":" + std::to_string(bid) + "}");
  } catch (const ServeError& e) {
    return error_json("unavailable", e.what(),
                      "\"id\":" + std::to_string(rid));
  }
  if (!resp.get_bool("ok", false) &&
      resp.get_string("error", "") == "not_found") {
    // Amnesiac backend: kick a reroute and report the honest state.
    reroute_group(gidx, /*allow_current=*/true);
    return "{\"ok\":true,\"type\":\"status\",\"id\":" + std::to_string(rid) +
           ",\"state\":\"queued\",\"rerouting\":true}";
  }
  rewrite_id(resp, rid);
  return json::serialize(resp);
}

std::string Router::handle_cache_get(const json::Value& req) {
  // Fleet cache lookup: the key IS the content hash affinity routes
  // by, so under affinity the first candidate is exactly the backend
  // whose cache would hold it. Scan the remaining alive backends only
  // on a miss (bounded by fleet size; a cache probe is cheap).
  const std::string key_hex = req.get_string("key", "");
  Hash128 key;
  if (!hash128_from_hex(key_hex, key))
    return error_json("bad_request", "\"key\" must be 32 hex chars");
  std::string last = error_json("unavailable", "no alive backend");
  for (const std::size_t b : placement(key)) {
    json::Value resp;
    try {
      resp = backend_request(
          b, "{\"op\":\"cache_get\",\"key\":\"" + key_hex + "\"}");
    } catch (const ServeError&) {
      continue;
    }
    if (resp.get_bool("ok", false) && resp.get_bool("found", false))
      return json::serialize(resp);
    if (resp.get_bool("ok", false))
      last = json::serialize(resp);  // a definite miss from a live cache
  }
  return last;
}

std::string Router::handle_forwarded_by_id(const json::Value& req,
                                           const std::string& op) {
  const std::uint64_t rid = require_id(req);
  std::size_t b = npos;
  std::uint64_t bid = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = jobs_.find(rid);
    if (it == jobs_.end())
      return error_json("not_found", "no job " + std::to_string(rid));
    const SubmitGroup& g = *groups_[it->second.group];
    b = g.backend;
    if (b != npos && it->second.pos < g.backend_ids.size())
      bid = g.backend_ids[it->second.pos];
  }
  if (b == npos)
    return error_json("not_ready",
                      "job " + std::to_string(rid) + " is being rerouted",
                      "\"id\":" + std::to_string(rid));
  std::ostringstream ps;
  ps << "{\"op\":\"" << op << "\",\"id\":" << bid;
  if (op == "extend" && req.find("deadline_ms"))
    ps << ",\"deadline_ms\":" << req.get_uint("deadline_ms", 0);
  ps << "}";
  json::Value resp;
  try {
    resp = backend_request(b, ps.str());
  } catch (const ServeError& e) {
    return error_json("unavailable", e.what(),
                      "\"id\":" + std::to_string(rid));
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

std::string Router::stats_json() {
  std::uint64_t submits_routed, jobs_routed, jobs_rerouted, submits_rejected,
      results_served, ring_moves, peer_lookups, peer_hits, peer_jobs_served,
      peer_misses, peer_errors, jobs_tracked, groups_live = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    submits_routed = submits_routed_;
    jobs_routed = jobs_routed_;
    jobs_rerouted = jobs_rerouted_;
    submits_rejected = submits_rejected_;
    results_served = results_served_;
    ring_moves = ring_moves_;
    peer_lookups = peer_lookups_;
    peer_hits = peer_hits_;
    peer_jobs_served = peer_jobs_served_;
    peer_misses = peer_misses_;
    peer_errors = peer_errors_;
    jobs_tracked = jobs_.size();
    for (const auto& g : groups_)
      if (g) ++groups_live;
  }
  const BreakerCounts trans = health_.totals();
  const std::vector<std::size_t> outstanding = outstanding_by_backend();

  std::ostringstream os;
  os << "{\"router\":{";
  os << "\"backends\":" << opts_.backends.size();
  os << ",\"alive\":" << health_.alive_count();
  os << ",\"mode\":\"" << (opts_.affinity ? "affinity" : "least_queued")
     << "\"";
  os << ",\"submits_routed\":" << submits_routed;
  os << ",\"jobs_routed\":" << jobs_routed;
  os << ",\"jobs_rerouted\":" << jobs_rerouted;
  os << ",\"submits_rejected\":" << submits_rejected;
  os << ",\"results_served\":" << results_served;
  os << ",\"ring_moves\":" << ring_moves;
  os << ",\"jobs_tracked\":" << jobs_tracked;
  os << ",\"groups_live\":" << groups_live;
  os << ",\"peer_cache\":{\"lookups\":" << peer_lookups
     << ",\"hits\":" << peer_hits << ",\"jobs_served\":" << peer_jobs_served
     << ",\"misses\":" << peer_misses << ",\"errors\":" << peer_errors
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
  std::uint64_t submits_routed, jobs_routed, jobs_rerouted, submits_rejected,
      results_served, ring_moves, peer_lookups, peer_hits, peer_jobs_served,
      peer_misses, peer_errors, jobs_tracked, groups_live = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    submits_routed = submits_routed_;
    jobs_routed = jobs_routed_;
    jobs_rerouted = jobs_rerouted_;
    submits_rejected = submits_rejected_;
    results_served = results_served_;
    ring_moves = ring_moves_;
    peer_lookups = peer_lookups_;
    peer_hits = peer_hits_;
    peer_jobs_served = peer_jobs_served_;
    peer_misses = peer_misses_;
    peer_errors = peer_errors_;
    jobs_tracked = jobs_.size();
    for (const auto& g : groups_)
      if (g) ++groups_live;
  }
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
  counter("masc_routerd_submits_routed_total", submits_routed,
          "Client submits placed on a backend");
  counter("masc_routerd_jobs_routed_total", jobs_routed,
          "Jobs in placed submits");
  counter("masc_routerd_jobs_rerouted_total", jobs_rerouted,
          "Jobs re-landed by failover or diverted around saturation");
  counter("masc_routerd_submits_rejected_total", submits_rejected,
          "Submits refused fleet-wide (queue_full/unavailable)");
  counter("masc_routerd_results_served_total", results_served,
          "Result responses returned to clients");
  counter("masc_routerd_ring_moves_total", ring_moves,
          "Routable-set changes (backend died or recovered)");
  counter("masc_routerd_peer_cache_lookups_total", peer_lookups,
          "Peer cache read-through rounds attempted");
  counter("masc_routerd_peer_cache_hits_total", peer_hits,
          "Submit groups served whole from a peer's result cache");
  counter("masc_routerd_peer_cache_jobs_served_total", peer_jobs_served,
          "Jobs answered from a peer cache instead of re-simulating");
  counter("masc_routerd_peer_cache_misses_total", peer_misses,
          "Peer cache rounds abandoned on a missing key");
  counter("masc_routerd_peer_cache_errors_total", peer_errors,
          "Peer cache rounds abandoned on transport or decode failure");
  gauge("masc_routerd_jobs_tracked", jobs_tracked,
        "Jobs the router still tracks (unfetched or unreleased)");
  gauge("masc_routerd_groups_live", groups_live,
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
