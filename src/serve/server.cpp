#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/base64.hpp"
#include "fault/fault.hpp"
#include "serve/framing.hpp"

namespace masc::serve {

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

const char* to_string(bool b) { return b ? "true" : "false"; }

std::string submitted_json(const std::vector<std::uint64_t>& ids,
                           bool duplicate) {
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"submitted\",\"ids\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) os << ",";
    os << ids[i];
  }
  os << "],\"duplicate\":" << to_string(duplicate) << "}";
  return os.str();
}

/// Inverse of masc::to_string(SweepStatus), for journal replay.
SweepStatus status_from_string(const std::string& s) {
  if (s == "finished") return SweepStatus::kFinished;
  if (s == "cycle-limit") return SweepStatus::kCycleLimit;
  if (s == "cancelled") return SweepStatus::kCancelled;
  if (s == "deadline-exceeded") return SweepStatus::kDeadlineExceeded;
  return SweepStatus::kError;
}

std::string ckpt_record(std::uint64_t id, const std::string& blob) {
  return "{\"rec\":\"ckpt\",\"id\":" + std::to_string(id) + ",\"state\":\"" +
         base64_encode(blob) + "\"}";
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(opts),
      runner_(opts.workers),
      queue_(opts.queue_capacity) {
  // Jobs that do not carry their own "batch_lanes" inherit the server
  // default inside the runner (docs/PERF.md "Lane batching").
  runner_.set_batch_lanes(opts_.batch_lanes);
  // A disk tier without a RAM tier in front makes no sense (every hit
  // would pay a decode); --cache-dir alone turns the cache on.
  if (opts_.cache_bytes == 0 && !opts_.cache_dir.empty())
    opts_.cache_bytes = 64u << 20;
  if (opts_.cache_bytes > 0) {
    cache_ = std::make_shared<SweepResultCache>(opts_.cache_bytes,
                                                opts_.cache_shards);
    if (!opts_.cache_dir.empty()) {
      // Crash-durable L2 (docs/CACHE.md). Any open failure — bad path,
      // another process holding the lock, unreadable segments — leaves
      // a working RAM-only cache behind a counter, never a dead server.
      CacheStoreOptions store_opts;
      store_opts.dir = opts_.cache_dir;
      store_opts.capacity_bytes = opts_.cache_disk_bytes;
      store_opts.segment_bytes = opts_.cache_segment_bytes;
      try {
        auto store = std::make_unique<CacheStore>(store_opts);
        store->open();
        cache_->attach_disk(std::move(store));
      } catch (const CacheStoreError&) {
        cache_->note_disk_open_failure();
      }
    }
    // The runner consults the same cache on dispatch, so queued repeats
    // and intra-batch duplicates are answered from memory too.
    runner_.set_cache(cache_);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) throw ServeError("server already started");

  // Recovery: replay the journal before anything can connect. Completed
  // jobs come back servable, unfinished ones come back queued (with
  // their last checkpoint attached when one was recorded) and are
  // re-enqueued below, past capacity if need be.
  std::vector<std::uint64_t> recovered;
  if (!opts_.journal_path.empty()) {
    for (const std::string& rec : Journal::replay(opts_.journal_path))
      apply_journal_record(rec);
    journal_.open(opts_.journal_path);
    for (const auto& [id, rec] : jobs_)
      if (rec.state == JobState::kQueued) recovered.push_back(id);
  }

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

  // Event loops before the acceptor: a connection accepted first must
  // have a loop to land on.
  net::LoopConfig loop_cfg;
  loop_cfg.idle_timeout_ms = opts_.idle_timeout_ms;
  loop_cfg.io_timeout_ms = opts_.io_timeout_ms;
  loop_cfg.max_frame_bytes = kMaxFrameBytes;
  loop_cfg.on_frame = [this](net::Conn& c, std::string&& payload) {
    on_frame(c, std::move(payload));
  };
  loop_cfg.on_close = [this](net::Conn& c) { on_conn_close(c); };
  loops_ = std::make_unique<net::LoopGroup>(
      opts_.io_threads ? opts_.io_threads : 1, loop_cfg);
  loops_->start();

  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });

  if (!recovered.empty()) {
    metrics_.on_accepted(recovered.size());
    queue_.push_recovered(recovered);
  }
}

void Server::stop() { shutdown_impl(/*park_interrupted=*/false); }

void Server::drain() { shutdown_impl(/*park_interrupted=*/true); }

void Server::shutdown_impl(bool park_interrupted) {
  if (!started_.load()) return;
  // Set *before* claiming stopping_, so the dispatcher's completion
  // callback can never see stopping_ without the drain flag.
  if (park_interrupted && journal_.is_open()) draining_.store(true);
  if (stopping_.exchange(true)) return;
  // Serialize the flag flip with result-waiters' predicate checks: a
  // waiter that saw stopping_ == false is now inside wait_for and will
  // receive this notify; one that hasn't locked yet will see true.
  { const std::lock_guard<std::mutex> lock(jobs_mu_); }
  jobs_cv_.notify_all();

  // 1. No new connections: unblock accept() and join the acceptor, so
  //    the session list is frozen from here on.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Drain the pipeline: cancel everything not yet done, close the
  //    queue (pop_batch returns the remnants, whose cancel tokens are
  //    already set, so the dispatcher discharges them as cancelled
  //    within one sweep chunk each) and join the dispatcher.
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, rec] : jobs_)
      if (rec.state != JobState::kDone && rec.job.cancel)
        rec.job.cancel->store(true, std::memory_order_relaxed);
  }
  queue_.close();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // 3. Flush every parked result-wait with a shutting_down response
  //    (the loops are still running, so the posts get delivered during
  //    loop teardown at the latest), then stop the loops: each conn
  //    gets on_close exactly once and the loop threads join.
  wake_all_waiters();
  if (loops_) loops_->stop();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  journal_.close();
  jobs_cv_.notify_all();
}

void Server::apply_journal_record(const std::string& payload) {
  try {
    const json::Value rec = parse_json(payload);
    const std::string kind = rec.get_string("rec", "");
    if (kind == "submit") {
      const json::Value* ids_v = rec.find("ids");
      const json::Value* jobs_v = rec.find("jobs");
      if (!ids_v || !jobs_v) return;
      const json::Value* deadlines = rec.find("deadlines");
      const std::string key = rec.get_string("key", "");
      const auto now = Clock::now();
      std::vector<std::uint64_t> ids;
      const std::size_t n =
          std::min(ids_v->as_array().size(), jobs_v->as_array().size());
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t id = ids_v->as_array()[i].as_uint();
        SweepJob job = job_from_json(jobs_v->as_array()[i]);
        job.max_cycles = std::min(job.max_cycles, opts_.max_cycles_cap);
        job.cancel = make_cancel_token();
        job.checkpoint_on_stop = true;
        // The deadline *budget* restarts on recovery: wall time spent
        // before the crash is not charged to the job.
        const std::uint64_t deadline_ms =
            deadlines && i < deadlines->as_array().size()
                ? deadlines->as_array()[i].as_uint()
                : 0;
        if (deadline_ms > 0)
          job.deadline = now + std::chrono::milliseconds(deadline_ms);
        JobRecord r;
        r.id = id;
        r.key = key;
        r.job = std::move(job);
        jobs_.insert_or_assign(id, std::move(r));
        ids.push_back(id);
        std::uint64_t next = next_id_.load();
        if (id >= next) next_id_.store(id + 1);
      }
      if (!key.empty() && !ids.empty()) jobs_by_key_[key] = std::move(ids);
    } else if (kind == "done") {
      const auto it = jobs_.find(rec.get_uint("id", 0));
      const json::Value* result = rec.find("result");
      if (it == jobs_.end() || !result) return;
      JobRecord& r = it->second;
      r.state = JobState::kDone;
      r.result_json = json::serialize(*result);
      r.result.index = static_cast<std::size_t>(r.id);
      r.result.status = status_from_string(result->get_string("status", ""));
      r.result.finished = r.result.status == SweepStatus::kFinished;
      r.result.error = result->get_string("error", "");
    } else if (kind == "ckpt") {
      const auto it = jobs_.find(rec.get_uint("id", 0));
      const json::Value* state = rec.find("state");
      if (it == jobs_.end() || !state) return;
      it->second.job.initial_state =
          std::make_shared<const std::string>(base64_decode(state->as_string()));
    } else if (kind == "extend") {
      const auto it = jobs_.find(rec.get_uint("id", 0));
      if (it == jobs_.end()) return;
      JobRecord& r = it->second;
      r.state = JobState::kQueued;
      r.user_cancelled = false;
      r.result_json.clear();
      r.job.cancel = make_cancel_token();
      const std::uint64_t deadline_ms = rec.get_uint("deadline_ms", 0);
      r.job.deadline =
          deadline_ms > 0
              ? std::optional<Clock::time_point>(
                    Clock::now() + std::chrono::milliseconds(deadline_ms))
              : std::nullopt;
      if (const json::Value* state = rec.find("state"))
        r.job.initial_state = std::make_shared<const std::string>(
            base64_decode(state->as_string()));
    } else if (kind == "release") {
      const auto it = jobs_.find(rec.get_uint("id", 0));
      if (it != jobs_.end()) release_job_locked(it);
    }
  } catch (const std::exception&) {
    // A record the crash corrupted (or a schema from a future version):
    // skipping it is always safe — at worst a job reruns from scratch.
  }
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal) — stop accepting
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    set_nodelay(fd);
    loops_->next().adopt(fd);
  }
}

Server::ConnState& Server::conn_state(net::Conn& c) {
  if (!c.ctx) c.ctx = std::make_shared<ConnState>();
  return *static_cast<ConnState*>(c.ctx.get());
}

void Server::send_v1(net::Conn& c, std::uint64_t slot, std::string&& resp) {
  ConnState& st = conn_state(c);
  for (auto& [s, r] : st.v1_q)
    if (s == slot) {
      r = std::move(resp);
      break;
    }
  // v1 responses leave strictly in request order: a parked result-wait
  // holds later (already computed) responses back until it resolves.
  while (!st.v1_q.empty() && st.v1_q.front().second) {
    c.send_frame(*st.v1_q.front().second);
    st.v1_q.pop_front();
    if (c.closing()) return;
  }
}

void Server::on_frame(net::Conn& c, std::string&& payload) {
  if (v2::is_v2(payload)) {
    handle_v2_frame(c, payload);
    return;
  }
  ConnState& st = conn_state(c);
  const std::uint64_t slot = st.next_slot++;
  st.v1_q.emplace_back(slot, std::nullopt);
  WaitTarget wt;
  wt.loop = &c.loop();
  wt.conn_id = c.id();
  wt.v1_slot = slot;
  wt.request = payload;
  std::optional<std::string> resp;
  try {
    resp = handle_request(payload, &wt);
  } catch (const ServeError&) {
    // Transport failure (or an injected frame fault) mid-handling: the
    // stream may be desynced, so drop the connection rather than write
    // a "response" the client can't attribute.
    c.close();
    return;
  }
  if (resp) send_v1(c, slot, std::move(*resp));
}

void Server::handle_v2_frame(net::Conn& c, const std::string& payload) {
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
  if (f.op == v2::Op::kCacheGet) {
    // The fully binary op: 16 raw key bytes in, the encoded cache
    // record out — no JSON, no base64 (docs/NET.md "cache_get").
    try {
      const Hash128 key = v2::decode_cache_get_key(f.body, f.request_id);
      if (cache_) {
        if (const auto rec = cache_->peek_encoded(key)) {
          c.send_frame(v2::encode_cache_get_hit(f.request_id, *rec));
          return;
        }
      }
      c.send_frame(v2::encode_cache_get_miss(f.request_id));
    } catch (const v2::V2Error& e) {
      c.send_frame(v2::encode(f.op, v2::Kind::kError, e.request_id(),
                              error_json(e.code(), e.what())));
    }
    return;
  }
  // submit/result/stats carry the v1 JSON request as the body; the op
  // in the header wins over any "op" member. Responses are the exact
  // v1 response bytes inside a v2 envelope, so v2 results are
  // bit-identical to v1 by construction.
  const char* forced_op = f.op == v2::Op::kSubmit   ? "submit"
                          : f.op == v2::Op::kResult ? "result"
                                                    : "stats";
  WaitTarget wt;
  wt.loop = &c.loop();
  wt.conn_id = c.id();
  wt.v2 = true;
  wt.v2_id = f.request_id;
  wt.request = std::string(f.body);
  std::optional<std::string> resp;
  try {
    resp = handle_request(wt.request, &wt, forced_op);
  } catch (const ServeError&) {
    c.close();
    return;
  }
  if (resp)
    c.send_frame(v2::encode(f.op,
                            v2::is_error_body(*resp) ? v2::Kind::kError
                                                     : v2::Kind::kOk,
                            f.request_id, *resp));
}

void Server::on_conn_close(net::Conn& c) {
  // Orphan this conn's parked result-waits; their timers no-op later.
  const std::uint64_t conn_id = c.id();
  net::EventLoop* loop = &c.loop();
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    if (it->second.target.loop == loop && it->second.target.conn_id == conn_id)
      it = waiters_.erase(it);
    else
      ++it;
  }
}

std::optional<std::string> Server::handle_request(const std::string& payload,
                                                  const WaitTarget* wt,
                                                  const char* forced_op) {
  try {
    const json::Value req = parse_json(payload.empty() ? "{}" : payload);
    const std::string op = forced_op ? forced_op : req.get_string("op", "");
    if (op == "ping") return "{\"ok\":true,\"type\":\"pong\"}";
    if (op == "hello") {
      // Version negotiation (docs/NET.md "Negotiation"): answer with
      // the highest version both sides speak. v2 frames are accepted
      // regardless — hello is how a *client* learns it may send them.
      unsigned best = 1;
      if (const json::Value* v = req.find("versions"); v && v->is_array())
        for (const auto& e : v->as_array())
          if (e.is_number() && e.as_uint() == 2) best = 2;
      return "{\"ok\":true,\"type\":\"hello\",\"version\":" +
             std::to_string(best) + ",\"versions\":[1,2]}";
    }
    if (op == "submit") return handle_submit(req);
    if (op == "status") return handle_status(req);
    if (op == "result") return handle_result(req, wt);
    if (op == "cancel") return handle_cancel(req);
    if (op == "extend") return handle_extend(req);
    if (op == "stats")
      return "{\"ok\":true,\"type\":\"stats\",\"stats\":" + stats_json() + "}";
    if (op == "cache_get") return handle_cache_get(req);
    if (op == "cache_stats") return handle_cache_stats();
    if (op == "cache_flush") return handle_cache_flush();
    if (op == "metrics_text")
      return "{\"ok\":true,\"type\":\"metrics_text\",\"text\":\"" +
             json_escape(metrics_text()) + "\"}";
    if (op == "shutdown") {
      shutdown_requested_.store(true, std::memory_order_release);
      return "{\"ok\":true,\"type\":\"shutdown\"}";
    }
    return error_json("unknown_op", "unrecognized \"op\" \"" + op + "\"");
  } catch (const ServeError&) {
    throw;  // transport failure: the caller drops the connection
  } catch (const std::exception& e) {
    // JsonError, ConfigError, AssemblyError, CompileError, ...: the
    // request was understood to be ill-formed, the connection is fine —
    // answer with an error frame and keep serving it.
    return error_json("bad_request", e.what());
  }
}

std::string Server::handle_submit(const json::Value& req) {
  const json::Value* jobs_v = req.find("jobs");
  if (!jobs_v || !jobs_v->is_array() || jobs_v->as_array().empty())
    throw JsonError("submit needs a non-empty \"jobs\" array");
  const std::uint64_t request_deadline_ms =
      req.get_uint("deadline_ms", opts_.default_deadline_ms);
  const std::string key = req.get_string("key", "");
  const bool journaling = journal_.is_open();

  // Compile/validate every job before admitting any: a submit either
  // enters the queue whole or not at all.
  const auto now = Clock::now();
  std::vector<SweepJob> parsed;
  std::vector<std::uint64_t> deadlines;  // per job, ms; journaled
  parsed.reserve(jobs_v->as_array().size());
  for (const auto& elem : jobs_v->as_array()) {
    SweepJob job = job_from_json(elem);
    job.max_cycles = std::min(job.max_cycles, opts_.max_cycles_cap);
    job.cancel = make_cancel_token();
    // With a journal, an interrupted run is worth saving: ask the sweep
    // to capture a resume point whenever the job is stopped early.
    job.checkpoint_on_stop = journaling;
    const std::uint64_t deadline_ms =
        elem.is_object() ? elem.get_uint("deadline_ms", request_deadline_ms)
                         : request_deadline_ms;
    if (deadline_ms > 0)
      job.deadline = now + std::chrono::milliseconds(deadline_ms);
    deadlines.push_back(deadline_ms);
    parsed.push_back(std::move(job));
  }

  if (stopping_.load()) return error_json("shutting_down", "server stopping");

  // Cache fast path: look every job up by content hash before
  // admission. A hit is complete at submit time and never takes a queue
  // slot, so repeat traffic is served even when the queue is saturated
  // and the backlog never grows for work the server already did.
  std::vector<std::shared_ptr<const CachedSweepRun>> hits(parsed.size());
  std::vector<double> lookup_seconds(parsed.size(), 0.0);
  if (cache_) {
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      const auto t0 = Clock::now();
      hits[i] = cache_->lookup(sweep_cache_key(parsed[i]));
      lookup_seconds[i] =
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
  }

  std::vector<std::uint64_t> ids;       // every job of this submit
  std::vector<std::uint64_t> miss_ids;  // the subset that must queue
  std::vector<SweepResult> hit_results;
  std::vector<std::string> done_records;
  ids.reserve(parsed.size());
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    // Idempotent resubmission: a client that crashed (or lost our
    // response) retries the same keyed submit and gets the original
    // ids back instead of duplicate jobs. Checked and reserved under
    // the same lock as id allocation, so two concurrent same-key
    // submits cannot both create jobs.
    if (!key.empty()) {
      const auto it = jobs_by_key_.find(key);
      if (it != jobs_by_key_.end()) return submitted_json(it->second, true);
    }
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      const std::uint64_t id = next_id_.fetch_add(1);
      JobRecord rec;
      rec.id = id;
      rec.key = key;
      rec.job = std::move(parsed[i]);
      if (hits[i]) {
        // Completed on arrival. Journaled exactly like a dispatched
        // completion, so replay serves it without re-running anything.
        rec.state = JobState::kDone;
        rec.result = materialize_cached(*hits[i], rec.job,
                                        static_cast<std::size_t>(id),
                                        lookup_seconds[i]);
        rec.result_json = to_json(rec.result, rec.job.cfg);
        hit_results.push_back(rec.result);
        if (journaling)
          done_records.push_back("{\"rec\":\"done\",\"id\":" +
                                 std::to_string(id) +
                                 ",\"result\":" + rec.result_json + "}");
        else
          rec.job.program = Program{};  // same footprint rule as dispatch
      } else {
        miss_ids.push_back(id);
      }
      jobs_.emplace(id, std::move(rec));
      ids.push_back(id);
    }
    if (!key.empty()) jobs_by_key_[key] = ids;
  }
  if (!miss_ids.empty() && !queue_.try_push(miss_ids)) {
    {
      const std::lock_guard<std::mutex> lock(jobs_mu_);
      for (const std::uint64_t id : ids) jobs_.erase(id);
      if (!key.empty()) jobs_by_key_.erase(key);
    }
    metrics_.on_rejected(ids.size());
    // Retry-after hint: how long until this many slots should free up,
    // from the measured mean job time and the current backlog.
    std::size_t backlog = queue_.size();
    {
      const std::lock_guard<std::mutex> lock(jobs_mu_);
      backlog += running_;
    }
    const double mean_s = metrics_.mean_job_seconds(0.05);
    double ms = mean_s * static_cast<double>(backlog) /
                static_cast<double>(runner_.workers()) * 1e3;
    ms = std::clamp(ms, 10.0, 30'000.0);
    return error_json("queue_full",
                      "queue has no room for " + std::to_string(ids.size()) +
                          " job(s)",
                      "\"retry_after_ms\":" +
                          std::to_string(static_cast<std::uint64_t>(ms)));
  }
  metrics_.on_accepted(ids.size());

  if (journaling) {
    // fsync'd before the response: once the client hears "submitted",
    // no crash can lose the work. The raw job objects are re-serialized
    // so replay can recompile them without the original connection.
    std::ostringstream js;
    js << "{\"rec\":\"submit\",\"ids\":[";
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i) js << ",";
      js << ids[i];
    }
    js << "]";
    if (!key.empty()) js << ",\"key\":\"" << json_escape(key) << "\"";
    js << ",\"deadlines\":[";
    for (std::size_t i = 0; i < deadlines.size(); ++i) {
      if (i) js << ",";
      js << deadlines[i];
    }
    js << "],\"jobs\":[";
    const auto& elems = jobs_v->as_array();
    for (std::size_t i = 0; i < elems.size(); ++i) {
      if (i) js << ",";
      js << json::serialize(elems[i]);
    }
    js << "]}";
    journal_.append(js.str(), /*sync=*/true);
    // Cache hits completed at admission: journal their done records
    // right behind the submit record, so replay serves them without
    // re-running. No fsync — losing one merely re-runs a cached job.
    for (const std::string& rec : done_records)
      journal_.append(rec, /*sync=*/false);
  }
  for (const SweepResult& r : hit_results) metrics_.on_done(r);
  if (!hit_results.empty()) jobs_cv_.notify_all();

  return submitted_json(ids, false);
}

std::string Server::handle_status(const json::Value& req) {
  const std::uint64_t id = require_id(req);
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    return error_json("not_found", "no job " + std::to_string(id));
  const JobRecord& rec = it->second;
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"status\",\"id\":" << id << ",\"state\":\"";
  switch (rec.state) {
    case JobState::kQueued: os << "queued"; break;
    case JobState::kRunning: os << "running"; break;
    case JobState::kDone: os << "done"; break;
  }
  os << "\"";
  if (rec.state == JobState::kDone) {
    os << ",\"status\":\"" << masc::to_string(rec.result.status) << "\"";
    if (!rec.result.error.empty())
      os << ",\"error\":\"" << json_escape(rec.result.error) << "\"";
  }
  os << "}";
  return os.str();
}

std::optional<std::string> Server::handle_result(const json::Value& req,
                                                 const WaitTarget* wt) {
  const std::uint64_t id = require_id(req);
  const bool wait = req.get_bool("wait", false);
  const bool release = req.get_bool("release", false);
  const std::uint64_t timeout_ms = req.get_uint("timeout_ms", 60'000);

  std::unique_lock<std::mutex> lock(jobs_mu_);
  // Async wait: instead of blocking the loop thread on jobs_cv_, park a
  // waiter that the dispatcher's completion callback (or release, or
  // shutdown) posts back to the owning loop. The wake re-dispatches the
  // original request with waiting disabled, so the response — including
  // release/journal side effects — is exactly what a fresh request at
  // that moment would have produced.
  if (wait && wt != nullptr && !stopping_.load()) {
    const auto wit = jobs_.find(id);
    if (wit != jobs_.end() && wit->second.state != JobState::kDone) {
      ResultWaiter w;
      w.uid = next_waiter_uid_++;
      w.job_id = id;
      w.target = *wt;
      waiters_.emplace(id, w);
      lock.unlock();
      // Timer and registration race benignly: if the job completes
      // before the timer is armed, the wake already removed the uid and
      // the timer finds nothing.
      wt->loop->add_timer(timeout_ms, [this, id, uid = w.uid] {
        expire_waiter(id, uid);
      });
      return std::nullopt;
    }
  }

  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    return error_json("not_found", "no job " + std::to_string(id));
  JobRecord& rec = it->second;
  if (rec.state != JobState::kDone) {
    if (stopping_.load())
      return error_json("shutting_down", "server stopping");
    const char* state = rec.state == JobState::kQueued ? "queued" : "running";
    return error_json("not_ready",
                      "job " + std::to_string(id) + " is " + state,
                      "\"id\":" + std::to_string(id) + ",\"state\":\"" +
                          state + "\"");
  }
  const std::string body = !rec.result_json.empty()
                               ? rec.result_json
                               : to_json(rec.result, rec.job.cfg);
  std::string response = "{\"ok\":true,\"type\":\"result\",\"id\":" +
                         std::to_string(id) + ",\"result\":" + body + "}";
  if (release) {
    release_job_locked(it);
    lock.unlock();
    // Journaled so replay does not resurrect a record the client
    // already consumed. Unsynced: redelivering a result is harmless.
    journal_.append("{\"rec\":\"release\",\"id\":" + std::to_string(id) + "}",
                    /*sync=*/false);
    // Anyone else parked on this id now sees "gone": answer not_found,
    // matching what their wake would find as a fresh request.
    wake_result_waiters(id);
  }
  return response;
}

void Server::release_job_locked(std::map<std::uint64_t, JobRecord>::iterator it) {
  const std::string key = std::move(it->second.key);
  jobs_.erase(it);
  if (key.empty()) return;
  // The key's dedup entry lives exactly as long as one of its jobs: a
  // long-lived server must not grow with total keyed submits, and a
  // resend after every job was consumed is new work.
  const auto k = jobs_by_key_.find(key);
  if (k == jobs_by_key_.end()) return;
  for (const std::uint64_t id : k->second)
    if (jobs_.count(id) != 0) return;
  jobs_by_key_.erase(k);
}

void Server::wake_result_waiters(std::uint64_t job_id) {
  std::vector<ResultWaiter> woken;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto [b, e] = waiters_.equal_range(job_id);
    for (auto it = b; it != e; ++it) woken.push_back(it->second);
    waiters_.erase(b, e);
  }
  for (const ResultWaiter& w : woken)
    w.target.loop->post([this, w] { deliver_waiter(w); });
}

void Server::wake_all_waiters() {
  std::vector<ResultWaiter> woken;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& [id, w] : waiters_) woken.push_back(w);
    waiters_.clear();
  }
  for (const ResultWaiter& w : woken)
    w.target.loop->post([this, w] { deliver_waiter(w); });
}

void Server::deliver_waiter(const ResultWaiter& w) {
  net::Conn* c = w.target.loop->find(w.target.conn_id);
  if (c == nullptr) return;  // conn died while the wait was parked
  std::string resp;
  try {
    const json::Value req =
        parse_json(w.target.request.empty() ? "{}" : w.target.request);
    // wt == nullptr forces the synchronous path: the job is done (or
    // gone, or the wait timed out), so this resolves immediately.
    resp = *handle_result(req, nullptr);
  } catch (const std::exception& e) {
    resp = error_json("bad_request", e.what());
  }
  if (w.target.v2)
    c->send_frame(v2::encode(v2::Op::kResult,
                             v2::is_error_body(resp) ? v2::Kind::kError
                                                     : v2::Kind::kOk,
                             w.target.v2_id, resp));
  else
    send_v1(*c, w.target.v1_slot, std::move(resp));
}

void Server::expire_waiter(std::uint64_t job_id, std::uint64_t uid) {
  ResultWaiter w;
  bool found = false;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto [b, e] = waiters_.equal_range(job_id);
    for (auto it = b; it != e; ++it) {
      if (it->second.uid == uid) {
        w = it->second;
        found = true;
        waiters_.erase(it);
        break;
      }
    }
  }
  // Already woken (job completed first): the timer is a stale no-op.
  if (found) deliver_waiter(w);  // resolves to not_ready
}

std::string Server::handle_cancel(const json::Value& req) {
  const std::uint64_t id = require_id(req);
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    return error_json("not_found", "no job " + std::to_string(id));
  JobRecord& rec = it->second;
  const bool effective = rec.state != JobState::kDone;
  if (effective) {
    rec.user_cancelled = true;  // a real cancellation, not a drain stop
    rec.job.cancel->store(true, std::memory_order_relaxed);
  }
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"cancel\",\"id\":" << id
     << ",\"effective\":" << to_string(effective) << "}";
  return os.str();
}

std::string Server::handle_extend(const json::Value& req) {
  const std::uint64_t id = require_id(req);
  const std::uint64_t deadline_ms =
      req.get_uint("deadline_ms", opts_.default_deadline_ms);
  if (stopping_.load()) return error_json("shutting_down", "server stopping");

  bool resumed = false;
  std::string ckpt_b64;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
      return error_json("not_found", "no job " + std::to_string(id));
    JobRecord& rec = it->second;
    if (rec.state != JobState::kDone)
      return error_json("not_ready",
                        "job " + std::to_string(id) + " is still pending");
    if (rec.result.status == SweepStatus::kFinished)
      return error_json("already_finished",
                        "job " + std::to_string(id) + " ran to completion");
    if (rec.job.program.text.empty())
      return error_json("not_resumable",
                        "program image for job " + std::to_string(id) +
                            " was not retained (journaling disabled)");
    // Prefer the checkpoint from the interrupted run: the job resumes
    // at the cycle it was stopped instead of starting over. Without
    // one (it stopped before its first chunk boundary) it reruns from
    // whatever resume point it started this run with.
    if (!rec.result.checkpoint.empty()) {
      rec.job.initial_state =
          std::make_shared<const std::string>(rec.result.checkpoint);
    }
    resumed = rec.job.initial_state != nullptr;
    if (rec.job.initial_state) ckpt_b64 = base64_encode(*rec.job.initial_state);
    rec.job.cancel = make_cancel_token();
    rec.job.deadline =
        deadline_ms > 0
            ? std::optional<Clock::time_point>(
                  Clock::now() + std::chrono::milliseconds(deadline_ms))
            : std::nullopt;
    rec.state = JobState::kQueued;
    rec.user_cancelled = false;
    rec.result_json.clear();
  }
  if (!queue_.try_push({id})) {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) it->second.state = JobState::kDone;
    return error_json("queue_full", "no room to requeue job " +
                                        std::to_string(id));
  }
  if (journal_.is_open()) {
    std::string rec = "{\"rec\":\"extend\",\"id\":" + std::to_string(id) +
                      ",\"deadline_ms\":" + std::to_string(deadline_ms);
    if (!ckpt_b64.empty()) rec += ",\"state\":\"" + ckpt_b64 + "\"";
    rec += "}";
    journal_.append(rec, /*sync=*/true);
  }
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"extend\",\"id\":" << id
     << ",\"resumed\":" << to_string(resumed) << "}";
  return os.str();
}

void Server::dispatch_loop() {
  const bool journaling = journal_.is_open();
  for (;;) {
    // Coalesce everything currently queued (up to batch_max) into one
    // sweep dispatch: one thread-pool spin-up amortized over the batch.
    const std::vector<std::uint64_t> ids = queue_.pop_batch(opts_.batch_max);
    if (ids.empty()) return;  // queue closed and drained

    // Fault-injection hook: a "failed dispatch" bounces the whole batch
    // back to the queue untouched (no record was mutated yet), exactly
    // like a dispatcher that died between pop and run. The injector's
    // fault budget guarantees this cannot livelock.
    if (auto* inj = fault::active(); inj && inj->on_dispatch()) {
      queue_.push_recovered(ids);
      continue;
    }

    std::vector<SweepJob> batch;
    batch.reserve(ids.size());
    {
      const std::lock_guard<std::mutex> lock(jobs_mu_);
      for (const std::uint64_t id : ids) {
        JobRecord& rec = jobs_.at(id);
        rec.state = JobState::kRunning;
        ++running_;
        batch.push_back(rec.job);
        // The program image is the bulk of a record's footprint and the
        // worker's copy is the one that runs; keep cfg for the result.
        // With a journal the image is retained so {"op":"extend"} can
        // re-dispatch the job without re-parsing the journal.
        if (!journaling) rec.job.program = Program{};
      }
    }
    if (journaling && opts_.checkpoint_every_chunks > 0) {
      // Periodic resume points: bound how much simulation a SIGKILL can
      // cost. Unsynced appends — a torn checkpoint is truncated away on
      // replay and the job simply resumes from the previous one.
      auto batch_ids = std::make_shared<std::vector<std::uint64_t>>(ids);
      auto sink = std::make_shared<
          const std::function<void(std::size_t, const std::string&)>>(
          [this, batch_ids](std::size_t index, const std::string& blob) {
            journal_.append(ckpt_record((*batch_ids)[index], blob),
                            /*sync=*/false);
          });
      for (SweepJob& job : batch) {
        job.checkpoint_every_chunks = opts_.checkpoint_every_chunks;
        job.checkpoint_sink = sink;
      }
    }
    metrics_.on_batch(ids.size());

    runner_.run(batch, [&](const SweepResult& r) {
      const std::uint64_t id = ids[r.index];
      std::string done_rec, ckpt_rec;
      bool completed = false;
      {
        const std::lock_guard<std::mutex> lock(jobs_mu_);
        JobRecord& rec = jobs_.at(id);
        rec.result = r;
        rec.result.index = static_cast<std::size_t>(id);  // batch-local → id
        // A job cancelled by drain() (not by the user) is *parked*, not
        // completed: its submit record stays outstanding in the journal
        // — with a fresh checkpoint when it got far enough to have one —
        // and the restarted server resumes it.
        const bool parked = draining_.load() && !rec.user_cancelled &&
                            r.status == SweepStatus::kCancelled;
        if (parked) {
          if (journaling && !r.checkpoint.empty())
            ckpt_rec = ckpt_record(id, r.checkpoint);
          rec.state = JobState::kQueued;
        } else {
          rec.state = JobState::kDone;
          rec.result_json = to_json(rec.result, rec.job.cfg);
          if (journaling)
            done_rec = "{\"rec\":\"done\",\"id\":" + std::to_string(id) +
                       ",\"result\":" + rec.result_json + "}";
          completed = true;
        }
        --running_;
      }
      if (!ckpt_rec.empty()) journal_.append(ckpt_rec, /*sync=*/false);
      if (!done_rec.empty()) journal_.append(done_rec, /*sync=*/true);
      metrics_.on_done(r);
      jobs_cv_.notify_all();
      // Job-completion post back to the owning loop(s): every parked
      // result-wait for this id resolves now. Parked (drain) jobs stay
      // un-woken — their waiters ride out the timeout, like v1's
      // predicate never turning true.
      if (completed) wake_result_waiters(id);
    });
  }
}

std::string Server::handle_cache_get(const json::Value& req) {
  // Peer read-through (docs/CACHE.md tier L3): the router asks this
  // backend — the ring owner for the key — before letting another
  // backend simulate. Served entirely at the session layer (L1 peek or
  // one disk pread), never through the queue, so it stays fast even
  // when the dispatcher is saturated.
  const std::string key_hex = req.get_string("key", "");
  Hash128 key;
  if (!hash128_from_hex(key_hex, key))
    return error_json("bad_request",
                      "cache_get needs a 32-hex-digit \"key\"");
  if (!cache_) return "{\"ok\":true,\"type\":\"cache_get\",\"found\":false}";
  const auto payload = cache_->peek_encoded(key);
  if (!payload)
    return "{\"ok\":true,\"type\":\"cache_get\",\"found\":false}";
  return "{\"ok\":true,\"type\":\"cache_get\",\"found\":true,\"payload\":\"" +
         base64_encode(*payload) + "\"}";
}

std::string Server::handle_cache_stats() {
  std::string cache_json = "{\"enabled\":false}";
  if (cache_)
    cache_json =
        "{\"enabled\":true," + masc::to_json(cache_->stats()).substr(1);
  return "{\"ok\":true,\"type\":\"cache_stats\",\"cache\":" + cache_json + "}";
}

std::string Server::handle_cache_flush() {
  // Operability: force L1 -> L2 demotion + fsync (incident response:
  // make the RAM tier durable *now*, before a risky restart).
  if (!cache_)
    return error_json("no_cache", "result cache disabled on this server");
  const std::size_t demoted = cache_->flush_to_disk();
  return "{\"ok\":true,\"type\":\"cache_flush\",\"disk\":" +
         std::string(cache_->disk_attached() ? "true" : "false") +
         ",\"demoted\":" + std::to_string(demoted) + "}";
}

std::string Server::stats_json() const {
  const std::size_t depth = queue_.size();
  std::size_t running, tracked;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    running = running_;
    tracked = jobs_.size();
  }
  const SweepBatchStats bs = runner_.batch_stats();
  if (!cache_)
    return metrics_.to_json(depth, running, opts_.queue_capacity, tracked,
                            nullptr, &bs);
  const TieredCacheStats cs = cache_->stats();
  return metrics_.to_json(depth, running, opts_.queue_capacity, tracked, &cs,
                          &bs);
}

std::string Server::metrics_text() const {
  const std::size_t depth = queue_.size();
  std::size_t running, tracked;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    running = running_;
    tracked = jobs_.size();
  }
  const SweepBatchStats bs = runner_.batch_stats();
  if (!cache_)
    return metrics_.to_prometheus(depth, running, opts_.queue_capacity,
                                  tracked, nullptr, &bs);
  const TieredCacheStats cs = cache_->stats();
  return metrics_.to_prometheus(depth, running, opts_.queue_capacity, tracked,
                                &cs, &bs);
}

}  // namespace masc::serve
