#include "serve/server.hpp"

#include <algorithm>
#include <sstream>

#include "common/base64.hpp"
#include "fault/fault.hpp"

namespace masc::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Every Prometheus family of masc-served starts with this.
constexpr const char* kMetricPrefix = "masc_served_";

const char* to_string(bool b) { return b ? "true" : "false"; }

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
      front_(opts.port, opts.io_threads, opts.idle_timeout_ms,
             opts.io_timeout_ms,
             [this](Request&& req, const Reply& reply) {
               return handle_request(std::move(req), reply);
             },
             [this](net::EventLoop& loop, std::uint64_t conn_id) {
               on_conn_close(loop, conn_id);
             }),
      sink_(std::make_shared<const SweepSink>(SweepSink{
          [this](std::size_t id) { on_started(id); },
          [this](SweepResult&& r) { complete(std::move(r), /*sync=*/true); }})),
      runner_(opts.workers) {
  // Unsynced appends — a torn checkpoint is truncated away on replay and
  // the job simply resumes from the previous one.
  checkpoint_sink_ = std::make_shared<
      const std::function<void(std::size_t, const std::string&)>>(
      [this](std::size_t id, const std::string& blob) {
        journal_.append(ckpt_record(id, blob), /*sync=*/false);
      });
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
    // The runner consults the same cache at admission and again when a
    // job is pulled, so queued repeats are answered from memory too.
    runner_.set_cache(cache_);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) throw ServeError("server already started");

  // Recovery: replay the journal before anything can connect. Completed
  // jobs come back servable, unfinished ones come back queued (with
  // their last checkpoint attached when one was recorded) and are
  // re-admitted below, past capacity if need be.
  std::vector<SweepTask> recovered;
  if (!opts_.journal_path.empty()) {
    for (const std::string& rec : Journal::replay(opts_.journal_path))
      apply_journal_record(rec);
    journal_.open(opts_.journal_path);
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& [id, rec] : jobs_)
      if (rec.state == JobState::kQueued) recovered.push_back(task_of(rec));
  }

  front_.start();

  if (!recovered.empty()) {
    metrics_.on_accepted(recovered.size());
    std::vector<SweepResult> hits;
    admit(std::move(recovered), SIZE_MAX, hits);
    for (SweepResult& r : hits) complete(std::move(r), /*sync=*/true);
  }
}

void Server::stop() { shutdown_impl(/*park_interrupted=*/false); }

void Server::drain() { shutdown_impl(/*park_interrupted=*/true); }

void Server::shutdown_impl(bool park_interrupted) {
  if (!started_.load()) return;
  // Set *before* claiming stopping_, so a job's completion callback
  // can never see stopping_ without the drain flag.
  if (park_interrupted && journal_.is_open()) draining_.store(true);
  if (stopping_.exchange(true)) return;

  // 1. No new connections: unblock accept() and join the acceptor, so
  //    the session list is frozen from here on.
  front_.stop_accepting();

  // 2. Drain the pipeline: cancel everything not yet done, then close
  //    the runner. Its workers still pull the queued remnants, whose
  //    cancel tokens are already set, so each is discharged as
  //    cancelled within one sweep chunk; then they are joined.
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, rec] : jobs_)
      if (rec.state != JobState::kDone && rec.job.cancel)
        rec.job.cancel->store(true, std::memory_order_relaxed);
  }
  runner_.close();

  // 3. Flush every parked result-wait with a shutting_down response
  //    (the loops are still running, so the posts get delivered during
  //    loop teardown at the latest), then stop the loops: each conn
  //    gets on_close exactly once and the loop threads join.
  wake_waiters(std::nullopt);
  front_.stop();
  journal_.close();
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
      // The recorded bytes themselves: re-serializing the parsed tree
      // would reprint doubles such as "ipc" at a different precision.
      r.result_json = std::string(json::member_text(payload, "result"));
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

void Server::on_conn_close(net::EventLoop& loop, std::uint64_t conn_id) {
  // Orphan this conn's parked result-waits; their timers no-op later.
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  std::erase_if(waiters_, [&](const auto& entry) {
    const Reply& r = entry.second.reply;
    return &r.loop() == &loop && r.conn_id() == conn_id;
  });
}

std::optional<std::string> Server::handle_request(Request&& req,
                                                  const Reply& reply) {
  const std::string& op = req.op;
  if (op == "cache_get") {
    // Peer read-through (docs/CACHE.md tier L3): the router asks this
    // backend — the ring owner for the key — before letting another
    // backend simulate. Served entirely at the session layer (L1 peek or
    // one disk pread), never through the queue, so it stays fast even
    // when every worker is busy.
    reply.send_cache_record(cache_ ? cache_->peek_encoded(req.key)
                                   : std::nullopt);
    return std::nullopt;
  }
  // Every other op's request is parsed (and a malformed one refused)
  // here, whether the op reads it or not.
  const json::Value& body = req.body();
  if (op == "result") return handle_result(body, &reply);
  if (op == "submit") return handle_submit(body);
  if (op == "status") return handle_status(body);
  if (op == "cancel") return handle_cancel(body);
  if (op == "extend") return handle_extend(body);
  if (op == "stats")
    return "{\"ok\":true,\"type\":\"stats\",\"stats\":" + stats_json() + "}";
  if (op == "cache_stats") return handle_cache_stats();
  if (op == "cache_flush") return handle_cache_flush();
  if (op == "metrics_text")
    return "{\"ok\":true,\"type\":\"metrics_text\",\"text\":\"" +
           json_escape(metrics_text()) + "\"}";
  return error_json("unknown_op", "unrecognized \"op\" \"" + op + "\"");
}

std::string Server::handle_submit(const json::Value& req) {
  const json::Value* jobs_v = req.find("jobs");
  if (!jobs_v || !jobs_v->is_array() || jobs_v->as_array().empty())
    throw JsonError("submit needs a non-empty \"jobs\" array");
  const std::uint64_t request_deadline_ms =
      req.get_uint("deadline_ms", opts_.default_deadline_ms);
  const std::string key = req.get_string("key", "");
  // masc-routerd --batch-lanes sends the fleet's lane width once per
  // submit; it fills in each job that does not set its own.
  const auto submit_lanes =
      static_cast<std::uint32_t>(req.get_uint("batch_lanes", 0));
  const bool journaling = journal_.is_open();

  // Compile/validate every job before admitting any: a submit either
  // enters the queue whole or not at all.
  const auto now = Clock::now();
  std::vector<SweepJob> parsed;
  std::vector<std::uint64_t> deadlines;  // per job, ms; journaled
  parsed.reserve(jobs_v->as_array().size());
  for (const auto& elem : jobs_v->as_array()) {
    SweepJob job = job_from_json(elem, submit_lanes);
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

  std::vector<std::uint64_t> ids;  // every job of this submit
  std::vector<SweepTask> tasks;
  ids.reserve(parsed.size());
  tasks.reserve(parsed.size());
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
    for (SweepJob& job : parsed) {
      const std::uint64_t id = next_id_.fetch_add(1);
      JobRecord rec;
      rec.id = id;
      rec.key = key;
      rec.job = std::move(job);
      tasks.push_back(task_of(rec));
      // The program image is the bulk of a record's footprint and the
      // runner's copy is the one that runs; keep cfg for the result.
      // With a journal the image is retained so {"op":"extend"} can
      // re-admit the job without re-parsing the journal.
      if (!journaling) rec.job.program = Program{};
      jobs_.emplace(id, std::move(rec));
      ids.push_back(id);
    }
    if (!key.empty()) jobs_by_key_[key] = ids;
  }
  // Admission looks every job up by content hash first: a hit is
  // complete at submit time and never takes a queue slot, so repeat
  // traffic is served even when the queue is saturated and the backlog
  // never grows for work the server already did.
  std::vector<SweepResult> hits;
  if (!admit(std::move(tasks), opts_.queue_capacity, hits)) {
    std::size_t backlog = runner_.queued();
    {
      const std::lock_guard<std::mutex> lock(jobs_mu_);
      for (const std::uint64_t id : ids) jobs_.erase(id);
      if (!key.empty()) jobs_by_key_.erase(key);
      backlog += running_;
    }
    metrics_.on_rejected(ids.size());
    // Retry-after hint: how long until this many slots should free up,
    // from the measured mean job time and the current backlog.
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
  }
  // Cache hits completed at admission: their done records go right
  // behind the submit record, so replay serves them without re-running.
  // No fsync — losing one merely re-runs a cached job.
  for (SweepResult& r : hits) complete(std::move(r), /*sync=*/false);

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
                                                 const Reply* reply) {
  const std::uint64_t id = require_id(req);
  const bool wait = req.get_bool("wait", false);
  const bool release = req.get_bool("release", false);
  const std::uint64_t timeout_ms = req.get_uint("timeout_ms", 60'000);

  std::unique_lock<std::mutex> lock(jobs_mu_);
  // Async wait: instead of blocking the loop thread, park a waiter that
  // the job's completion callback (or release, or shutdown) answers
  // through its Reply. The wake re-runs the original request with
  // waiting disabled, so the response — including release/journal side
  // effects — is exactly what a fresh request at that moment would have
  // produced.
  if (wait && reply != nullptr && !stopping_.load()) {
    const auto wit = jobs_.find(id);
    if (wit != jobs_.end() && wit->second.state != JobState::kDone) {
      const std::uint64_t uid = next_waiter_uid_++;
      waiters_.emplace(id, ResultWaiter{uid, *reply, req});
      lock.unlock();
      // Timer and registration race benignly: if the job completes
      // before the timer is armed, the wake already removed the uid and
      // the timer finds nothing.
      reply->loop().add_timer(timeout_ms, [this, id, uid] {
        wake_waiters(id, uid);  // resolves to not_ready
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
  std::string response = result_answer(id, body);
  if (release) {
    release_job_locked(it);
    lock.unlock();
    // Journaled so replay does not resurrect a record the client
    // already consumed. Unsynced: redelivering a result is harmless.
    journal_.append("{\"rec\":\"release\",\"id\":" + std::to_string(id) + "}",
                    /*sync=*/false);
    // Anyone else parked on this id now sees "gone": answer not_found,
    // matching what their wake would find as a fresh request.
    wake_waiters(id);
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

void Server::wake_waiters(std::optional<std::uint64_t> job_id,
                          std::uint64_t uid) {
  std::vector<ResultWaiter> woken;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    // Equal keys are adjacent in a multimap's iteration order.
    auto it = job_id ? waiters_.find(*job_id) : waiters_.begin();
    while (it != waiters_.end() && (!job_id || it->first == *job_id)) {
      if (uid != 0 && it->second.uid != uid) {
        ++it;
        continue;
      }
      woken.push_back(std::move(it->second));
      it = waiters_.erase(it);
    }
  }
  // A null reply forces the synchronous path: the job is done (or gone,
  // or the wait timed out), so this resolves immediately. The Reply
  // posts the response to the owning loop, which drops it if the
  // connection died while the wait was parked. A uid no longer parked
  // (the job completed first) makes the timer a stale no-op.
  for (const ResultWaiter& w : woken)
    w.reply.answer([&] { return *handle_result(w.request, nullptr); });
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
  std::vector<SweepTask> tasks;
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
    tasks.push_back(task_of(rec));
  }
  std::vector<SweepResult> hits;
  if (!admit(std::move(tasks), opts_.queue_capacity, hits)) {
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
  for (SweepResult& r : hits) complete(std::move(r), /*sync=*/true);
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"extend\",\"id\":" << id
     << ",\"resumed\":" << to_string(resumed) << "}";
  return os.str();
}

SweepTask Server::task_of(const JobRecord& rec) const {
  auto job = std::make_shared<SweepJob>(rec.job);
  if (journal_.is_open() && opts_.checkpoint_every_chunks > 0) {
    // Periodic resume points: bound how much simulation a SIGKILL can
    // cost.
    job->checkpoint_every_chunks = opts_.checkpoint_every_chunks;
    job->checkpoint_sink = checkpoint_sink_;
  }
  return {std::move(job), static_cast<std::size_t>(rec.id)};
}

bool Server::admit(std::vector<SweepTask> tasks, std::size_t limit,
                   std::vector<SweepResult>& hits) {
  const std::size_t n = tasks.size();
  if (!runner_.admit(std::move(tasks), sink_, limit, hits)) return false;
  if (hits.size() < n) metrics_.on_batch(n - hits.size());
  return true;
}

void Server::on_started(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second.state = JobState::kRunning;
  ++running_;
}

void Server::complete(SweepResult&& r, bool sync) {
  const std::uint64_t id = r.index;
  const bool journaling = journal_.is_open();
  std::string done_rec, ckpt_rec;
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    JobRecord& rec = it->second;
    if (rec.state == JobState::kRunning) --running_;
    rec.result = r;
    // A job cancelled by drain() (not by the user) is *parked*, not
    // completed: its submit record stays outstanding in the journal —
    // with a fresh checkpoint when it got far enough to have one — and
    // the restarted server resumes it.
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
      // Parked (drain) jobs stay un-woken: their waiters ride out the
      // timeout.
      wake = waiters_.count(id) != 0;
    }
  }
  if (!ckpt_rec.empty()) journal_.append(ckpt_rec, /*sync=*/false);
  if (!done_rec.empty()) journal_.append(done_rec, sync);
  metrics_.on_done(r);
  // Job-completion post back to the owning loop(s): every parked
  // result-wait for this id resolves now.
  if (wake) wake_waiters(id);
}

std::string Server::handle_cache_stats() {
  std::optional<TieredCacheStats> cs;
  if (cache_) cs = cache_->stats();
  metrics::Registry r(metrics::Format::kJson, kMetricPrefix);
  describe(r, cs ? &*cs : nullptr);
  return "{\"ok\":true,\"type\":\"cache_stats\",\"cache\":" + r.str() + "}";
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

std::string Server::stats_json() const { return render(false); }

std::string Server::metrics_text() const { return render(true); }

std::string Server::render(bool prometheus) const {
  const std::size_t depth = runner_.queued();
  std::size_t running, tracked;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    running = running_;
    tracked = jobs_.size();
  }
  const SweepBatchStats bs = runner_.batch_stats();
  std::optional<TieredCacheStats> cs;
  if (cache_) cs = cache_->stats();
  metrics::Registry r(
      prometheus ? metrics::Format::kPrometheus : metrics::Format::kJson,
      kMetricPrefix);
  metrics_.describe(r, depth, running, opts_.queue_capacity, tracked,
                    cs ? &*cs : nullptr, bs);
  return r.str();
}

}  // namespace masc::serve
