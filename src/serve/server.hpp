// masc-served core: a long-running simulation service on localhost TCP.
//
// Architecture (one paragraph): the shared session front end
// (serve/front_end.hpp, docs/NET.md) accepts connections onto
// `io_threads` epoll event loops and decodes requests — both v1 JSON
// (serve/protocol.hpp) and the negotiated binary protocol v2
// (serve/protocol_v2.hpp), pipelined many-in-flight per connection —
// which this server's op table handles inline on the loop thread.
// Submitted jobs are compiled on the loop thread and admitted
// all-or-nothing into the SweepRunner's one queue (backpressure: a full
// queue rejects with a retry-after hint instead of blocking). The
// runner's persistent workers pull from that queue as they free up —
// the oldest job plus any queued lane-compatible ones — so a job waits
// for a free worker, never for the rest of another client's submit. A
// `result` wait never blocks its loop: it parks as an async waiter that
// the job's completion callback posts back to the owning loop. This is
// the paper's latency-hiding argument applied to the host: no worker
// idles while work is ready, while each simulation stays a pure
// function of (config, program, seed), so results are bit-identical to
// a serial run no matter how requests interleave.
//
// Cancellation is cooperative (per-job token, observed at sweep chunk
// boundaries) and deadlines are wall-clock, measured from submission.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/front_end.hpp"
#include "serve/journal.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "sim/sweep.hpp"

namespace masc::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see Server::port).
  std::uint16_t port = 0;
  /// SweepRunner worker threads; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Queue slots: jobs admitted and not yet pulled by a worker.
  /// Submits that do not fit entirely are rejected.
  std::size_t queue_capacity = 256;
  /// Server-side clamp on any job's cycle limit.
  Cycle max_cycles_cap = 1'000'000'000;
  /// Deadline applied to jobs that do not carry their own, in ms from
  /// submission; 0 = none.
  std::uint64_t default_deadline_ms = 0;
  /// SIMD-over-jobs lane width for jobs that do not request their own
  /// "batch_lanes" (docs/PERF.md "Lane batching"). 1 = serial. Up to N
  /// homogeneous queued jobs execute in lockstep on one worker; results
  /// and cache keys are identical either way. Journaled servers run
  /// jobs with checkpoint-on-stop, which excludes them from batching,
  /// so this knob is inert when `journal_path` is set.
  std::uint32_t batch_lanes = 1;

  // --- Result cache (docs/PERF.md "Result cache") -----------------------------
  /// Byte budget for the deterministic result cache; 0 disables it.
  /// With a cache, a submit whose jobs were all seen before completes
  /// at admission time — without taking queue slots, so repeat traffic
  /// is served even when the queue is saturated — and the SweepRunner
  /// dedups identical jobs within a submit and answers queued repeats.
  std::size_t cache_bytes = 0;
  /// Lock shards of the cache (contention vs. memory granularity).
  unsigned cache_shards = 16;
  /// Directory for the crash-durable L2 disk tier (docs/CACHE.md);
  /// empty = RAM-only. Setting this with cache_bytes == 0 enables the
  /// cache with a 64 MiB RAM tier (a disk tier needs an L1 in front).
  /// An unusable directory degrades to RAM-only with a counter — it
  /// never stops the server.
  std::string cache_dir;
  /// Disk tier byte budget (oldest segments retire past it).
  std::size_t cache_disk_bytes = 256u << 20;
  /// Disk tier segment size (rotation threshold).
  std::size_t cache_segment_bytes = 8u << 20;

  // --- Resilience (docs/RELIABILITY.md) ---------------------------------------
  /// Append-only job journal path; empty disables journaling. With a
  /// journal, start() replays it: completed jobs serve their recorded
  /// results, unfinished jobs are re-enqueued (resuming from their last
  /// checkpoint when one was recorded), and duplicate submits carrying
  /// the same "key" return the original ids.
  std::string journal_path;
  /// Journal a running job's checkpoint every N sweep chunks (N ×
  /// 65536 cycles); 0 = only at drain. Requires a journal.
  std::uint32_t checkpoint_every_chunks = 0;
  /// Per-chunk socket read/write budget per session, ms; 0 = unbounded.
  std::uint64_t io_timeout_ms = 0;
  /// Reap sessions idle (no request frame) this long, ms; 0 = never.
  std::uint64_t idle_timeout_ms = 0;
  /// Event-loop threads serving connections (docs/NET.md). Each loop
  /// multiplexes its share of the connections with epoll; 0 = 1.
  unsigned io_threads = 2;
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Replay the journal, then bind, listen, and spawn the accept and
  /// loop threads (the simulation workers already run). Throws
  /// ServeError if the port cannot be bound.
  void start();

  /// Drain: refuse new connections and submissions, cancel queued and
  /// running jobs, join every thread. Idempotent.
  void stop();

  /// Graceful drain for SIGTERM: like stop(), but jobs interrupted
  /// mid-run are checkpointed to the journal instead of being reported
  /// as cancelled, and queued jobs are left journaled-but-unfinished —
  /// a restart on the same journal resumes all of them bit-identically.
  /// Without a journal this degrades to stop(). Idempotent (and
  /// exclusive with stop(): whichever runs first wins).
  void drain();

  /// The bound port (after start()); useful with ServerOptions::port = 0.
  std::uint16_t port() const { return front_.port(); }

  /// True once a client has sent {"op":"shutdown"}; the embedding
  /// program is expected to notice and call stop().
  bool shutdown_requested() const { return front_.shutdown_requested(); }

  /// The same JSON served to {"op":"stats"} (for embedding/tests).
  std::string stats_json() const;

  /// Prometheus text exposition of the same counters, as served to
  /// {"op":"metrics_text"} (docs/SERVER.md "Prometheus metrics").
  std::string metrics_text() const;

 private:
  enum class JobState : std::uint8_t { kQueued, kRunning, kDone };

  struct JobRecord {
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    std::string key;       ///< the submit's idempotency key, "" if none
    SweepJob job;          ///< carries the cancel token and deadline
    SweepResult result;    ///< valid once state == kDone
    /// Serialized result object, as served to {"op":"result"}. Filled on
    /// completion and by journal replay of "done" records (for which
    /// `result` holds only the status/error fields).
    std::string result_json;
    /// True when {"op":"cancel"} fired this job's token, distinguishing
    /// a user cancellation (a final result) from a drain interruption
    /// (checkpointed, resumed on restart).
    bool user_cancelled = false;
  };

  struct ResultWaiter {
    std::uint64_t uid = 0;  ///< registry handle (timer vs wake races)
    Reply reply;
    /// The original request, re-run on wake so release/journal
    /// semantics are identical to a fresh request's.
    json::Value request;
  };

  /// runner_.admit() plus the batches counter; caller is not holding
  /// jobs_mu_.
  bool admit(std::vector<SweepTask> tasks, std::size_t limit,
             std::vector<SweepResult>& hits);
  /// The runner's copy of a record's job. Caller holds jobs_mu_.
  SweepTask task_of(const JobRecord& rec) const;
  void on_started(std::uint64_t id);
  /// Record, journal (fsync'd when `sync`) and wake a job's result; a
  /// drain-cancelled job is parked instead.
  void complete(SweepResult&& r, bool sync);

  /// The op table, on the loop thread (FrontEnd::Handler).
  std::optional<std::string> handle_request(Request&& req,
                                            const Reply& reply);
  /// Orphan a closed connection's parked result-waits.
  void on_conn_close(net::EventLoop& loop, std::uint64_t conn_id);

  /// Answer parked result-waits: `job_id`'s (every one when nullopt),
  /// or only waiter `uid` when nonzero (its timer fired).
  void wake_waiters(std::optional<std::uint64_t> job_id,
                    std::uint64_t uid = 0);

  std::string handle_submit(const json::Value& req);
  std::string handle_status(const json::Value& req);
  /// The response, or nullopt when the request parked as an async waiter
  /// on `reply` (only wait=true with a reply does).
  std::optional<std::string> handle_result(const json::Value& req,
                                           const Reply* reply);
  std::string handle_cancel(const json::Value& req);
  std::string handle_extend(const json::Value& req);
  std::string handle_cache_stats();
  std::string handle_cache_flush();
  /// stats_json() or metrics_text(): one snapshot, two renderings.
  std::string render(bool prometheus) const;

  /// Erase a released job, and its key's dedup entry once no job of
  /// that key remains. Caller holds jobs_mu_ (or is single-threaded
  /// journal replay).
  void release_job_locked(std::map<std::uint64_t, JobRecord>::iterator it);

  /// Replay one journal record into jobs_ / jobs_by_key_ / next_id_.
  /// Unparseable or stale records are skipped (crash-written garbage
  /// must not keep the server from starting).
  void apply_journal_record(const std::string& payload);
  /// Shared shutdown path: `park_interrupted` selects drain() semantics.
  void shutdown_impl(bool park_interrupted);

  ServerOptions opts_;

  ServeMetrics metrics_;
  /// Shared with runner_; null when opts_.cache_bytes == 0.
  std::shared_ptr<SweepResultCache> cache_;

  Journal journal_;                          ///< no-op unless journal_path set
  /// Periodic resume points for running jobs, keyed by job id (set on
  /// jobs when journaling with checkpoint_every_chunks > 0).
  std::shared_ptr<const std::function<void(std::size_t, const std::string&)>>
      checkpoint_sink_;

  mutable std::mutex jobs_mu_;
  std::map<std::uint64_t, JobRecord> jobs_;  ///< id → record
  /// job id → parked result-waits, woken by the job's completion
  /// callback (guarded by jobs_mu_).
  std::unordered_multimap<std::uint64_t, ResultWaiter> waiters_;
  std::uint64_t next_waiter_uid_ = 1;        ///< guarded by jobs_mu_
  /// Idempotency: submit "key" → the ids of the submit that created it.
  /// Rebuilt from the journal on restart, so a client that resends a
  /// keyed submit after a crash gets its original ids, not fresh jobs.
  /// An entry is dropped once every one of its jobs is released.
  std::map<std::string, std::vector<std::uint64_t>> jobs_by_key_;
  std::atomic<std::uint64_t> next_id_{1};
  std::size_t running_ = 0;                  ///< jobs pulled by a worker

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};        ///< drain() (vs stop()) shutdown

  /// Sessions: `io_threads` epoll loops behind one acceptor.
  FrontEnd front_;

  std::shared_ptr<const SweepSink> sink_;  ///< reports into this server
  /// The workers and their queue. Declared last: destroyed (closed and
  /// joined) first, while everything its callbacks touch still exists.
  SweepRunner runner_;
};

}  // namespace masc::serve
