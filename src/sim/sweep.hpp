// Multithreaded sweep runner: a persistent worker set that pulls
// independent (config × program × seed) cycle-accurate simulations from
// one queue, shared by masc-sweep, masc-served and the benchmarks.
//
// Regenerating the paper's artifacts (Figs. 4–6, Table 1) means running
// grids of thousands of independent simulations; each one is
// single-threaded and deterministic, so the whole grid is embarrassingly
// parallel. The runner guarantees *deterministic output*: results[i]
// always corresponds to jobs[i], and because every simulation is a pure
// function of (config, program, seed), the bit pattern of every
// SweepResult::stats is independent of the worker count and of job
// scheduling order. Tests pin that property down.
//
// Jobs can additionally carry a cooperative cancellation token and a
// wall-clock deadline (used by masc-served to bound hostile or runaway
// requests). Both are checked between fixed-size simulation chunks;
// because Machine::run(limit) treats the limit as an absolute cycle
// count, a chunked run is cycle-for-cycle identical to a straight run,
// so determinism is unaffected for jobs that complete.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "assembler/program.hpp"
#include "common/cache_store.hpp"
#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/result_cache.hpp"
#include "fabric/fabric.hpp"
#include "sim/stats.hpp"

namespace masc {

/// Shared flag used to request cooperative cancellation of one or more
/// in-flight jobs. Setting it is sticky; workers observe it at the next
/// chunk boundary (≤ kSweepChunkCycles simulated cycles later).
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken make_cancel_token() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// How a sweep job ended.
enum class SweepStatus : std::uint8_t {
  kFinished,          ///< program ran to completion
  kCycleLimit,        ///< max_cycles reached before completion
  kError,             ///< the simulation threw (see SweepResult::error)
  kCancelled,         ///< cancel token fired mid-run
  kDeadlineExceeded,  ///< wall-clock deadline passed mid-run
};

const char* to_string(SweepStatus s);

/// One independent simulation job. `seed` is carried through to the
/// result (and available to workload generators that want to key
/// randomized inputs off it); the simulator itself is deterministic.
struct SweepJob {
  MachineConfig cfg;
  /// When set, the job simulates a K-chip fabric (every chip = `cfg`)
  /// instead of a single Machine (docs/MULTICHIP.md). The checkpoint
  /// fields below then carry Fabric::save_state() blobs, and
  /// SweepResult::fabric reports the inter-chip counters. Every fabric
  /// knob changes simulated behavior, so all of them feed
  /// sweep_cache_key() — a multi-chip run can never be served from a
  /// single-chip cache entry or vice versa.
  std::optional<fabric::FabricConfig> fabric;
  Program program;
  std::string label;                 ///< free-form tag echoed in the result
  std::uint64_t seed = 0;
  Cycle max_cycles = 100'000'000;
  /// Optional cooperative cancellation token (may be shared by many jobs).
  CancelToken cancel;
  /// Optional absolute wall-clock deadline. Callers define the epoch:
  /// masc-sweep sets `start + --deadline-ms` for the whole grid,
  /// masc-served sets `submit_time + deadline_ms` per job.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Lane-batching width for this job (docs/PERF.md "Lane batching"):
  /// SweepRunner may run up to this many compatible jobs in lockstep on
  /// one batched machine. 0 = inherit the runner's default
  /// (SweepRunner::set_batch_lanes); 1 = always serial. A host-execution
  /// knob with bit-identical results, so it is deliberately EXCLUDED from
  /// sweep_cache_key() and checkpoint identity.
  std::uint32_t batch_lanes = 0;

  // --- Checkpoint/restore (docs/RELIABILITY.md) -------------------------------
  /// Resume point: a Machine::save_state() blob taken on the same
  /// (config, program). The worker restores it after load(), so the run
  /// continues exactly where the checkpoint was taken. Shared_ptr keeps
  /// SweepJob copies cheap (the blob can be hundreds of KiB).
  std::shared_ptr<const std::string> initial_state;
  /// Capture SweepResult::checkpoint when the job is stopped early by
  /// cancellation or deadline (and has simulated at least one cycle).
  bool checkpoint_on_stop = false;
  /// Emit a checkpoint to `checkpoint_sink` every N completed chunks
  /// (0 = never). Requires a sink.
  std::uint32_t checkpoint_every_chunks = 0;
  /// Receives (the job's result index, state blob); called from worker
  /// threads, so
  /// the callee synchronizes. Shared so job copies stay cheap.
  std::shared_ptr<const std::function<void(std::size_t, const std::string&)>>
      checkpoint_sink;
};

struct SweepResult {
  std::size_t index = 0;             ///< position of the job in the input
  std::string label;
  std::uint64_t seed = 0;
  SweepStatus status = SweepStatus::kCycleLimit;
  bool finished = false;             ///< status == kFinished (legacy mirror)
  std::string error;                 ///< non-empty if the simulation threw
  Stats stats;                       ///< partial up to the stop point unless
                                     ///< status == kFinished
  /// Inter-chip counters for fabric jobs (SweepJob::fabric set);
  /// `stats` is then the fleet aggregate (Fabric::fleet_stats).
  std::optional<fabric::FabricStats> fabric;
  double host_seconds = 0.0;         ///< wall time of this job on its worker
  /// Machine state at the stop point, when the job asked for
  /// checkpoint_on_stop and was cancelled / deadline-stopped mid-run.
  std::string checkpoint;
};

/// Simulated cycles run between cancellation/deadline checks. Small
/// enough that cancellation latency is sub-millisecond-ish on the host,
/// large enough that the check (one atomic load, one clock read) is
/// invisible in throughput.
inline constexpr Cycle kSweepChunkCycles = 65'536;

// --- Result cache (docs/PERF.md "Result cache") ------------------------------

/// The cached outcome of one completed simulation: everything about a
/// SweepResult that is a pure function of the cache key. Per-job
/// metadata (index, label, seed, host_seconds) is re-attached on a hit.
/// Only deterministic, fully-completed outcomes are cached — kFinished
/// and kCycleLimit; never cancelled/deadline/error stops, and never any
/// run executed while a fault injector was installed.
struct CachedSweepRun {
  SweepStatus status = SweepStatus::kFinished;
  Stats stats;
  std::optional<fabric::FabricStats> fabric;  ///< fabric jobs only
};

/// Binary serialization of one cached run (tier-L2 record payload and
/// the peer `cache_get` wire format, docs/CACHE.md). Uses the
/// checkpoint BinWriter discipline, so a decoded run's stats are
/// bit-identical to the encoded ones.
std::string encode_cached_run(const CachedSweepRun& run);
/// False on any malformed/truncated payload (callers treat it as a
/// cache miss, never an error).
bool decode_cached_run(std::string_view payload, CachedSweepRun& out);

/// Per-tier cache counters. Inherits the L1 LRU fields; `hits` /
/// `misses` are overridden to the *combined* outcome of tiered lookups
/// (an L2 promotion counts as a hit, not a miss), with the raw L1
/// numbers in `l1_hits` and the disk tier's own counters in `disk`.
struct TieredCacheStats : CacheStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;          ///< lookups served by promoting from disk
  std::uint64_t promotions = 0;       ///< L2 -> L1 copies (== l2_hits)
  std::uint64_t demotions = 0;        ///< records written behind to disk
  std::uint64_t demote_drops = 0;     ///< write-behind queue overflow
  std::uint64_t decode_failures = 0;  ///< disk payloads that failed to decode
  std::uint64_t flights_led = 0;      ///< single-flight: claims granted
  std::uint64_t flights_joined = 0;   ///< waits behind another flight
  std::uint64_t flights_served = 0;   ///< waits resolved by the leader's publish
  bool disk_enabled = false;
  bool disk_open_failed = false;      ///< --cache-dir was set but unusable
  CacheStoreStats disk;               ///< zeroed unless disk_enabled
};
/// The members of the "cache" object of /stats and cache_stats; a null
/// `s` (no cache configured) is {"enabled":false}.
void describe(metrics::Registry& r, const TieredCacheStats* s);

/// The tiered result cache (docs/CACHE.md): a sharded in-RAM LRU (L1,
/// common/result_cache.hpp) over an optional crash-durable on-disk
/// segment store (L2, common/cache_store.hpp). Lookups fall through
/// L1 -> L2, promoting disk hits into RAM; inserts land in L1 and are
/// demoted to disk by a write-behind thread so the simulation hot path
/// never blocks on fsync. Every disk failure mode degrades to "just a
/// RAM cache" with a counter — nothing in here ever throws into the
/// request path. Also provides the single-flight protocol so concurrent
/// identical misses across SweepRunner invocations simulate once.
class SweepResultCache {
 public:
  explicit SweepResultCache(std::size_t capacity_bytes, unsigned shards = 16);
  ~SweepResultCache();  ///< drains and joins the write-behind thread

  SweepResultCache(const SweepResultCache&) = delete;
  SweepResultCache& operator=(const SweepResultCache&) = delete;

  /// Attach an *open* disk store as tier L2 and start the write-behind
  /// thread. Call at most once, before the cache is shared.
  void attach_disk(std::unique_ptr<CacheStore> store);
  /// Record that a configured disk tier could not be opened (surfaced
  /// in stats as disk_open_failed; the cache runs RAM-only).
  void note_disk_open_failure();
  bool disk_attached() const { return store_ != nullptr; }

  /// L1 then L2; a disk hit is decoded, promoted into L1, and returned.
  std::shared_ptr<const CachedSweepRun> lookup(const Hash128& key);

  /// Insert into L1 and (when a disk tier is attached) enqueue the
  /// encoded record for write-behind demotion to L2.
  void insert(const Hash128& key, std::shared_ptr<const CachedSweepRun> value,
              std::size_t bytes);

  /// Serve a peer `cache_get`: the encoded record from L1 or L2,
  /// without touching the hit/miss counters (peer traffic must not
  /// inflate this process's hit-rate).
  std::optional<std::string> peek_encoded(const Hash128& key);

  // --- Single-flight (docs/CACHE.md "Single-flight") -------------------------
  /// Claim the right to compute `key`. If another flight is already in
  /// progress, wait up to `wait` for its publish and return the value
  /// (leader=false). Returns null with leader=true when the caller must
  /// compute and then publish() or abort_flight(); null with
  /// leader=false when the wait timed out or the leader aborted — the
  /// caller computes on its own and inserts normally.
  std::shared_ptr<const CachedSweepRun> begin_flight(
      const Hash128& key, bool* leader,
      std::chrono::milliseconds wait = std::chrono::milliseconds(30'000));
  /// Leader path: insert the computed value and wake waiters with it.
  void publish(const Hash128& key, std::shared_ptr<const CachedSweepRun> value,
               std::size_t bytes);
  /// Leader path when the result is not cacheable: wake waiters
  /// empty-handed (each then computes under its own tokens).
  void abort_flight(const Hash128& key);

  /// Force L1 -> L2 demotion of every RAM entry, then drain the
  /// write-behind queue and fsync (the `cache_flush` op). Returns the
  /// number of records written. No-op (0) without a disk tier.
  std::size_t flush_to_disk();
  /// Block until the write-behind queue is empty and synced (tests and
  /// orderly shutdown).
  void drain_writes();

  TieredCacheStats stats() const;
  std::size_t capacity_bytes() const { return l1_.capacity_bytes(); }
  unsigned shards() const { return l1_.shards(); }

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const CachedSweepRun> value;
  };

  void enqueue_write(const Hash128& key, std::string payload);
  void finish_flight(const Hash128& key,
                     std::shared_ptr<const CachedSweepRun> value);
  void flusher_loop();

  ResultCache<CachedSweepRun> l1_;
  std::unique_ptr<CacheStore> store_;

  mutable std::mutex tier_mu_;  ///< tiered counters
  std::uint64_t l2_hits_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t demote_drops_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t flights_led_ = 0;
  std::uint64_t flights_joined_ = 0;
  std::uint64_t flights_served_ = 0;
  bool disk_open_failed_ = false;

  std::mutex flights_mu_;
  std::unordered_map<Hash128, std::shared_ptr<Flight>, Hash128Hasher> flights_;

  // One-entry memo for peek_encoded(): serving the same hot record to a
  // burst of peer/pipelined cache_gets must not re-serialize it each
  // time. Validated by both key and record identity (weak_ptr), so an
  // eviction + re-insert under the same key can never serve stale bytes.
  std::mutex enc_mu_;
  Hash128 enc_key_{};
  std::weak_ptr<const CachedSweepRun> enc_src_;
  std::string enc_bytes_;

  // Write-behind queue: bounded so a disk slower than the simulator
  // sheds demotions (counted) instead of growing without bound.
  std::mutex wb_mu_;
  std::condition_variable wb_cv_;    ///< flusher wakeup
  std::condition_variable wb_done_;  ///< drain_writes() wakeup
  std::deque<std::pair<Hash128, std::string>> wb_queue_;
  std::size_t wb_in_flight_ = 0;     ///< records popped but not yet written
  bool wb_stop_ = false;
  std::thread flusher_;
  static constexpr std::size_t kWriteBehindSlots = 1024;
};

/// Content hash over every input that determines a job's outcome:
/// program text/data/entry, the full canonical MachineConfig, the cycle
/// budget, and the resume-state blob (when present). Deliberately
/// EXCLUDED: label and seed (metadata echoed into the result, invisible
/// to the simulator), program symbols (assembly-time bookkeeping), and
/// cancellation/deadline/checkpoint plumbing (they select *whether* a
/// run stops early, and early stops are never cached).
Hash128 sweep_cache_key(const SweepJob& job);

/// Feed every MachineConfig field into `h` in one fixed order: the
/// config part of both sweep_cache_key() and lane_batch_key().
/// result_cache_test.cpp pins sizeof(MachineConfig), so a field added
/// without extending this list fails a test instead of letting two
/// differing machines share a key.
void hash_config(Fnv128& h, const MachineConfig& c);

/// Approximate heap + struct footprint of one cached run, used as its
/// LRU byte charge.
std::size_t cached_run_bytes(const CachedSweepRun& run);

/// Rebuild a full SweepResult from a cached run plus the job's own
/// metadata (index, label, seed). `host_seconds` is what the lookup
/// cost, not what the original simulation cost — the point of the
/// cache. Used by SweepRunner on hits and by masc-served's submit-time
/// fast path.
SweepResult materialize_cached(const CachedSweepRun& run, const SweepJob& job,
                               std::size_t index, double host_seconds);

/// Run one job serially to completion: the single-lane execution path
/// every other mode is defined against. The lane-batch engine uses it
/// to replay ejected lanes (bit-identity by construction), and tests
/// use it as the reference run.
SweepResult run_sweep_job(const SweepJob& job, std::size_t index);

/// Lane-batching counters accumulated by a SweepRunner's workers
/// (docs/PERF.md "Lane batching"); surfaced by masc-served as the
/// `batch` section of /stats and the masc_served_batch_* Prometheus
/// series. `occupancy` is a log2 histogram of lanes-per-flush: bucket 0
/// counts flushes where no lane entered lockstep (engine refusal),
/// bucket b counts flushes with occupancy in [2^(b-1), 2^b).
/// lane_batch_test.cpp pins sizeof so a new field cannot be added
/// without deciding how it aggregates and renders.
struct SweepBatchStats {
  std::uint64_t batch_flushes = 0;  ///< batches handed to run_lane_batch
  std::uint64_t batched_jobs = 0;   ///< jobs that entered lockstep execution
  std::uint64_t replayed_jobs = 0;  ///< lanes ejected to a serial replay
  std::uint64_t faulted_lanes = 0;  ///< lanes stopped by per-lane data faults
  std::array<std::uint64_t, 17> occupancy{};
};
/// The members of the "batch" object of /stats.
void describe(metrics::Registry& r, const SweepBatchStats& s);

/// One job offered to SweepRunner::admit() and the index its result
/// reports (a position for run(), a job id for masc-served).
struct SweepTask {
  std::shared_ptr<const SweepJob> job;
  std::size_t index = 0;
};

/// Where the runner reports a queued job's progress, from worker
/// threads: `started` (optional) when a worker pulls it, `done` once
/// with its result.
struct SweepSink {
  std::function<void(std::size_t index)> started;
  std::function<void(SweepResult&& r)> done;
};

/// A work-conserving job scheduler: one persistent worker set pulling
/// from one FIFO. The constructor starts the workers, which are the
/// only simulation threads the runner ever starts; close() (or the
/// destructor) drains the queue and joins them.
///
/// A worker pulls one *unit*: the oldest queued job plus up to L−1
/// other queued jobs with the same lane_batch_key and lane width L,
/// whichever submit they came from. A unit of several jobs runs in
/// lockstep (docs/PERF.md "Lane batching"); a unit of one is the serial
/// path. A job therefore waits only for a free worker, never for other
/// jobs that happened to be admitted with it.
class SweepRunner {
 public:
  /// `workers` = 0 selects std::thread::hardware_concurrency().
  explicit SweepRunner(unsigned workers = 0);
  ~SweepRunner();  ///< close()

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  unsigned workers() const { return static_cast<unsigned>(pool_.size()); }

  /// Attach (or, with nullptr, detach) a shared result cache. With a
  /// cache attached, admission answers repeat jobs from memory and
  /// dedups identical jobs within one admission (see run() docs);
  /// without one, behavior is exactly the uncached fast path. Applies
  /// to jobs admitted afterwards.
  void set_cache(std::shared_ptr<SweepResultCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<SweepResultCache>& cache() const { return cache_; }

  /// Default lane-batching width for jobs that leave
  /// SweepJob::batch_lanes at 0. With an effective width of N > 1,
  /// compatible jobs (same lane_batch_key, lane_batchable) are pulled
  /// in lockstep units of up to N lanes; 1 keeps every job on the
  /// serial path. Results are bit-identical either way. Applies to jobs
  /// admitted afterwards.
  void set_batch_lanes(std::uint32_t lanes) {
    batch_lanes_ = lanes == 0 ? 1 : lanes;
  }
  std::uint32_t batch_lanes() const { return batch_lanes_; }

  /// Snapshot of the lane-batching counters accumulated so far.
  SweepBatchStats batch_stats() const;

  /// Queue `tasks` for the workers, all or nothing. With a cache
  /// attached, each job is first looked up by content hash: a hit is
  /// complete at once and is appended to `hits` (index set, sink not
  /// called), and a job identical to an earlier one of the same call
  /// rides on that one's run. False — queueing nothing, answering
  /// nothing — when the jobs that must queue would take the queue past
  /// `limit` jobs not yet pulled, or after close(). Every queued job
  /// reaches sink->done exactly once.
  bool admit(std::vector<SweepTask> tasks, std::shared_ptr<const SweepSink> sink,
             std::size_t limit, std::vector<SweepResult>& hits);

  /// Jobs admitted and not yet pulled by a worker.
  std::size_t queued() const;

  /// Refuse further admissions, let the workers drain every queued job,
  /// and join them. Idempotent.
  void close();

  /// Admit every job, wait for all of them, and return results ordered
  /// by job index. A job that throws is reported via SweepResult::error
  /// rather than aborting the sweep. `on_done`, when set, sees each
  /// result as it finishes (from worker threads, serialized; completion
  /// order, not index order).
  ///
  /// With a cache attached (set_cache), each job is first looked up by
  /// content hash — a hit returns the cached stats without simulating —
  /// and identical grid points within one call are *deduplicated*: one
  /// leader simulates, the others adopt its result. Both paths preserve
  /// the ordering guarantee (results[i] is jobs[i]'s result, stats
  /// bit-identical to an uncached run) because a cached or adopted
  /// outcome is by construction the deterministic outcome. A leader
  /// stopped early (cancel/deadline/error) is NOT fanned out — each
  /// duplicate then runs individually under its own tokens.
  std::vector<SweepResult> run(
      const std::vector<SweepJob>& jobs,
      const std::function<void(const SweepResult&)>& on_done = nullptr);

 private:
  /// A queued job with its lane grouping, fixed at admission, and the
  /// identical jobs of its admission that adopt its result.
  struct Queued {
    SweepTask task;
    std::vector<SweepTask> twins;
    std::shared_ptr<const SweepSink> sink;
    std::shared_ptr<SweepResultCache> cache;  ///< as attached at admission
    Hash128 key;                 ///< cache key (with a cache)
    Hash128 lane_key;            ///< lane_batch_key (lanes > 1)
    std::uint32_t lanes = 1;     ///< effective lane width; 1 = serial
  };

  void worker_loop();
  /// Block for the next unit; false once closed and drained.
  bool pull(std::vector<Queued>& unit);
  void run_unit(std::vector<Queued>& unit);
  /// Cache and deliver a job's result; fan it out to (or rerun) twins.
  void finish_leader(const Queued& q, SweepResult&& r, bool flight_leader);

  std::shared_ptr<SweepResultCache> cache_;
  std::uint32_t batch_lanes_ = 1;
  mutable std::mutex batch_mu_;  ///< guards batch_stats_
  SweepBatchStats batch_stats_;

  mutable std::mutex mu_;        ///< guards the queue below
  std::condition_variable cv_;
  std::deque<Queued> queue_;
  std::size_t queued_jobs_ = 0;  ///< queue_ entries plus their twins
  bool closed_ = false;
  std::vector<std::thread> pool_;
};

/// JSON object for one sweep result (config name + label + stats), used
/// by masc-sweep, masc-served, and scriptable benchmarking.
std::string to_json(const SweepResult& r, const MachineConfig& cfg);

}  // namespace masc
