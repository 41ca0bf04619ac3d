#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/json.hpp"
#include "fault/fault.hpp"
#include "sim/lane_batch.hpp"
#include "sim/machine.hpp"

namespace masc {

namespace {

/// Fabric variant of the single-machine loop below: same chunked
/// structure and stop conditions, but time advances through
/// Fabric::run (which is itself chunk-restartable — its limit is an
/// absolute fleet cycle count, like Machine::run). Checkpoints are
/// Fabric::save_state blobs.
void run_one_fabric(const SweepJob& job, std::size_t index, SweepResult& r) {
  fabric::Fabric f(job.cfg, *job.fabric);
  f.load(job.program);
  if (job.initial_state) f.restore_state(*job.initial_state);
  const bool chunked = job.cancel || job.deadline ||
                       job.checkpoint_on_stop ||
                       job.checkpoint_every_chunks > 0 ||
                       fault::active() != nullptr;
  if (!chunked) {
    r.status = f.run(job.max_cycles) ? SweepStatus::kFinished
                                     : SweepStatus::kCycleLimit;
  } else {
    r.status = SweepStatus::kCycleLimit;
    std::uint64_t chunks_done = 0;
    for (;;) {
      if (job.cancel && job.cancel->load(std::memory_order_relaxed)) {
        r.status = SweepStatus::kCancelled;
        if (job.checkpoint_on_stop && f.now() > 0) r.checkpoint = f.save_state();
        break;
      }
      if (job.deadline && std::chrono::steady_clock::now() >= *job.deadline) {
        r.status = SweepStatus::kDeadlineExceeded;
        if (job.checkpoint_on_stop && f.now() > 0) r.checkpoint = f.save_state();
        break;
      }
      if (auto* inj = fault::active(); inj && inj->on_chunk())
        throw fault::FaultInjected("injected fault: worker chunk killed");
      const Cycle limit =
          std::min<Cycle>(job.max_cycles, f.now() + kSweepChunkCycles);
      if (f.run(limit)) {
        r.status = SweepStatus::kFinished;
        break;
      }
      if (f.now() >= job.max_cycles) break;  // true cycle-limit stop
      ++chunks_done;
      if (job.checkpoint_every_chunks > 0 && job.checkpoint_sink &&
          chunks_done % job.checkpoint_every_chunks == 0)
        (*job.checkpoint_sink)(index, f.save_state());
    }
  }
  r.stats = f.fleet_stats();
  r.fabric = f.stats();
}

}  // namespace

SweepResult run_sweep_job(const SweepJob& job, std::size_t index) {
  SweepResult r;
  r.index = index;
  r.label = job.label;
  r.seed = job.seed;
  const auto t0 = std::chrono::steady_clock::now();
  const bool chunked = job.cancel || job.deadline || job.initial_state ||
                       job.checkpoint_on_stop ||
                       job.checkpoint_every_chunks > 0 ||
                       fault::active() != nullptr;
  try {
    if (job.fabric) {
      run_one_fabric(job, index, r);
      r.finished = r.status == SweepStatus::kFinished;
      r.host_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      return r;
    }
    Machine m(job.cfg);
    m.load(job.program);
    if (job.initial_state) m.restore_state(*job.initial_state);
    if (!chunked) {
      // Fast path: no cooperative checks requested, run straight through.
      r.status = m.run(job.max_cycles) ? SweepStatus::kFinished
                                       : SweepStatus::kCycleLimit;
    } else {
      // Chunked run: Machine::run treats its limit as an absolute cycle
      // count, so run(min(now+chunk, max)) repeated to completion is
      // cycle-for-cycle identical to run(max) — the checks between
      // chunks are invisible to the simulated machine. That also makes
      // chunk boundaries safe checkpoint points: save_state() between
      // chunks captures a state any resumed run continues from
      // bit-identically.
      r.status = SweepStatus::kCycleLimit;
      std::uint64_t chunks_done = 0;
      for (;;) {
        if (job.cancel && job.cancel->load(std::memory_order_relaxed)) {
          r.status = SweepStatus::kCancelled;
          if (job.checkpoint_on_stop && m.now() > 0)
            r.checkpoint = m.save_state();
          break;
        }
        if (job.deadline && std::chrono::steady_clock::now() >= *job.deadline) {
          r.status = SweepStatus::kDeadlineExceeded;
          if (job.checkpoint_on_stop && m.now() > 0)
            r.checkpoint = m.save_state();
          break;
        }
        if (auto* inj = fault::active(); inj && inj->on_chunk())
          throw fault::FaultInjected("injected fault: worker chunk killed");
        const Cycle limit =
            std::min<Cycle>(job.max_cycles, m.now() + kSweepChunkCycles);
        if (m.run(limit)) {
          r.status = SweepStatus::kFinished;
          break;
        }
        if (m.now() >= job.max_cycles) break;  // true cycle-limit stop
        ++chunks_done;
        if (job.checkpoint_every_chunks > 0 && job.checkpoint_sink &&
            chunks_done % job.checkpoint_every_chunks == 0)
          (*job.checkpoint_sink)(index, m.save_state());
      }
    }
    r.stats = m.stats();
  } catch (const std::exception& e) {
    r.error = e.what();
    r.status = SweepStatus::kError;
  }
  r.finished = r.status == SweepStatus::kFinished;
  r.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

namespace {

/// True when a result is the complete, deterministic outcome of its
/// cache key: the run went to its natural end (program completion or
/// the cycle budget). Early stops (cancel/deadline) and errors depend
/// on wall-clock timing or on injected faults, so they are neither
/// cached nor fanned out to deduplicated twins.
bool deterministic_outcome(const SweepResult& r) {
  return (r.status == SweepStatus::kFinished ||
          r.status == SweepStatus::kCycleLimit) &&
         r.error.empty();
}

/// Only a complete run made with no fault injector installed may be
/// cached: an injector can kill chunks mid-run, and a poisoned entry
/// would replay the fault forever.
bool cacheable(const SweepResult& r) {
  return deterministic_outcome(r) && fault::active() == nullptr;
}

/// The cacheable part of a result, as stored and fanned out.
std::shared_ptr<const CachedSweepRun> cached_run_of(const SweepResult& r) {
  return std::make_shared<const CachedSweepRun>(
      CachedSweepRun{r.status, r.stats, r.fabric});
}

}  // namespace

SweepResult materialize_cached(const CachedSweepRun& run, const SweepJob& job,
                               std::size_t index, double host_seconds) {
  SweepResult r;
  r.index = index;
  r.label = job.label;
  r.seed = job.seed;
  r.status = run.status;
  r.finished = run.status == SweepStatus::kFinished;
  r.stats = run.stats;
  r.fabric = run.fabric;
  r.host_seconds = host_seconds;
  return r;
}

void hash_config(Fnv128& h, const MachineConfig& c) {
  h.u32(c.num_pes);
  h.u32(static_cast<std::uint32_t>(c.word_width));
  h.u32(c.num_threads);
  h.u8(c.multithreading ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(c.sched_policy));
  h.u32(c.issue_width);
  h.u32(c.switch_penalty);
  h.u32(c.num_scalar_regs);
  h.u32(c.num_parallel_regs);
  h.u32(c.num_flag_regs);
  h.u32(c.local_mem_bytes);
  h.u32(c.scalar_mem_bytes);
  h.u32(c.instr_mem_words);
  h.u32(c.broadcast_arity);
  h.u8(c.pipelined_network ? 1 : 0);
  h.u8(c.pipelined_execution ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(c.multiplier));
  h.u8(static_cast<std::uint8_t>(c.divider));
  h.u8(static_cast<std::uint8_t>(c.maxmin_unit));
  h.u8(static_cast<std::uint8_t>(c.regfile_impl));
  h.u8(static_cast<std::uint8_t>(c.flagfile_impl));
}

Hash128 sweep_cache_key(const SweepJob& job) {
  Fnv128 h;
  hash_config(h, job.cfg);
  // The program image as loaded: text, data, entry. Symbols are
  // assembly-time bookkeeping the simulator never reads.
  h.u64(job.program.text.size());
  h.bytes(job.program.text.data(),
          job.program.text.size() * sizeof(InstrWord));
  h.u64(job.program.data.size());
  h.bytes(job.program.data.data(), job.program.data.size() * sizeof(Word));
  h.u64(job.program.entry);
  h.u64(job.max_cycles);
  // Resume blob: a job continued from a checkpoint is a different
  // computation than the same job from cycle zero.
  if (job.initial_state) {
    h.u8(1);
    h.str(*job.initial_state);
  } else {
    h.u8(0);
  }
  // Fabric knobs: every FabricConfig field, fixed order, preceded by a
  // presence byte so a K=1 fabric job (which still has a live mailbox)
  // never shares a key with a bare single-Machine job. All of these
  // change simulated behavior.
  // result_cache_test.cpp pins sizeof(FabricConfig) to keep this list
  // complete.
  if (job.fabric) {
    const fabric::FabricConfig& f = *job.fabric;
    h.u8(1);
    h.u32(f.chips);
    h.u8(static_cast<std::uint8_t>(f.topology));
    h.u32(f.link_latency);
    h.u32(f.link_width_words);
    h.u32(f.chunk_cycles);
    h.u32(f.mailbox_base);
  } else {
    h.u8(0);
  }
  return h.digest();
}

std::size_t cached_run_bytes(const CachedSweepRun& run) {
  // Struct + the Stats heap vectors + an allowance for the cache's own
  // bookkeeping (LRU node, index node). Exactness doesn't matter; being
  // proportional to the real footprint does.
  constexpr std::size_t kNodeOverhead = 128;
  return sizeof(CachedSweepRun) + kNodeOverhead +
         run.stats.issued_by_thread.capacity() * sizeof(std::uint64_t) +
         run.stats.thread_stalls.capacity() *
             sizeof(decltype(run.stats.thread_stalls)::value_type);
}

const char* to_string(SweepStatus s) {
  switch (s) {
    case SweepStatus::kFinished: return "finished";
    case SweepStatus::kCycleLimit: return "cycle-limit";
    case SweepStatus::kError: return "error";
    case SweepStatus::kCancelled: return "cancelled";
    case SweepStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?status";
}

void describe(metrics::Registry& r, const SweepBatchStats& s) {
  // One flush = one lockstep dispatch of `occupancy` homogeneous jobs
  // on one worker (docs/PERF.md "Lane batching").
  r.counter("batch_flushes", s.batch_flushes, "batch_flushes_total",
            "Lane-batched lockstep dispatches");
  r.counter("batched_jobs", s.batched_jobs, "batch_jobs_total",
            "Jobs entered into a lane batch");
  r.counter("replayed_jobs", s.replayed_jobs, "batch_replayed_jobs_total",
            "Lanes ejected to a serial replay (control divergence)");
  r.counter("faulted_lanes", s.faulted_lanes, "batch_faulted_lanes_total",
            "Lanes masked out by a per-lane data fault");
  r.histogram("occupancy_log2", s.occupancy, metrics::Edge::kPow2Minus1,
              s.batched_jobs, "batch_occupancy", "Lanes per batch flush");
}

SweepRunner::SweepRunner(unsigned workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  pool_.reserve(workers);
  try {
    for (unsigned w = 0; w < workers; ++w)
      pool_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    close();  // join the workers already started
    throw;
  }
}

SweepRunner::~SweepRunner() { close(); }

void SweepRunner::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  for (std::thread& th : pool_)
    if (th.joinable()) th.join();
}

SweepBatchStats SweepRunner::batch_stats() const {
  const std::lock_guard<std::mutex> lock(batch_mu_);
  return batch_stats_;
}

std::size_t SweepRunner::queued() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_jobs_;
}

bool SweepRunner::admit(std::vector<SweepTask> tasks,
                        std::shared_ptr<const SweepSink> sink,
                        std::size_t limit, std::vector<SweepResult>& hits) {
  // Cache pre-pass: answer repeat jobs from the cache and group
  // identical jobs of this admission behind one leader. An intra-call
  // duplicate is neither a hit nor a miss — it rides on the leader.
  SweepResultCache* const cache = cache_.get();
  std::vector<Queued> leaders;
  leaders.reserve(tasks.size());
  std::vector<SweepResult> answered;
  std::unordered_map<Hash128, std::size_t, Hash128Hasher> slot_of;
  for (SweepTask& t : tasks) {
    Queued q;
    if (cache) {
      const auto t0 = std::chrono::steady_clock::now();
      q.key = sweep_cache_key(*t.job);
      if (const auto it = slot_of.find(q.key); it != slot_of.end()) {
        leaders[it->second].twins.push_back(std::move(t));
        continue;
      }
      if (const auto hit = cache->lookup(q.key)) {
        answered.push_back(materialize_cached(
            *hit, *t.job, t.index,
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count()));
        continue;
      }
      slot_of.emplace(q.key, leaders.size());
    }
    // Lane grouping is fixed here, once per job, not at every pull.
    const SweepJob& job = *t.job;
    const std::uint32_t lanes = job.batch_lanes != 0 ? job.batch_lanes : batch_lanes_;
    if (lanes > 1 && lane_batchable(job)) {
      q.lanes = lanes;
      q.lane_key = lane_batch_key(job);
    }
    q.task = std::move(t);
    q.sink = sink;
    q.cache = cache_;
    leaders.push_back(std::move(q));
  }

  if (!leaders.empty()) {
    const std::size_t n = tasks.size() - answered.size();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || queued_jobs_ + n > limit) return false;
      queued_jobs_ += n;
      for (Queued& q : leaders) queue_.push_back(std::move(q));
    }
    cv_.notify_all();
  }
  for (SweepResult& r : answered) hits.push_back(std::move(r));
  return true;
}

bool SweepRunner::pull(std::vector<Queued>& unit) {
  unit.clear();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;
  unit.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Fill the oldest job's lanes with later compatible jobs, whichever
  // admission they came from. A job whose cache key is already in the
  // unit stays queued: it is answered by that member's flight later,
  // and one worker must never wait on a flight it leads itself.
  const std::uint32_t lanes = unit[0].lanes;
  const Hash128 lane_key = unit[0].lane_key;
  const auto keyed_in_unit = [&](const Queued& c) {
    return c.cache && std::any_of(unit.begin(), unit.end(), [&](const Queued& m) {
             return m.key == c.key;
           });
  };
  for (auto it = queue_.begin(); lanes > 1 && it != queue_.end() &&
                                 unit.size() < lanes;) {
    if (it->lanes == lanes && it->lane_key == lane_key && !keyed_in_unit(*it)) {
      unit.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  for (const Queued& q : unit) queued_jobs_ -= 1 + q.twins.size();
  return true;
}

void SweepRunner::worker_loop() {
  std::vector<Queued> unit;
  while (pull(unit)) {
    // Fault-injection hook: a "failed dispatch" bounces the pulled unit
    // back to the queue untouched, like a worker that died between pull
    // and run. The injector's fault budget rules out a livelock.
    if (auto* inj = fault::active(); inj && inj->on_dispatch()) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        for (Queued& q : unit) {
          queued_jobs_ += 1 + q.twins.size();
          queue_.push_back(std::move(q));
        }
      }
      cv_.notify_one();
      continue;
    }
    run_unit(unit);
  }
}

void SweepRunner::run_unit(std::vector<Queued>& unit) {
  for (const Queued& q : unit) {
    if (!q.sink->started) continue;
    q.sink->started(q.task.index);
    for (const SweepTask& t : q.twins) q.sink->started(t.index);
  }
  // Claim single-flights in key order: a worker waiting on a key then
  // leads flights only for smaller keys, so two workers sharing a cache
  // can never wait on each other. Lanes keep the unit's order.
  std::vector<std::size_t> order(unit.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Hash128& x = unit[a].key;
    const Hash128& y = unit[b].key;
    return x.hi != y.hi ? x.hi < y.hi : x.lo < y.lo;
  });
  // A flight (or the cache, filled since admission) may answer a job;
  // a flight leader publishes its result for the others.
  enum : std::uint8_t { kAnswered, kRun, kRunAndPublish };
  std::vector<std::uint8_t> fate(unit.size(), kRun);
  for (const std::size_t i : order) {
    const Queued& q = unit[i];
    if (!q.cache) continue;
    bool leader = false;
    const auto t0 = std::chrono::steady_clock::now();
    const auto v = q.cache->begin_flight(q.key, &leader);
    if (leader) fate[i] = kRunAndPublish;
    if (!v) continue;
    fate[i] = kAnswered;
    q.sink->done(materialize_cached(
        *v, *q.task.job, q.task.index,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count()));
    for (const SweepTask& t : q.twins)
      q.sink->done(materialize_cached(*v, *t.job, t.index, 0.0));
  }
  std::vector<LaneJob> lanes;
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < unit.size(); ++i) {
    if (fate[i] == kAnswered) continue;
    lanes.push_back({unit[i].task.job.get(), unit[i].task.index});
    members.push_back(i);
  }
  if (members.empty()) return;
  if (members.size() == 1) {
    // Down to one lane (a singleton unit, or flight joins peeled the
    // rest): the serial path.
    const std::size_t i = members[0];
    finish_leader(unit[i], run_sweep_job(*lanes[0].job, lanes[0].index),
                  fate[i] == kRunAndPublish);
    return;
  }
  LaneBatchReport rep;
  std::vector<SweepResult> results = run_lane_batch(lanes, &rep);
  {
    const std::lock_guard<std::mutex> lock(batch_mu_);
    ++batch_stats_.batch_flushes;
    batch_stats_.batched_jobs += rep.lanes;
    batch_stats_.replayed_jobs += rep.replayed;
    batch_stats_.faulted_lanes += rep.faulted;
    ++batch_stats_.occupancy[metrics::log2_bucket(
        static_cast<double>(rep.lanes), metrics::Edge::kPow2Minus1,
        batch_stats_.occupancy.size())];
  }
  for (std::size_t x = 0; x < members.size(); ++x)
    finish_leader(unit[members[x]], std::move(results[x]),
                  fate[members[x]] == kRunAndPublish);
}

void SweepRunner::finish_leader(const Queued& q, SweepResult&& r,
                                bool flight_leader) {
  // publish() inserts and wakes the flight's waiters; an uncacheable
  // stop aborts the flight so they rerun alone.
  SweepResultCache* const cache = q.cache.get();
  const auto entry =
      cache && deterministic_outcome(r) ? cached_run_of(r) : nullptr;
  if (entry && cacheable(r)) {
    if (flight_leader)
      cache->publish(q.key, entry, cached_run_bytes(*entry));
    else
      cache->insert(q.key, entry, cached_run_bytes(*entry));
  } else if (flight_leader) {
    cache->abort_flight(q.key);
  }
  q.sink->done(std::move(r));

  for (const SweepTask& t : q.twins) {
    if (entry) {
      // Fan the leader's (deterministic, complete) result out to its
      // twin. The copy costs nothing on the host, hence 0.0.
      q.sink->done(materialize_cached(*entry, *t.job, t.index, 0.0));
      continue;
    }
    // The leader was stopped by *its own* cancel token, deadline, or an
    // injected fault — none of which this twin shares. Run it for real,
    // under its own tokens.
    SweepResult own = run_sweep_job(*t.job, t.index);
    if (cache && cacheable(own)) {
      const auto own_entry = cached_run_of(own);
      cache->insert(q.key, own_entry, cached_run_bytes(*own_entry));
    }
    q.sink->done(std::move(own));
  }
}

std::vector<SweepResult> SweepRunner::run(
    const std::vector<SweepJob>& jobs,
    const std::function<void(const SweepResult&)>& on_done) {
  struct Wait {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<SweepResult> results;
    std::size_t left = 0;
  };
  auto w = std::make_shared<Wait>();
  w->results.resize(jobs.size());
  w->left = jobs.size();
  auto deliver = [w, &on_done](SweepResult&& r) {
    const std::lock_guard<std::mutex> lock(w->mu);
    if (on_done) on_done(r);
    const std::size_t i = r.index;
    w->results[i] = std::move(r);
    if (--w->left == 0) w->cv.notify_all();
  };
  auto sink = std::make_shared<SweepSink>();
  sink->done = deliver;

  // Non-owning task pointers: this call outlives every queued job.
  std::vector<SweepTask> tasks(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    tasks[i] = {std::shared_ptr<const SweepJob>(std::shared_ptr<void>(), &jobs[i]), i};
  std::vector<SweepResult> hits;
  if (!admit(std::move(tasks), sink, SIZE_MAX, hits))
    throw std::logic_error("SweepRunner::run after close()");
  for (SweepResult& r : hits) deliver(std::move(r));

  std::unique_lock<std::mutex> lock(w->mu);
  w->cv.wait(lock, [&] { return w->left == 0; });
  return std::move(w->results);
}

std::string to_json(const SweepResult& r, const MachineConfig& cfg) {
  std::ostringstream os;
  os << "{\"index\":" << r.index;
  os << ",\"config\":\"" << json_escape(cfg.name()) << "\"";
  os << ",\"label\":\"" << json_escape(r.label) << "\"";
  os << ",\"seed\":" << r.seed;
  os << ",\"status\":\"" << to_string(r.status) << "\"";
  os << ",\"finished\":" << (r.finished ? "true" : "false");
  if (!r.error.empty())
    os << ",\"error\":\"" << json_escape(r.error) << "\"";
  os << ",\"host_seconds\":" << r.host_seconds;
  os << ",\"stats\":" << to_json(r.stats);
  if (r.fabric) os << ",\"fabric\":" << fabric::to_json(*r.fabric);
  os << "}";
  return os.str();
}

}  // namespace masc
