#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
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

/// Log2 bucket for the batch-occupancy histogram: 0 for 0, else
/// bucket b covers [2^(b-1), 2^b), saturating at the last bucket.
std::size_t occupancy_bucket(std::uint64_t v) {
  std::size_t b = 0;
  while (v > 0 && b < 16) {
    v >>= 1;
    ++b;
  }
  return b;
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

std::string to_json(const SweepBatchStats& s) {
  std::ostringstream os;
  os << "{\"batch_flushes\":" << s.batch_flushes;
  os << ",\"batched_jobs\":" << s.batched_jobs;
  os << ",\"replayed_jobs\":" << s.replayed_jobs;
  os << ",\"faulted_lanes\":" << s.faulted_lanes;
  os << ",\"occupancy_log2\":[";
  for (std::size_t i = 0; i < s.occupancy.size(); ++i) {
    if (i) os << ",";
    os << s.occupancy[i];
  }
  os << "]}";
  return os.str();
}

SweepRunner::SweepRunner(unsigned workers) : workers_(workers) {
  if (workers_ == 0) {
    workers_ = std::thread::hardware_concurrency();
    if (workers_ == 0) workers_ = 1;
  }
}

SweepBatchStats SweepRunner::batch_stats() const {
  const std::lock_guard<std::mutex> lock(batch_mu_);
  return batch_stats_;
}

std::vector<SweepResult> SweepRunner::run(const std::vector<SweepJob>& jobs) const {
  return run(jobs, nullptr);
}

std::vector<SweepResult> SweepRunner::run(
    const std::vector<SweepJob>& jobs,
    const std::function<void(const SweepResult&)>& on_done) const {
  std::vector<SweepResult> results(jobs.size());
  if (jobs.empty()) return results;

  std::mutex done_mutex;
  auto deliver = [&](const SweepResult& r) {
    if (on_done) {
      const std::lock_guard<std::mutex> lock(done_mutex);
      on_done(r);
    }
  };

  // Cache pre-pass: answer repeat jobs from the cache and group
  // identical grid points behind one leader. `leaders[k]` is the job
  // index that will actually simulate, `dups[k]` the indices that adopt
  // its result, `keys[k]` the content hash for the post-run insert.
  // Without a cache every job is its own leader and this collapses to
  // the original shared-counter loop.
  SweepResultCache* const cache = cache_.get();
  std::vector<std::size_t> leaders;
  std::vector<Hash128> keys;
  std::vector<std::vector<std::size_t>> dups;
  if (cache) {
    std::unordered_map<Hash128, std::size_t, Hash128Hasher> slot_of;
    slot_of.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const Hash128 key = sweep_cache_key(jobs[i]);
      if (const auto it = slot_of.find(key); it != slot_of.end()) {
        // Intra-sweep duplicate: neither a hit nor a miss — it rides on
        // the leader's run.
        dups[it->second].push_back(i);
        continue;
      }
      if (const auto hit = cache->lookup(key)) {
        results[i] = materialize_cached(
            *hit, jobs[i], i,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
        deliver(results[i]);
        continue;
      }
      slot_of.emplace(key, leaders.size());
      leaders.push_back(i);
      keys.push_back(key);
      dups.emplace_back();
    }
  } else {
    leaders.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) leaders[i] = i;
    dups.resize(jobs.size());
  }
  if (leaders.empty()) return results;

  // Only a run that completed with no fault injector installed may be
  // inserted: an injector can kill chunks mid-run, and a poisoned entry
  // would replay the fault forever.
  auto maybe_insert = [&](const Hash128& key, const SweepResult& r) {
    if (!cache || !deterministic_outcome(r) || fault::active() != nullptr)
      return;
    auto entry = std::make_shared<CachedSweepRun>();
    entry->status = r.status;
    entry->stats = r.stats;
    entry->fabric = r.fabric;
    const std::size_t bytes = cached_run_bytes(*entry);
    cache->insert(key, std::move(entry), bytes);
  };

  // Factored leader completion: publish/insert results[leaders[k]],
  // deliver it, and fan out (or rerun) its intra-sweep duplicates. The
  // serial path and every lane of a batch end here identically — that
  // is what makes batching invisible to the cache and the dedup logic.
  auto finish_leader = [&](std::size_t k, bool flight_leader) {
    const std::size_t i = leaders[k];
    if (cache && flight_leader) {
      // publish() inserts when cacheable and always wakes waiters;
      // an uncacheable stop aborts the flight so waiters rerun alone.
      if (deterministic_outcome(results[i]) && fault::active() == nullptr) {
        auto entry = std::make_shared<CachedSweepRun>();
        entry->status = results[i].status;
        entry->stats = results[i].stats;
        entry->fabric = results[i].fabric;
        const std::size_t bytes = cached_run_bytes(*entry);
        cache->publish(keys[k], std::move(entry), bytes);
      } else {
        cache->abort_flight(keys[k]);
      }
    } else if (cache) {
      maybe_insert(keys[k], results[i]);
    }
    deliver(results[i]);
    const bool adoptable = deterministic_outcome(results[i]);
    for (const std::size_t j : dups[k]) {
      if (adoptable) {
        // Fan the leader's (deterministic, complete) result out to its
        // twin. The copy costs nothing on the host, hence 0.0.
        results[j] = materialize_cached(
            CachedSweepRun{results[i].status, results[i].stats,
                           results[i].fabric},
            jobs[j], j, 0.0);
      } else {
        // The leader was stopped by *its own* cancel token, deadline,
        // or an injected fault — none of which this twin shares. Run
        // it for real, under its own tokens.
        results[j] = run_sweep_job(jobs[j], j);
        if (cache) maybe_insert(keys[k], results[j]);
      }
      deliver(results[j]);
    }
  };

  // Single-flight join attempt for leader k: another runner sharing
  // this cache may already be simulating this exact key. True when the
  // flight was joined and the result delivered (nothing left to run);
  // otherwise *flight_leader says whether this runner must publish (or
  // abort) so the other runner's twins can adopt ours.
  auto try_join_flight = [&](std::size_t k, bool* flight_leader) {
    *flight_leader = false;
    if (!cache) return false;
    const std::size_t i = leaders[k];
    const auto t0 = std::chrono::steady_clock::now();
    const auto v = cache->begin_flight(keys[k], flight_leader);
    if (!v) return false;
    results[i] = materialize_cached(
        *v, jobs[i], i,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    deliver(results[i]);
    for (const std::size_t j : dups[k]) {
      results[j] = materialize_cached(*v, jobs[j], j, 0.0);
      deliver(results[j]);
    }
    return true;
  };

  // Lane-batch formation (docs/PERF.md "Lane batching"): leaders whose
  // jobs can run in lockstep — lane_batchable(), same lane_batch_key(),
  // same effective width > 1 — are grouped into units of up to that
  // width; everything else is a singleton unit, which is exactly the
  // pre-batching serial path. Cache hits already peeled off in the
  // pre-pass above, so only jobs that will actually simulate compete
  // for lanes.
  std::vector<std::vector<std::size_t>> units;
  units.reserve(leaders.size());
  {
    std::unordered_map<Hash128, std::size_t, Hash128Hasher> group_of;
    for (std::size_t k = 0; k < leaders.size(); ++k) {
      const SweepJob& job = jobs[leaders[k]];
      const std::uint32_t lanes =
          job.batch_lanes != 0 ? job.batch_lanes : batch_lanes_;
      if (lanes <= 1 || !lane_batchable(job)) {
        units.push_back({k});
        continue;
      }
      Fnv128 gh;
      const Hash128 bk = lane_batch_key(job);
      gh.u64(bk.hi).u64(bk.lo).u32(lanes);
      const Hash128 gk = gh.digest();
      auto it = group_of.find(gk);
      if (it == group_of.end() || units[it->second].size() >= lanes) {
        group_of[gk] = units.size();
        units.emplace_back();
        it = group_of.find(gk);
      }
      units[it->second].push_back(k);
    }
  }

  // Work-stealing-free shared counter: each worker claims the next
  // unclaimed unit. Results land in their job's slot, so output order
  // is submission order no matter which worker finishes when.
  std::atomic<std::size_t> next{0};

  auto worker_loop = [&] {
    std::vector<LaneJob> lanes;
    std::vector<std::size_t> lane_ks;
    std::vector<std::uint8_t> lane_led;
    for (;;) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      const std::vector<std::size_t>& unit = units[u];

      lanes.clear();
      lane_ks.clear();
      lane_led.clear();
      for (const std::size_t k : unit) {
        bool led = false;
        if (try_join_flight(k, &led)) continue;
        lanes.push_back({&jobs[leaders[k]], leaders[k]});
        lane_ks.push_back(k);
        lane_led.push_back(led ? 1 : 0);
      }
      if (lanes.empty()) continue;

      if (lanes.size() == 1) {
        // Down to one lane (singleton unit, or flight joins peeled the
        // rest): the serial path, unchanged.
        const std::size_t k = lane_ks[0];
        results[leaders[k]] = run_sweep_job(jobs[leaders[k]], leaders[k]);
        finish_leader(k, lane_led[0] != 0);
        continue;
      }

      LaneBatchReport rep;
      std::vector<SweepResult> lane_results = run_lane_batch(lanes, &rep);
      {
        const std::lock_guard<std::mutex> lock(batch_mu_);
        ++batch_stats_.batch_flushes;
        batch_stats_.batched_jobs += rep.lanes;
        batch_stats_.replayed_jobs += rep.replayed;
        batch_stats_.faulted_lanes += rep.faulted;
        ++batch_stats_.occupancy[occupancy_bucket(rep.lanes)];
      }
      for (std::size_t x = 0; x < lane_ks.size(); ++x) {
        const std::size_t k = lane_ks[x];
        results[leaders[k]] = std::move(lane_results[x]);
        finish_leader(k, lane_led[x] != 0);
      }
    }
  };

  const unsigned n =
      static_cast<unsigned>(std::min<std::size_t>(workers_, units.size()));
  if (n <= 1) {
    worker_loop();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned w = 0; w < n; ++w) pool.emplace_back(worker_loop);
  for (auto& th : pool) th.join();
  return results;
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
