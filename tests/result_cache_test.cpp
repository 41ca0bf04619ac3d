// Result-cache contract tests (docs/PERF.md "Result cache"): the cache
// must be semantically invisible — a hit is bit-identical to
// recomputation — while staying inside its byte budget, deduplicating
// identical grid points within one sweep without disturbing result
// ordering, surviving concurrent hit/miss storms, and refusing to cache
// anything produced under fault injection or stopped early.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/result_cache.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"
#include "test_util.hpp"

namespace masc {
namespace {

using test::small_config;

std::string reduction_kernel(int rounds) {
  std::string src = "pindex p1\n";
  for (int i = 0; i < rounds; ++i) {
    src += "rsum r1, p1\n";
    src += "padds p2, r1, p1\n";
  }
  src += "halt\n";
  return src;
}

/// Full-depth Stats comparison — every counter, not just cycles/IPC.
void expect_stats_identical(const Stats& a, const Stats& b,
                            const std::string& context) {
  ASSERT_EQ(a.cycles, b.cycles) << context;
  ASSERT_EQ(a.instructions, b.instructions) << context;
  ASSERT_EQ(a.issued_by_class, b.issued_by_class) << context;
  ASSERT_EQ(a.idle_cycles, b.idle_cycles) << context;
  ASSERT_EQ(a.idle_by_cause, b.idle_by_cause) << context;
  ASSERT_EQ(a.issued_by_thread, b.issued_by_thread) << context;
  ASSERT_EQ(a.thread_stalls, b.thread_stalls) << context;
  ASSERT_EQ(a.broadcast_ops, b.broadcast_ops) << context;
  ASSERT_EQ(a.reduction_ops, b.reduction_ops) << context;
  ASSERT_EQ(a.thread_switches, b.thread_switches) << context;
}

SweepJob make_job(const std::string& src, std::uint64_t seed = 0,
                  const std::string& label = "job") {
  SweepJob job;
  job.cfg = small_config();
  job.program = assemble(src);
  job.label = label;
  job.seed = seed;
  return job;
}

// --- the raw container ------------------------------------------------

Hash128 key_of(std::uint64_t n) {
  Fnv128 h;
  h.u64(n);
  return h.digest();
}

TEST(ResultCache, MissInsertHitAndCounters) {
  ResultCache<int> cache(4096, 4);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(1), std::make_shared<const int>(42), 100);
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 100u);
  EXPECT_EQ(s.capacity_bytes, 4096u);
  EXPECT_EQ(s.shards, 4u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderTinyByteBudget) {
  // One shard, room for exactly two 100-byte entries.
  ResultCache<int> cache(200, 1);
  cache.insert(key_of(1), std::make_shared<const int>(1), 100);
  cache.insert(key_of(2), std::make_shared<const int>(2), 100);
  ASSERT_NE(cache.lookup(key_of(1)), nullptr);  // 1 is now most recent
  cache.insert(key_of(3), std::make_shared<const int>(3), 100);

  EXPECT_NE(cache.lookup(key_of(1)), nullptr);  // survived (recent)
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);  // LRU victim
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 200u);
}

TEST(ResultCache, OversizedEntryIsNotAdmitted) {
  ResultCache<int> cache(200, 1);
  cache.insert(key_of(1), std::make_shared<const int>(1), 100);
  cache.insert(key_of(2), std::make_shared<const int>(2), 500);  // > budget
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);  // not evicted for nothing
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ResultCache, ShardCountIsClamped) {
  EXPECT_EQ(ResultCache<int>(1024, 0).shards(), 1u);
  EXPECT_EQ(ResultCache<int>(1024, 9999).shards(), 256u);
}

// --- the cache key ----------------------------------------------------

TEST(ResultCacheKey, IgnoresLabelSeedAndCancellationPlumbing) {
  SweepJob a = make_job(reduction_kernel(4), 0, "a");
  SweepJob b = make_job(reduction_kernel(4), 17, "b");
  b.cancel = make_cancel_token();
  b.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  b.checkpoint_on_stop = true;
  EXPECT_EQ(sweep_cache_key(a), sweep_cache_key(b))
      << "metadata must not split the key";
}

TEST(ResultCacheKey, TracksEveryMachineConfigField) {
  // sweep_cache_key hashes every MachineConfig field by hand, in a fixed
  // order. A field added to the struct without extending that list would
  // let two differing machines share a cache key — which this size pin
  // turns into a visible failure instead of a silent wrong result.
  // Adding a field? Extend hash_config(), which both sweep_cache_key()
  // and lane_batch_key() use, then update the size here.
  EXPECT_EQ(sizeof(MachineConfig), 60u)
      << "MachineConfig changed: update hash_config() to hash the new "
         "field, then adjust this pin";
  // Same discipline for the multi-chip fabric knobs: every FabricConfig
  // field changes simulated behavior, so all of them must be hashed by
  // sweep_cache_key() when SweepJob::fabric is set. fabric_test.cpp
  // covers the behavior; this pin catches the silently-added field.
  EXPECT_EQ(sizeof(fabric::FabricConfig), 24u)
      << "FabricConfig changed: update sweep_cache_key() to hash the new "
         "field, then adjust this pin";
}

// Golden pins: the on-disk L2 segment store (docs/CACHE.md) files every
// record under its sweep_cache_key, so a key that moved would orphan the
// whole store. These hex strings were computed before the MachineConfig
// field list moved into hash_config(); they change only together with a
// deliberate segment-store format bump.
TEST(ResultCacheKey, GoldenHexOfAPlainAndAFabricJob) {
  SweepJob plain = make_job(reduction_kernel(4), 7, "golden");
  plain.cfg.sched_policy = ThreadSchedPolicy::kSmt;
  plain.cfg.issue_width = 2;
  plain.cfg.divider = DividerKind::kNone;
  plain.program.data = {1, 2, 3, 0xBEEF};
  plain.max_cycles = 123'456;
  EXPECT_EQ(to_hex(sweep_cache_key(plain)), "9ca779eb306a8305c7c8f40061a3c050");

  SweepJob fab = plain;
  fab.fabric = fabric::FabricConfig{};
  fab.fabric->chips = 4;
  fab.fabric->topology = fabric::Topology::kChain;
  fab.fabric->link_latency = 3;
  EXPECT_EQ(to_hex(sweep_cache_key(fab)), "43e9c137ec95b06b3ec5c26ca19e6c43");
}

TEST(ResultCacheKey, DependsOnEveryDeterminismInput) {
  const SweepJob base = make_job(reduction_kernel(4));
  const Hash128 k0 = sweep_cache_key(base);

  SweepJob diff_cfg = base;
  diff_cfg.cfg.num_pes = 16;
  EXPECT_NE(sweep_cache_key(diff_cfg), k0);

  SweepJob diff_prog = base;
  diff_prog.program = assemble(reduction_kernel(5));
  EXPECT_NE(sweep_cache_key(diff_prog), k0);

  SweepJob diff_budget = base;
  diff_budget.max_cycles = 1234;
  EXPECT_NE(sweep_cache_key(diff_budget), k0);

  // A job resumed from a checkpoint is a different computation.
  Machine m(base.cfg);
  m.load(base.program);
  m.run(8);
  SweepJob resumed = base;
  resumed.initial_state = std::make_shared<const std::string>(m.save_state());
  EXPECT_NE(sweep_cache_key(resumed), k0);
}

// --- SweepRunner integration ------------------------------------------

TEST(SweepRunnerCache, HitIsBitIdenticalToColdRun) {
  const std::vector<SweepJob> jobs = {make_job(reduction_kernel(12)),
                                      make_job(reduction_kernel(8))};
  const auto cold = SweepRunner(2).run(jobs);  // no cache attached

  SweepRunner runner(2);
  runner.set_cache(std::make_shared<SweepResultCache>(16u << 20, 8));
  const auto first = runner.run(jobs);   // misses: simulate + insert
  const auto second = runner.run(jobs);  // hits: lookup only

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_stats_identical(first[i].stats, cold[i].stats, "first vs cold");
    expect_stats_identical(second[i].stats, cold[i].stats, "hit vs cold");
    EXPECT_EQ(second[i].status, cold[i].status);
    EXPECT_EQ(second[i].index, i);
  }
  const CacheStats s = runner.cache()->stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(SweepRunnerCache, IntraSweepDedupKeepsDeterministicOrdering) {
  // Eight copies of one grid point, distinguished only by metadata the
  // key ignores — plus one genuinely different job in the middle.
  std::vector<SweepJob> jobs;
  for (std::uint64_t i = 0; i < 4; ++i)
    jobs.push_back(make_job(reduction_kernel(10), i, "dup" + std::to_string(i)));
  jobs.push_back(make_job(reduction_kernel(6), 99, "odd-one-out"));
  for (std::uint64_t i = 4; i < 8; ++i)
    jobs.push_back(make_job(reduction_kernel(10), i, "dup" + std::to_string(i)));

  const auto baseline = SweepRunner(1).run(jobs);

  SweepRunner runner(4);
  runner.set_cache(std::make_shared<SweepResultCache>(16u << 20, 8));
  std::atomic<std::size_t> callbacks{0};
  const auto results =
      runner.run(jobs, [&](const SweepResult&) { ++callbacks; });

  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].label, jobs[i].label);
    EXPECT_EQ(results[i].seed, jobs[i].seed);
    EXPECT_TRUE(results[i].finished) << results[i].label;
    expect_stats_identical(results[i].stats, baseline[i].stats,
                           jobs[i].label);
  }
  EXPECT_EQ(callbacks.load(), jobs.size());

  // 9 jobs, 2 distinct grid points: two misses, two insertions, and the
  // 7 duplicates counted as neither hits nor misses.
  const CacheStats s = runner.cache()->stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SweepRunnerCache, CancelledLeaderDoesNotFanOutToItsTwin) {
  // jobs[0] and jobs[1] share a cache key, but only jobs[0] carries a
  // (pre-fired) cancel token. The leader's cancelled result must not be
  // adopted by the twin, which owns no token and must actually run.
  std::vector<SweepJob> jobs = {make_job(reduction_kernel(10), 0, "cancelled"),
                                make_job(reduction_kernel(10), 1, "clean")};
  jobs[0].cancel = make_cancel_token();
  jobs[0].cancel->store(true);

  SweepRunner runner(2);
  runner.set_cache(std::make_shared<SweepResultCache>(16u << 20, 4));
  const auto results = runner.run(jobs);

  EXPECT_EQ(results[0].status, SweepStatus::kCancelled);
  EXPECT_EQ(results[1].status, SweepStatus::kFinished) << results[1].error;
  EXPECT_GT(results[1].stats.instructions, 0u);

  // The twin's individual run completed cleanly, so IT was inserted; the
  // cancelled leader was not.
  const CacheStats s = runner.cache()->stats();
  EXPECT_EQ(s.insertions, 1u);
  const auto cached = runner.cache()->lookup(sweep_cache_key(jobs[1]));
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->status, SweepStatus::kFinished);
}

TEST(SweepRunnerCache, ConcurrentHitMissStormStaysConsistent) {
  // Raw-container storm: 8 threads × (lookup, insert, lookup) over a
  // small key space forces constant shard contention. The assertions are
  // on aggregate-counter sanity; TSan (ctest -R tsan_) is the real gate.
  ResultCache<std::uint64_t> cache(8 * 1024, 4);
  constexpr int kThreads = 8, kOps = 2000, kKeys = 64;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto key = key_of(static_cast<std::uint64_t>((i * 7 + t) % kKeys));
        if (const auto v = cache.lookup(key))
          EXPECT_LT(*v, static_cast<std::uint64_t>(kOps));
        cache.insert(key, std::make_shared<const std::uint64_t>(
                              static_cast<std::uint64_t>(i)),
                     64);
      }
    });
  for (auto& th : pool) th.join();

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(s.bytes, s.capacity_bytes);
  EXPECT_LE(s.entries, static_cast<std::size_t>(kKeys));

  // Sweep-level storm: several runners share one cache; every result
  // must still be correct and correctly ordered.
  auto shared = std::make_shared<SweepResultCache>(16u << 20, 8);
  std::vector<SweepJob> jobs;
  for (std::uint64_t i = 0; i < 6; ++i)
    jobs.push_back(make_job(reduction_kernel(4 + static_cast<int>(i % 3))));
  const auto baseline = SweepRunner(1).run(jobs);
  std::vector<std::thread> sweepers;
  for (int t = 0; t < 4; ++t)
    sweepers.emplace_back([&, t] {
      SweepRunner r(2);
      r.set_cache(shared);
      const auto results = r.run(jobs);
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i) << "thread " << t;
        EXPECT_EQ(results[i].stats.cycles, baseline[i].stats.cycles);
        EXPECT_EQ(results[i].stats.instructions,
                  baseline[i].stats.instructions);
      }
    });
  for (auto& th : sweepers) th.join();
  EXPECT_EQ(shared->stats().entries, 3u);  // 3 distinct grid points
}

TEST(SweepRunnerCache, FaultInjectedRunsAreNeverInserted) {
  auto cache = std::make_shared<SweepResultCache>(16u << 20, 4);
  const std::vector<SweepJob> jobs = {make_job(reduction_kernel(10), 0, "a"),
                                      make_job(reduction_kernel(10), 1, "b")};
  {
    // Kill every chunk: both the leader and its deduplicated twin die
    // with an injected fault, and neither may reach the cache.
    fault::FaultPlan plan;
    plan.chunk_kill = 1.0;
    fault::ScopedInjector injector(plan);
    SweepRunner runner(2);
    runner.set_cache(cache);
    const auto results = runner.run(jobs);
    for (const auto& r : results) {
      EXPECT_EQ(r.status, SweepStatus::kError);
      EXPECT_NE(r.error.find("injected fault"), std::string::npos) << r.error;
    }
    EXPECT_EQ(cache->stats().insertions, 0u);
    EXPECT_EQ(cache->stats().entries, 0u);
  }
  {
    // Even a run that happens to COMPLETE under an installed injector is
    // refused: the injector could have fired mid-run and the insert
    // guard cannot tell, so it refuses wholesale.
    fault::FaultPlan plan;
    plan.chunk_kill = 0.0;
    fault::ScopedInjector injector(plan);
    SweepRunner runner(1);
    runner.set_cache(cache);
    const auto results = runner.run({jobs[0]});
    EXPECT_EQ(results[0].status, SweepStatus::kFinished);
    EXPECT_EQ(cache->stats().insertions, 0u);
  }
  // Injector gone: the same jobs now simulate cleanly and populate the
  // cache — proving the fault phase left no poisoned entry behind.
  SweepRunner runner(2);
  runner.set_cache(cache);
  const auto clean = runner.run(jobs);
  EXPECT_EQ(clean[0].status, SweepStatus::kFinished) << clean[0].error;
  EXPECT_EQ(cache->stats().insertions, 1u);  // both jobs share one key
}

TEST(SweepRunnerCache, CachedRunBytesTracksStatsFootprint) {
  CachedSweepRun small;
  CachedSweepRun big;
  big.stats.issued_by_thread.assign(64, 1);
  EXPECT_GT(cached_run_bytes(big), cached_run_bytes(small));
  EXPECT_GE(cached_run_bytes(small), sizeof(CachedSweepRun));
}

}  // namespace
}  // namespace masc
