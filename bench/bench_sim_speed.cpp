// M1 — simulator host performance (google-benchmark): simulated cycles
// per host-second for the cycle-accurate model and instructions per
// host-second for the functional model, across machine sizes. This is
// the "cycle-accurate simulator runs on a laptop" check.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>

#include "bench_util.hpp"
#include "common/base64.hpp"
#include "common/cache_store.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "fabric/fabric.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/funcsim.hpp"
#include "sim/lane_batch.hpp"

namespace {

using namespace masc;

void BM_CycleSim(benchmark::State& state) {
  const auto pes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.num_threads = threads;
  cfg.word_width = 16;
  const Program prog = assemble(bench::mixed_asc_program(512));

  Cycle total_cycles = 0;
  for (auto _ : state) {
    Machine m(cfg);
    m.load(prog);
    benchmark::DoNotOptimize(m.run(10'000'000));
    total_cycles += m.stats().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
  state.counters["cycles/run"] =
      static_cast<double>(total_cycles) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CycleSim)
    ->Args({16, 1})
    ->Args({16, 16})
    ->Args({256, 16})
    ->Args({1024, 16})
    ->Unit(benchmark::kMillisecond);

// SIMD-over-jobs lane batching (docs/PERF.md "Lane batching"): N
// homogeneous jobs (same program/config, per-lane data) executed in
// lockstep by run_lane_batch vs. N serial run_sweep_job calls. The
// workload is control-bound on purpose — branchy scalar loops across
// all threads with a masked parallel update per iteration and no
// reductions, at 16 PEs — because shared control (fetch, predecode,
// scoreboard, scheduler scan, branch-penalty timing) is what batching
// amortizes; per-lane data rows and reduction trees are paid per lane
// either way. The setup refuses to measure an
// unverified path: every lane's batched Stats must be byte-identical
// to its serial run, with zero lanes ejected, before timing starts.
// Speedup at N lanes = jobs/s(BM_LaneBatch/N) / jobs/s(BM_LaneBatch/1);
// the acceptance bar is >= 4x at some N.
std::string lane_batch_program(unsigned total_iters) {
  return R"(
main:
    nthreads r1
    li r2, 1
    la r3, worker
spawn:
    bgeu r2, r1, body
    tspawn r4, r3
    addi r2, r2, 1
    j spawn
worker:
body:
    nthreads r5
    li r6, )" + std::to_string(total_iters) + R"(
    divu r2, r6, r5
    lw r7, 0(r0)          # per-lane memory image feeds the data path
    pindex p1
    padds p2, r7, p1      # fold the lane's data into parallel state once
    li r1, 0
loop:
    add r8, r8, r7        # scalar data path: accumulate, mix, compare
    xor r9, r8, r1
    sltu r10, r9, r6
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

void BM_LaneBatch(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  MachineConfig cfg;
  cfg.num_pes = 16;
  cfg.num_threads = 16;
  cfg.word_width = 16;
  const Program prog = assemble(lane_batch_program(2048));

  std::vector<SweepJob> jobs(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    jobs[i].cfg = cfg;
    jobs[i].program = prog;
    jobs[i].program.data = {static_cast<Word>(i)};  // per-lane memory image
    jobs[i].label = "lane" + std::to_string(i);
    jobs[i].seed = i;
    jobs[i].max_cycles = 10'000'000;
  }
  std::vector<LaneJob> batch;
  for (std::size_t i = 0; i < lanes; ++i) batch.push_back({&jobs[i], i});

  {
    // Bit-identity gate: per-job status, error, and Stats from the
    // batched run must equal the serial run's, lane for lane.
    LaneBatchReport rep;
    const auto batched = run_lane_batch(batch, &rep);
    if (lanes > 1 && (rep.lanes != lanes || rep.replayed != 0)) {
      std::fprintf(stderr, "BM_LaneBatch: batch degraded at %zu lanes "
                   "(entered=%u replayed=%u)\n", lanes, rep.lanes,
                   rep.replayed);
      std::exit(1);
    }
    for (std::size_t i = 0; i < lanes; ++i) {
      const SweepResult serial = run_sweep_job(jobs[i], i);
      if (batched[i].status != serial.status ||
          batched[i].error != serial.error ||
          to_json(batched[i].stats) != to_json(serial.stats)) {
        std::fprintf(stderr,
                     "BM_LaneBatch: lane %zu NOT bit-identical at %zu lanes\n",
                     i, lanes);
        std::exit(1);
      }
    }
  }

  std::uint64_t total_jobs = 0;
  for (auto _ : state) {
    const auto results = run_lane_batch(batch);
    benchmark::DoNotOptimize(results.data());
    total_jobs += results.size();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(total_jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LaneBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FuncSim(benchmark::State& state) {
  const auto pes = static_cast<std::uint32_t>(state.range(0));
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.num_threads = 16;
  cfg.word_width = 16;
  const Program prog = assemble(bench::mixed_asc_program(512));

  std::uint64_t total_instr = 0;
  for (auto _ : state) {
    FuncSim f(cfg);
    f.load(prog);
    benchmark::DoNotOptimize(f.run());
    total_instr += f.instructions();
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(total_instr), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FuncSim)->Arg(16)->Arg(256)->Unit(benchmark::kMillisecond);

// Sweep throughput: a Fig. 4-style thread-count grid (4 machine sizes ×
// 6 thread counts) dispatched across a worker pool. jobs/s at rising
// worker counts measures the sweep runner's scaling on this host; on a
// single-core container all worker counts collapse to the same rate.
void BM_Sweep(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  const std::string src = bench::reduction_chain_program(512);
  std::vector<SweepJob> jobs;
  for (const std::uint32_t p : {16u, 64u, 256u, 1024u})
    for (const std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
      MachineConfig cfg;
      cfg.num_pes = p;
      cfg.word_width = 16;
      cfg.num_threads = t;
      jobs.push_back(bench::make_job(cfg, src));
    }

  std::uint64_t total_jobs = 0;
  for (auto _ : state) {
    const auto results = SweepRunner(workers).run(jobs);
    benchmark::DoNotOptimize(results.data());
    total_jobs += results.size();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(total_jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Result-cache repeat-job latency (docs/PERF.md "Result cache"): the
// same single job dispatched through a SweepRunner over and over, with
// the cache off (range(0)=0 — every iteration re-simulates) or on
// (range(0)=1 — every iteration after the first is a lookup). The ratio
// of the two times is the cache's headline speedup; the acceptance bar
// is >= 20x.
void BM_CacheHit(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  MachineConfig cfg;
  cfg.num_pes = 256;
  cfg.num_threads = 16;
  cfg.word_width = 16;
  const std::vector<SweepJob> jobs = {
      bench::make_job(cfg, bench::mixed_asc_program(512))};

  SweepRunner runner(1);
  auto cache = std::make_shared<SweepResultCache>(64u << 20, 16);
  if (cached) {
    runner.set_cache(cache);
    benchmark::DoNotOptimize(runner.run(jobs));  // warm: first run inserts
  }
  std::uint64_t total_jobs = 0;
  for (auto _ : state) {
    const auto results = runner.run(jobs);
    benchmark::DoNotOptimize(results.data());
    total_jobs += results.size();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(total_jobs), benchmark::Counter::kIsRate);
  if (cached) {
    const auto cs = cache->stats();
    state.counters["cache_hits"] = static_cast<double>(cs.hits);
  }
}
BENCHMARK(BM_CacheHit)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Tiered-cache latency curve (docs/CACHE.md "Benchmarks"): the same job
// served from each tier of the result cache. range(0) selects the tier:
//   0  miss — no cache attached, every iteration re-simulates;
//   1  L1 hit — warmed RAM LRU, the sharded-map fast path;
//   2  L2 hit — the L1 is 1 byte so promotions never stick and every
//      lookup is a real segment pread + checksum + decode from a disk
//      store in a temp dir;
//   3  peer hit — a `cache_get` round-trip against an in-process
//      serve::Server plus base64 and record decode, i.e. the work the
//      router's peer read-through does per diverted job.
// The tier-to-tier ratios are the numbers docs/CACHE.md quotes for "how
// much does each fallback cost".
void BM_CacheTier(benchmark::State& state) {
  const long tier = state.range(0);
  MachineConfig cfg;
  cfg.num_pes = 256;
  cfg.num_threads = 16;
  cfg.word_width = 16;
  const std::string src = bench::mixed_asc_program(512);
  const std::vector<SweepJob> jobs = {bench::make_job(cfg, src)};

  std::uint64_t total_jobs = 0;
  if (tier == 3) {
    serve::ServerOptions sopts;
    sopts.port = 0;
    sopts.workers = 1;
    sopts.cache_bytes = 64u << 20;
    serve::Server server(sopts);
    server.start();
    serve::Client c;
    c.connect("127.0.0.1", server.port());
    const std::string job_json =
        "{\"config\":{\"pes\":256,\"threads\":16,\"width\":16},"
        "\"program\":{\"source\":\"" + json_escape(src) + "\"}}";
    // Warm the server's cache with one real run, then hammer cache_get
    // with the job's content key — exactly what a peer router does.
    const json::Value sub =
        c.request("{\"op\":\"submit\",\"jobs\":[" + job_json + "]}");
    const std::uint64_t id = sub.find("ids")->as_array()[0].as_uint();
    const json::Value res = c.request(
        "{\"op\":\"result\",\"id\":" + std::to_string(id) +
        ",\"wait\":true,\"timeout_ms\":60000}");
    const std::string key =
        to_hex(sweep_cache_key(serve::job_from_json(parse_json(job_json))));
    if (!res.get_bool("ok", false)) {
      std::fprintf(stderr, "BM_CacheTier: warm-up submit failed\n");
      std::exit(1);
    }
    for (auto _ : state) {
      const json::Value resp = c.request(
          "{\"op\":\"cache_get\",\"key\":\"" + key + "\"}");
      CachedSweepRun run;
      if (!resp.get_bool("found", false) ||
          !decode_cached_run(base64_decode(resp.get_string("payload", "")),
                             run)) {
        std::fprintf(stderr, "BM_CacheTier: peer tier lost the record\n");
        std::exit(1);
      }
      benchmark::DoNotOptimize(run.stats.cycles);
      ++total_jobs;
    }
  } else {
    std::string dir;
    {
      SweepRunner runner(1);
      std::shared_ptr<SweepResultCache> cache;
      if (tier == 1) {
        cache = std::make_shared<SweepResultCache>(64u << 20, 16);
      } else if (tier == 2) {
        dir = "/tmp/masc_bench_l2_" + std::to_string(::getpid());
        std::system(("rm -rf '" + dir + "'").c_str());
        cache = std::make_shared<SweepResultCache>(1, 1);  // L1 can't hold it
        CacheStoreOptions copts;
        copts.dir = dir;
        auto store = std::make_unique<CacheStore>(copts);
        store->open();
        cache->attach_disk(std::move(store));
      }
      if (cache) {
        runner.set_cache(cache);
        benchmark::DoNotOptimize(runner.run(jobs));  // warm: inserts
        cache->drain_writes();  // tier 2: the record must be on disk
      }
      for (auto _ : state) {
        const auto results = runner.run(jobs);
        benchmark::DoNotOptimize(results.data());
        total_jobs += results.size();
      }
      if (cache) {
        const auto cs = cache->stats();
        state.counters["l1_hits"] = static_cast<double>(cs.l1_hits);
        state.counters["l2_hits"] = static_cast<double>(cs.l2_hits);
        if (tier == 2 && cs.l2_hits == 0) {
          std::fprintf(stderr, "BM_CacheTier: disk tier never hit\n");
          std::exit(1);
        }
      }
    }  // runner + cache destroyed: the store's dir lock is released
    if (!dir.empty()) std::system(("rm -rf '" + dir + "'").c_str());
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(total_jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheTier)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// Wire-level cache-hit serving rate (docs/NET.md "Benchmarks"): the
// same warmed record fetched from an in-process serve::Server over
// loopback TCP, range(0) selecting the protocol:
//   0  v1 baseline — one blocking JSON cache_get round-trip per
//      request, base64 payload decoded each time (the pre-v2 peer
//      read-through unit of work);
//   1  v2 — negotiated binary cache_get frames pipelined in 128-deep
//      bursts with batched sends on both sides (Client::set_pipelining
//      + the event loop's corked batch writes), the raw record bytes
//      decoded from each response.
// On this single-vCPU host v2's win is pure protocol: ~2 syscalls per
// 128 requests instead of a blocking round-trip each, and zero
// JSON/base64 on the hot path. Before timing, the v2 record is checked
// byte-identical to the v1 payload — the bench refuses to measure a
// path that serves different bytes. Acceptance: >= 10x requests/s.
void BM_ServeHit(benchmark::State& state) {
  const bool v2_pipelined = state.range(0) != 0;
  MachineConfig cfg;
  cfg.num_pes = 256;
  cfg.num_threads = 16;
  cfg.word_width = 16;
  const std::string src = bench::mixed_asc_program(512);

  serve::ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = 1;
  sopts.cache_bytes = 64u << 20;
  serve::Server server(sopts);
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port());
  const std::string job_json =
      "{\"config\":{\"pes\":256,\"threads\":16,\"width\":16},"
      "\"program\":{\"source\":\"" + json_escape(src) + "\"}}";
  const json::Value sub =
      c.request("{\"op\":\"submit\",\"jobs\":[" + job_json + "]}");
  const std::uint64_t id = sub.find("ids")->as_array()[0].as_uint();
  const json::Value res = c.request(
      "{\"op\":\"result\",\"id\":" + std::to_string(id) +
      ",\"wait\":true,\"timeout_ms\":60000}");
  if (!res.get_bool("ok", false)) {
    std::fprintf(stderr, "BM_ServeHit: warm-up submit failed\n");
    std::exit(1);
  }
  const Hash128 key = sweep_cache_key(serve::job_from_json(parse_json(job_json)));
  const std::string key_hex = to_hex(key);

  // Bit-identity gate: both protocols must serve the same record bytes.
  const json::Value v1_hit =
      c.request("{\"op\":\"cache_get\",\"key\":\"" + key_hex + "\"}");
  const std::string v1_blob = base64_decode(v1_hit.get_string("payload", ""));
  if (c.negotiate() != 2) {
    std::fprintf(stderr, "BM_ServeHit: server refused v2\n");
    std::exit(1);
  }
  std::string v2_blob;
  if (!c.cache_get_v2(key, &v2_blob) || v2_blob != v1_blob ||
      v1_blob.empty()) {
    std::fprintf(stderr, "BM_ServeHit: v2 record NOT bit-identical to v1\n");
    std::exit(1);
  }

  std::uint64_t total_requests = 0;
  if (v2_pipelined) {
    const std::string cache_get_body = std::string(
        std::string_view(serve::v2::encode_cache_get_request(0, key))
            .substr(serve::v2::kHeaderBytes));
    constexpr std::size_t kWindow = 128;
    std::size_t in_flight = 0;
    std::string record;
    // Batch the window's sends into one syscall (and let the server
    // cork the matching responses) — the point of the pipelined path.
    // Bursts, not one-in-one-out: recv_v2 flushes pending sends, so a
    // steady-state top-up of 1 would degenerate to a send per request.
    c.set_pipelining(true);
    for (auto _ : state) {
      if (in_flight == 0) {
        while (in_flight < kWindow) {
          c.send_v2(serve::v2::Op::kCacheGet, cache_get_body);
          ++in_flight;
        }
      }
      const serve::Client::V2Response r = c.recv_v2();
      --in_flight;
      if (!r.ok ||
          !serve::v2::decode_cache_get_response(r.body, r.request_id,
                                                &record)) {
        std::fprintf(stderr, "BM_ServeHit: pipelined hit went missing\n");
        std::exit(1);
      }
      benchmark::DoNotOptimize(record.data());
      ++total_requests;
    }
    while (in_flight--) benchmark::DoNotOptimize(c.recv_v2().ok);
  } else {
    const std::string req = "{\"op\":\"cache_get\",\"key\":\"" + key_hex + "\"}";
    for (auto _ : state) {
      const json::Value resp = c.request(req);
      CachedSweepRun run;
      if (!resp.get_bool("found", false) ||
          !decode_cached_run(base64_decode(resp.get_string("payload", "")),
                             run)) {
        std::fprintf(stderr, "BM_ServeHit: v1 hit went missing\n");
        std::exit(1);
      }
      benchmark::DoNotOptimize(run.stats.cycles);
      ++total_requests;
    }
  }
  state.counters["requests/s"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeHit)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// Multi-chip fabric host cost (docs/MULTICHIP.md): K chips in cycle-
// lockstep, each looping {local tree reduction -> inter-chip allreduce-
// SUM -> spin on ACK}. Args are chips/pes. The setup refuses to measure
// a fleet that does not run the workload to completion. sim_cycles/s
// counts *fleet*
// cycles, so the host cost of simulating K chips for the same wall of
// machine time shows up directly as a K-fold rate drop.
std::string fabric_collective_program(unsigned iters) {
  const fabric::FabricConfig defaults;
  return R"(
    li r4, )" + std::to_string(defaults.mailbox_base) + R"(
    lw r10, 5(r4)       # NUM_CHIPS (0 on a bare Machine)
    pindex p1
    li r6, 64           # payload address
    li r1, 0
    li r2, )" + std::to_string(iters) + R"(
loop:
    rsum r3, p1         # intra-chip reduction tree
    sw r3, 0(r6)
    li r5, 1
    bleu r10, r5, skip  # single chip: no fabric traffic
    sw r6, 1(r4)        # ADDR
    sw r5, 2(r4)        # COUNT = 1
    lw r7, 3(r4)
    addi r7, r7, 1      # expected ACK
    li r3, 3
    sw r3, 0(r4)        # REQ = sum, posted last
wait:
    lw r3, 3(r4)
    bne r3, r7, wait
skip:
    addi r1, r1, 1
    bne r1, r2, loop
    halt
)";
}

void BM_Fabric(benchmark::State& state) {
  const auto chips = static_cast<std::uint32_t>(state.range(0));
  const auto pes = static_cast<std::uint32_t>(state.range(1));
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.num_threads = 16;
  cfg.word_width = 16;
  fabric::FabricConfig fab;
  fab.chips = chips;
  const Program prog = assemble(fabric_collective_program(64));

  {
    // Completion gate (also run standalone by the bench_fabric_smoke
    // ctest entry): every chip's collectives must resolve and the fleet
    // must halt inside the budget the timed loop uses.
    fabric::Fabric probe(cfg, fab);
    probe.load(prog);
    if (!probe.run(10'000'000)) {
      std::fprintf(stderr, "BM_Fabric: fleet did not finish at chips=%u p=%u\n",
                   chips, pes);
      std::exit(1);
    }
  }

  Cycle total_cycles = 0;
  for (auto _ : state) {
    fabric::Fabric f(cfg, fab);
    f.load(prog);
    benchmark::DoNotOptimize(f.run(10'000'000));
    total_cycles += f.fleet_stats().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
  state.counters["cycles/run"] =
      static_cast<double>(total_cycles) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Fabric)
    ->Args({1, 16})->Args({2, 16})->Args({4, 16})->Args({8, 16})
    ->Args({4, 64})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Assembler(benchmark::State& state) {
  const std::string src = bench::mixed_asc_program(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assemble(src));
  }
}
BENCHMARK(BM_Assembler);

}  // namespace
