// Multi-chip fabric suite (docs/MULTICHIP.md): config validation, the
// mailbox collective protocol, BFS correctness vs a host reference,
// the determinism contract (bit-identical across repeated runs and
// across checkpoint/resume), sweep integration, and
// the cache-key separation between single-chip and multi-chip runs.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "asclib/algorithms/graph.hpp"
#include "assembler/assembler.hpp"
#include "common/binio.hpp"
#include "common/error.hpp"
#include "fabric/fabric.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace masc {
namespace {

using fabric::CollectiveOp;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::Topology;

MachineConfig chip_config(std::uint32_t pes = 16, unsigned width = 16) {
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.word_width = width;
  return cfg;
}

/// Deterministic pseudo-random connected graph: a Hamiltonian-ish path
/// for connectivity plus LCG chords. No wall-clock, no global state.
std::vector<asc::GraphEdge> test_graph(std::uint32_t n, std::uint32_t chords,
                                       std::uint64_t seed) {
  std::vector<asc::GraphEdge> edges;
  for (std::uint32_t v = 1; v < n; ++v) edges.push_back({v - 1, v});
  std::uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (std::uint32_t i = 0; i < chords; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t u = static_cast<std::uint32_t>((x >> 33) % n);
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t v = static_cast<std::uint32_t>((x >> 33) % n);
    if (u != v) edges.push_back({u, v});
  }
  return edges;
}

// --- Config validation -------------------------------------------------------

TEST(FabricConfig, ValidatesKnobRanges) {
  FabricConfig ok;
  EXPECT_NO_THROW(ok.validate());

  FabricConfig f = ok;
  f.chips = 0;
  EXPECT_THROW(f.validate(), ConfigError);
  f = ok;
  f.chips = 257;
  EXPECT_THROW(f.validate(), ConfigError);
  f = ok;
  f.link_latency = 0;
  EXPECT_THROW(f.validate(), ConfigError);
  f = ok;
  f.link_width_words = 0;
  EXPECT_THROW(f.validate(), ConfigError);
  f = ok;
  f.chunk_cycles = 0;
  EXPECT_THROW(f.validate(), ConfigError);
  f = ok;
  f.mailbox_base = 32767;  // mailbox would cross the li-reachable limit
  EXPECT_THROW(f.validate(), ConfigError);
}

TEST(FabricConfig, ParseTopology) {
  EXPECT_EQ(fabric::parse_topology("chain"), Topology::kChain);
  EXPECT_EQ(fabric::parse_topology("tree"), Topology::kTree);
  EXPECT_THROW(fabric::parse_topology("ring"), ConfigError);
  EXPECT_THROW(fabric::parse_topology(""), ConfigError);
}

TEST(FabricConfig, NameEncodesEveryKnob) {
  FabricConfig f;
  f.chips = 4;
  f.topology = Topology::kChain;
  f.link_latency = 7;
  f.link_width_words = 2;
  f.chunk_cycles = 128;
  EXPECT_EQ(f.name(), "c4.chain.l7.w2.q128.mb31744");
  f.topology = Topology::kTree;
  EXPECT_NE(f.name(), "c4.chain.l7.w2.q128.mb31744");
}

TEST(FabricConfig, LatencyModel) {
  FabricConfig f;
  f.chips = 8;
  f.link_latency = 4;
  f.link_width_words = 1;
  f.topology = Topology::kTree;   // depth 3
  EXPECT_EQ(f.collective_latency(1), 2u * 3 * 4);
  EXPECT_EQ(f.collective_latency(5), 2u * 3 * 4 + 4);  // 5 flits pipeline
  f.topology = Topology::kChain;  // depth 7
  EXPECT_EQ(f.collective_latency(1), 2u * 7 * 4);
  f.link_width_words = 4;
  EXPECT_EQ(f.collective_latency(8), 2u * 7 * 4 + 1);  // 2 flits
  f.chips = 1;
  EXPECT_EQ(f.collective_latency(8), 1u);  // no links, flit pipeline only
}

TEST(FabricConfig, MailboxMustFitScalarMemory) {
  MachineConfig cfg = chip_config();
  cfg.scalar_mem_bytes = 1024;  // mailbox at 31744 cannot fit
  EXPECT_THROW(Fabric(cfg, FabricConfig{}), ConfigError);
}

// --- Mailbox collective protocol ---------------------------------------------

/// Each chip contributes (CHIP_ID + 1) at payload word 0 and posts the
/// requested op; after the ACK it copies the combined word into r13 and
/// halts. Guarded on NUM_CHIPS like real kernels, so it also runs (and
/// terminates) on a bare single Machine or a 1-chip fabric.
std::string collective_program(CollectiveOp op) {
  const FabricConfig f;
  const std::string mb = std::to_string(f.mailbox_base);
  return R"(
    li r4, )" + mb + R"(
    lw r5, 4(r4)        # CHIP_ID
    addi r5, r5, 1
    li r6, 64           # payload address
    sw r5, 0(r6)
    lw r10, 5(r4)       # NUM_CHIPS
    li r3, 1
    bleu r10, r3, done
    sw r6, 1(r4)        # ADDR
    li r3, 1
    sw r3, 2(r4)        # COUNT
    lw r7, 3(r4)
    addi r7, r7, 1
    li r3, )" + std::to_string(static_cast<int>(op)) + R"(
    sw r3, 0(r4)        # REQ posted last
wait:
    lw r3, 3(r4)
    bne r3, r7, wait
done:
    lw r13, 0(r6)
    halt
)";
}

TEST(FabricProtocol, SumCollectiveCombinesAllChips) {
  FabricConfig fab;
  fab.chips = 4;
  Fabric f(chip_config(), fab);
  f.load(assemble(collective_program(CollectiveOp::kSum)));
  ASSERT_TRUE(f.run());
  for (std::uint32_t k = 0; k < 4; ++k)
    EXPECT_EQ(f.chip(k).state().sreg(0, 13), 1u + 2 + 3 + 4) << "chip " << k;
  EXPECT_EQ(f.stats().collectives, 1u);
  EXPECT_EQ(f.stats().by_op[static_cast<std::size_t>(CollectiveOp::kSum)], 1u);
  EXPECT_EQ(f.stats().payload_words, 1u);
  EXPECT_GT(f.stats().hops, 0u);
  EXPECT_GT(f.stats().link_busy_cycles, 0u);
}

TEST(FabricProtocol, MaxMinOrCollectives) {
  for (const auto [op, want] :
       {std::pair{CollectiveOp::kMaxU, Word{4}},
        std::pair{CollectiveOp::kMinU, Word{1}},
        std::pair{CollectiveOp::kOr, Word{1 | 2 | 3 | 4}}}) {
    FabricConfig fab;
    fab.chips = 4;
    Fabric f(chip_config(), fab);
    f.load(assemble(collective_program(op)));
    ASSERT_TRUE(f.run());
    EXPECT_EQ(f.chip(0).state().sreg(0, 13), want)
        << "op " << fabric::to_string(op);
  }
}

TEST(FabricProtocol, BarrierMovesNoDataButSynchronizes) {
  const FabricConfig defaults;
  const std::string mb = std::to_string(defaults.mailbox_base);
  // COUNT = 0, no payload; r13 = ACK after the barrier.
  const std::string src = R"(
    li r4, )" + mb + R"(
    sw r0, 1(r4)
    sw r0, 2(r4)
    lw r7, 3(r4)
    addi r7, r7, 1
    li r3, 1
    sw r3, 0(r4)
wait:
    lw r3, 3(r4)
    bne r3, r7, wait
    mov r13, r3
    halt
)";
  FabricConfig fab;
  fab.chips = 3;
  Fabric f(chip_config(), fab);
  f.load(assemble(src));
  ASSERT_TRUE(f.run());
  for (std::uint32_t k = 0; k < 3; ++k)
    EXPECT_EQ(f.chip(k).state().sreg(0, 13), 1u);
  EXPECT_EQ(f.stats().payload_words, 0u);
}

TEST(FabricProtocol, MismatchedOpsThrow) {
  const FabricConfig defaults;
  const std::string mb = std::to_string(defaults.mailbox_base);
  // Chip 0 posts SUM, every other chip posts OR.
  const std::string src = R"(
    li r4, )" + mb + R"(
    lw r5, 4(r4)
    li r6, 64
    sw r6, 1(r4)
    li r3, 1
    sw r3, 2(r4)
    li r3, 3
    beq r5, r0, post
    li r3, 2
post:
    sw r3, 0(r4)
wait:
    j wait
)";
  FabricConfig fab;
  fab.chips = 2;
  Fabric f(chip_config(), fab);
  f.load(assemble(src));
  EXPECT_THROW(f.run(1'000'000), fabric::FabricError);
}

TEST(FabricProtocol, ChipExitDuringCollectiveThrows) {
  const FabricConfig defaults;
  const std::string mb = std::to_string(defaults.mailbox_base);
  // Chip 1 halts immediately; chip 0 posts a barrier and spins.
  const std::string src = R"(
    li r4, )" + mb + R"(
    lw r5, 4(r4)
    bne r5, r0, quit
    sw r0, 1(r4)
    sw r0, 2(r4)
    li r3, 1
    sw r3, 0(r4)
wait:
    j wait
quit:
    halt
)";
  FabricConfig fab;
  fab.chips = 2;
  Fabric f(chip_config(), fab);
  f.load(assemble(src));
  EXPECT_THROW(f.run(1'000'000), fabric::FabricError);
}

TEST(FabricProtocol, PayloadOverlappingMailboxThrows) {
  const FabricConfig defaults;
  const std::string mb = std::to_string(defaults.mailbox_base);
  const std::string src = R"(
    li r4, )" + mb + R"(
    sw r4, 1(r4)        # ADDR = the mailbox itself
    li r3, 1
    sw r3, 2(r4)
    li r3, 2
    sw r3, 0(r4)
wait:
    j wait
)";
  FabricConfig fab;
  fab.chips = 2;
  Fabric f(chip_config(), fab);
  f.load(assemble(src));
  EXPECT_THROW(f.run(1'000'000), fabric::FabricError);
}

TEST(FabricProtocol, RunsPlainSingleChipProgramsUntouched) {
  // A program that never touches the mailbox must behave exactly as on
  // a bare Machine, chip by chip.
  const std::string src = R"(
    li r13, 42
    halt
)";
  FabricConfig fab;
  fab.chips = 3;
  Fabric f(chip_config(), fab);
  f.load(assemble(src));
  ASSERT_TRUE(f.run());
  Machine bare(chip_config());
  bare.load(assemble(src));
  ASSERT_TRUE(bare.run());
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(f.chip(k).state().sreg(0, 13), 42u);
    EXPECT_EQ(f.chip(k).stats().cycles, bare.stats().cycles);
  }
  EXPECT_EQ(f.stats().collectives, 0u);
}

// --- BFS workload ------------------------------------------------------------

TEST(GraphBfs, MatchesHostReferenceSingleChip) {
  const std::uint32_t n = 48;
  const auto edges = test_graph(n, 40, 7);
  asc::GraphBfs bfs(chip_config(), n, edges);
  const auto want = asc::GraphBfs::host_reference(n, edges, false, 0);
  const auto got = bfs.run(0);
  EXPECT_EQ(got.level, want);
  EXPECT_GT(got.levels, 0u);
  EXPECT_FALSE(got.used_fabric);
}

TEST(GraphBfs, MatchesHostReferenceAcrossChipCounts) {
  const std::uint32_t n = 48;
  const auto edges = test_graph(n, 40, 11);
  asc::GraphBfs bfs(chip_config(), n, edges);
  const auto want = asc::GraphBfs::host_reference(n, edges, false, 3);
  for (const std::uint32_t chips : {1u, 2u, 4u}) {
    FabricConfig fab;
    fab.chips = chips;
    const auto got = bfs.run(3, fab);
    EXPECT_EQ(got.level, want) << chips << " chips";
    if (chips > 1) EXPECT_GT(got.fabric.collectives, 0u);
  }
}

TEST(GraphBfs, DisconnectedVerticesStayUnreached) {
  // 0-1-2 path plus isolated vertices 3, 4.
  asc::GraphBfs bfs(chip_config(), 5, {{0, 1}, {1, 2}});
  const auto got = bfs.run(0);
  EXPECT_EQ(got.level, (std::vector<Word>{1, 2, 3, 0, 0}));
}

TEST(GraphBfs, TopologiesAgreeOnLevelsButNotLatency) {
  const std::uint32_t n = 40;
  const auto edges = test_graph(n, 30, 3);
  asc::GraphBfs bfs(chip_config(), n, edges);
  FabricConfig tree;
  tree.chips = 8;
  tree.topology = Topology::kTree;
  // Deep enough links that the chain's extra hops cross more chunk
  // rounds than the tree's (both would fit one round at the default).
  tree.link_latency = 40;
  FabricConfig chain = tree;
  chain.topology = Topology::kChain;
  const auto rt = bfs.run(0, tree);
  const auto rc = bfs.run(0, chain);
  EXPECT_EQ(rt.level, rc.level);
  // A chain is 7 hops deep vs 3 for the tree: latency must be worse.
  EXPECT_GT(rc.fabric.max_latency, rt.fabric.max_latency);
  EXPECT_GT(rc.cycles, rt.cycles);
}

TEST(GraphBfs, BackgroundThreadsDoNotChangeLevels) {
  const std::uint32_t n = 32;
  const auto edges = test_graph(n, 20, 5);
  asc::GraphBfs bfs(chip_config(), n, edges);
  FabricConfig fab;
  fab.chips = 2;
  const auto quiet = bfs.run(0, fab, 0);
  const auto busy = bfs.run(0, fab, 50);
  EXPECT_EQ(quiet.level, busy.level);
  // The background reducers really ran: strictly more instructions.
  EXPECT_GT(busy.fleet.instructions, quiet.fleet.instructions);
}

// --- Determinism contract ----------------------------------------------------

/// A K=4 BFS run repeats bit-identically on fresh fleets — same state
/// blobs, same Stats, same fabric counters: no host state (addresses,
/// wall clock, iteration order of unordered containers) leaks in.
TEST(FabricDeterminism, BfsRepeatsBitIdentically) {
  const std::uint32_t n = 48;
  const auto edges = test_graph(n, 40, 13);
  FabricConfig fab;
  fab.chips = 4;
  std::string stats[2], fstats[2], blobs[2];
  std::vector<Word> levels[2];
  for (int run = 0; run < 2; ++run) {
    asc::GraphBfs bfs(chip_config(), n, edges);
    const auto r = bfs.run(1, fab);
    stats[run] = to_json(r.fleet);
    fstats[run] = to_json(r.fabric);
    levels[run] = r.level;
    fabric::Fabric f(chip_config(), fab);
    f.load(assemble(collective_program(CollectiveOp::kSum)));
    ASSERT_TRUE(f.run());
    blobs[run] = f.save_state();
  }
  EXPECT_EQ(levels[0], levels[1]);
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_EQ(fstats[0], fstats[1]);
  EXPECT_EQ(blobs[0], blobs[1]);
}

TEST(FabricDeterminism, CheckpointResumeBothDirections) {
  const std::uint32_t n = 48;
  const auto edges = test_graph(n, 40, 17);
  FabricConfig fab;
  fab.chips = 4;
  // Deep links: the collective stays in flight for many rounds, so the
  // round-3 checkpoint captures a pending collective mid-network.
  fab.link_latency = 200;

  // Reference: straight run to completion.
  asc::GraphBfs ref_bfs(chip_config(), n, edges);
  const auto ref = ref_bfs.run(2, fab);

  // GraphBfs::run owns its Fabric, so do the checkpoint dance on a
  // protocol program: stop exactly at a round boundary, checkpoint,
  // resume on a fresh fleet, and let the donor keep running too.
  fabric::Fabric a(chip_config(), fab);
  a.load(assemble(collective_program(CollectiveOp::kOr)));
  a.run(3 * fab.chunk_cycles);
  EXPECT_EQ(a.rounds(), 3u);
  const std::string mid = a.save_state();

  fabric::Fabric b(chip_config(), fab);
  b.load(assemble(collective_program(CollectiveOp::kOr)));
  b.restore_state(mid);
  EXPECT_EQ(b.rounds(), 3u);
  ASSERT_TRUE(b.run());
  ASSERT_TRUE(a.run());
  EXPECT_EQ(a.save_state(), b.save_state());

  // End-to-end: a second BFS fleet reproduces the reference levels.
  asc::GraphBfs bfs(chip_config(), n, edges);
  EXPECT_EQ(bfs.run(2, fab).level, ref.level);
}

TEST(FabricDeterminism, RestoreRejectsMismatchedConfigs) {
  FabricConfig fab;
  fab.chips = 2;
  Fabric a(chip_config(), fab);
  a.load(assemble(collective_program(CollectiveOp::kSum)));
  a.run(2 * fab.chunk_cycles);
  const std::string blob = a.save_state();

  FabricConfig other = fab;
  other.link_latency = 9;
  Fabric b(chip_config(), other);
  b.load(assemble(collective_program(CollectiveOp::kSum)));
  EXPECT_THROW(b.restore_state(blob), BinError);

  Fabric c(chip_config(32), fab);
  c.load(assemble(collective_program(CollectiveOp::kSum)));
  EXPECT_THROW(c.restore_state(blob), BinError);
}

// --- Sweep & cache integration -----------------------------------------------

SweepJob fabric_job(std::uint32_t chips) {
  SweepJob job;
  job.cfg = chip_config();
  job.program = assemble(collective_program(CollectiveOp::kSum));
  FabricConfig fab;
  fab.chips = chips;
  job.fabric = fab;
  return job;
}

TEST(FabricSweep, RunnerExecutesFabricJobs) {
  SweepRunner runner(2);
  const auto results = runner.run({fabric_job(4), fabric_job(2)});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, SweepStatus::kFinished) << r.error;
    ASSERT_TRUE(r.fabric.has_value());
    EXPECT_EQ(r.fabric->collectives, 1u);
    EXPECT_GT(r.stats.cycles, 0u);
  }
  // Fleet stats aggregate across chips: 4 chips issue more than 2.
  EXPECT_GT(results[0].stats.instructions, results[1].stats.instructions);
  // JSON carries the fabric section.
  EXPECT_NE(to_json(results[0], chip_config()).find("\"fabric\""),
            std::string::npos);
}

TEST(FabricSweep, ChunkedPathMatchesStraightRun) {
  SweepJob straight = fabric_job(4);
  SweepJob chunked = fabric_job(4);
  chunked.cancel = make_cancel_token();  // forces the chunked loop
  SweepRunner runner(1);
  const auto rs = runner.run({straight, chunked});
  EXPECT_EQ(to_json(rs[0].stats), to_json(rs[1].stats));
  EXPECT_EQ(fabric::to_json(*rs[0].fabric), fabric::to_json(*rs[1].fabric));
}

TEST(FabricCache, FabricKnobsSplitTheKey) {
  const SweepJob base = fabric_job(2);
  SweepJob plain = base;
  plain.fabric.reset();
  EXPECT_NE(sweep_cache_key(base), sweep_cache_key(plain));

  // A K=1 fabric is still not a bare machine (live mailbox words).
  SweepJob one = base;
  one.fabric->chips = 1;
  EXPECT_NE(sweep_cache_key(one), sweep_cache_key(plain));
  EXPECT_NE(sweep_cache_key(one), sweep_cache_key(base));

  for (const auto mutate :
       std::vector<std::function<void(FabricConfig&)>>{
           [](FabricConfig& f) { f.topology = Topology::kChain; },
           [](FabricConfig& f) { f.link_latency = 9; },
           [](FabricConfig& f) { f.link_width_words = 2; },
           [](FabricConfig& f) { f.chunk_cycles = 128; },
           [](FabricConfig& f) { f.mailbox_base = 30000; }}) {
    SweepJob j = base;
    mutate(*j.fabric);
    EXPECT_NE(sweep_cache_key(j), sweep_cache_key(base));
  }
}

TEST(FabricCache, MultiChipNeverServedFromSingleChipEntry) {
  auto cache = std::make_shared<SweepResultCache>(1 << 20);
  SweepRunner runner(1);
  runner.set_cache(cache);

  SweepJob plain = fabric_job(2);
  plain.fabric.reset();
  const auto first = runner.run({plain});
  EXPECT_EQ(cache->stats().misses, 1u);

  // The same program under a 2-chip fabric: must MISS, not adopt the
  // single-chip entry.
  const auto second = runner.run({fabric_job(2)});
  EXPECT_EQ(cache->stats().misses, 2u);
  ASSERT_TRUE(second[0].fabric.has_value());

  // Repeats of each flavor hit their own entries, fabric stats intact.
  const auto hit_plain = runner.run({plain});
  const auto hit_fab = runner.run({fabric_job(2)});
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_FALSE(hit_plain[0].fabric.has_value());
  ASSERT_TRUE(hit_fab[0].fabric.has_value());
  EXPECT_EQ(hit_fab[0].fabric->collectives, second[0].fabric->collectives);
  EXPECT_EQ(to_json(hit_fab[0].stats), to_json(second[0].stats));
}

TEST(FabricFleetStats, AggregatesAcrossChips) {
  FabricConfig fab;
  fab.chips = 3;
  Fabric f(chip_config(), fab);
  f.load(assemble(collective_program(CollectiveOp::kSum)));
  ASSERT_TRUE(f.run());
  const Stats fleet = f.fleet_stats();
  std::uint64_t instr = 0;
  Cycle maxc = 0;
  for (std::uint32_t k = 0; k < 3; ++k) {
    instr += f.chip(k).stats().instructions;
    maxc = std::max(maxc, f.chip(k).stats().cycles);
  }
  EXPECT_EQ(fleet.instructions, instr);
  EXPECT_EQ(fleet.cycles, maxc);
}

}  // namespace
}  // namespace masc
