// Machine checkpoint/restore: a save_state() blob restored into a fresh
// Machine (same config, same program) must continue *bit-identically* —
// same cycle count, same stats, same architectural state — as the run
// it was taken from. That property is what makes masc-served's crash
// recovery and deadline extension exact rather than approximate.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hpp"
#include "common/binio.hpp"
#include "common/hash.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace masc {
namespace {

std::string reduction_kernel(int rounds) {
  std::string src = "pindex p1\n";
  for (int i = 0; i < rounds; ++i) {
    src += "rsum r1, p1\n";
    src += "padds p2, r1, p1\n";
  }
  src += "halt\n";
  return src;
}

/// ~300 iterations × 5 instructions: long enough to split anywhere.
std::string loop_kernel() {
  return "li r2, 300\n"
         "outer: addi r3, r3, 1\n"
         "addi r2, r2, -1\n"
         "bne r2, r0, outer\n"
         "halt\n";
}

/// Every hardware thread runs a search/reduce loop over the PE array,
/// touching scalar and PE local memory: the timing registers, the
/// scoreboard and the thread table are all busy at any split point.
std::string threaded_kernel(unsigned iters_per_thread) {
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
    li r2, )" + std::to_string(iters_per_thread) + R"(
    pindex p1
    pandi p6, p1, 63
    pmov p2, p1
    li r1, 0
loop:
    pcgts pf1, r1, p2
    rcount r3, pf1
    add r4, r4, r3
    paddi p2, p2, 1 ?pf1
    padds p3, r3, p2
    pmul p4, p3, p2
    pdivu p5, p4, p2
    rsel pf2, pf1
    psw p3, 0(p6) ?pf1
    plw p4, 0(p6)
    rsum r3, p2
    sw r3, 8(r0)
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

MachineConfig small_cfg() {
  MachineConfig cfg;
  cfg.num_pes = 8;
  cfg.num_threads = 4;
  cfg.word_width = 16;
  cfg.validate();
  return cfg;
}

/// Run `src` straight through; return (stats json, final cycle).
std::pair<std::string, Cycle> straight_run(const MachineConfig& cfg,
                                           const std::string& src) {
  Machine m(cfg);
  m.load(assemble(src));
  EXPECT_TRUE(m.run(100'000'000));
  return {to_json(m.stats()), m.now()};
}

TEST(Checkpoint, ResumeIsBitIdenticalAtEveryTestedSplitPoint) {
  const MachineConfig cfg = small_cfg();
  const std::string src = loop_kernel();
  const auto [want_stats, want_cycle] = straight_run(cfg, src);
  ASSERT_GT(want_cycle, 400u);

  // Split the run at several interior cycles; each time, the resumed
  // machine must land on exactly the straight-run result.
  for (const Cycle split : {Cycle{1}, Cycle{97}, Cycle{400},
                            want_cycle - 1}) {
    Machine first(cfg);
    first.load(assemble(src));
    ASSERT_FALSE(first.run(split)) << "split " << split << " ended the run";
    const std::string blob = first.save_state();

    Machine resumed(cfg);
    resumed.load(assemble(src));
    resumed.restore_state(blob);
    EXPECT_EQ(resumed.now(), split);
    EXPECT_TRUE(resumed.run(100'000'000));
    EXPECT_EQ(resumed.now(), want_cycle) << "split at " << split;
    EXPECT_EQ(to_json(resumed.stats()), want_stats) << "split at " << split;
  }
}

TEST(Checkpoint, ResumeIsBitIdenticalForReductionKernel) {
  // The reduction kernel exercises the scoreboard, network timing, and
  // parallel state — the parts of machine state beyond plain registers.
  const MachineConfig cfg = small_cfg();
  const std::string src = reduction_kernel(40);
  const auto [want_stats, want_cycle] = straight_run(cfg, src);
  const Cycle split = want_cycle / 2;

  Machine first(cfg);
  first.load(assemble(src));
  ASSERT_FALSE(first.run(split));

  Machine resumed(cfg);
  resumed.load(assemble(src));
  resumed.restore_state(first.save_state());
  EXPECT_TRUE(resumed.run(100'000'000));
  EXPECT_EQ(resumed.now(), want_cycle);
  EXPECT_EQ(to_json(resumed.stats()), want_stats);
}

// The sweep layer checkpoints at kSweepChunkCycles boundaries; resume
// there with eight busy hardware threads over a 256-PE array and land on
// the straight run's blob byte for byte.
TEST(Checkpoint, ResumeAtTheSweepChunkBoundaryWithEightThreads) {
  MachineConfig cfg;
  cfg.num_pes = 256;
  cfg.num_threads = 8;
  cfg.word_width = 16;
  cfg.validate();
  const Program prog = assemble(threaded_kernel(600));
  Machine straight(cfg);
  straight.load(prog);
  ASSERT_TRUE(straight.run(50'000'000));

  ASSERT_EQ(kSweepChunkCycles, 65'536u);
  Machine first(cfg);
  first.load(prog);
  ASSERT_FALSE(first.run(kSweepChunkCycles))
      << "workload too short to split at the sweep chunk boundary";
  Machine resumed(cfg);
  resumed.load(prog);
  resumed.restore_state(first.save_state());
  EXPECT_EQ(resumed.now(), kSweepChunkCycles);
  EXPECT_TRUE(resumed.run(50'000'000));
  EXPECT_EQ(resumed.save_state(), straight.save_state());
}

TEST(Checkpoint, SavedMachineKeepsRunningUnperturbed) {
  // save_state() is const: taking a checkpoint must not change the
  // donor machine's own future.
  const MachineConfig cfg = small_cfg();
  const std::string src = loop_kernel();
  const auto [want_stats, want_cycle] = straight_run(cfg, src);

  Machine m(cfg);
  m.load(assemble(src));
  ASSERT_FALSE(m.run(123));
  (void)m.save_state();
  EXPECT_TRUE(m.run(100'000'000));
  EXPECT_EQ(m.now(), want_cycle);
  EXPECT_EQ(to_json(m.stats()), want_stats);
}

TEST(Checkpoint, RejectsMismatchedConfigProgramAndGarbage) {
  const MachineConfig cfg = small_cfg();
  Machine m(cfg);
  m.load(assemble(loop_kernel()));
  ASSERT_FALSE(m.run(50));
  const std::string blob = m.save_state();

  // Different machine geometry.
  MachineConfig other = cfg;
  other.num_pes = 16;
  other.validate();
  Machine wrong_cfg(other);
  wrong_cfg.load(assemble(loop_kernel()));
  EXPECT_THROW(wrong_cfg.restore_state(blob), BinError);

  // Same config, different program.
  Machine wrong_prog(cfg);
  wrong_prog.load(assemble(reduction_kernel(3)));
  EXPECT_THROW(wrong_prog.restore_state(blob), BinError);

  // Truncated and corrupted blobs.
  Machine target(cfg);
  target.load(assemble(loop_kernel()));
  EXPECT_THROW(target.restore_state(blob.substr(0, blob.size() / 2)),
               BinError);
  EXPECT_THROW(target.restore_state(blob + "x"), BinError);
  EXPECT_THROW(target.restore_state("definitely not a checkpoint"), BinError);
  EXPECT_THROW(target.restore_state(""), BinError);
}

// Golden pin: journaled checkpoints (docs/RELIABILITY.md) are
// save_state() blobs, so a refactor of the engine must leave their bytes
// alone or recovery would reject every stored job. The digest was taken
// before the control pass moved into sim/pipeline.hpp.
TEST(Checkpoint, GoldenBlobDigestAtAFixedCycle) {
  MachineConfig cfg = small_cfg();
  cfg.num_threads = 8;
  cfg.validate();
  Machine m(cfg);
  m.load(assemble(threaded_kernel(6)));
  ASSERT_FALSE(m.run(300));
  const std::string blob = m.save_state();
  EXPECT_EQ(blob.size(), 304739u);
  EXPECT_EQ(to_hex(Fnv128().bytes(blob.data(), blob.size()).digest()),
            "461c5aa919752ab9efaa378b9db38c3c");
}

TEST(SweepCheckpoint, CancelledJobResumesBitIdentically) {
  // Service-shaped path: a sweep job stopped by cancellation carries a
  // checkpoint; a second job seeded with it must finish with exactly
  // the stats of an uninterrupted run.
  const MachineConfig cfg = small_cfg();
  const std::string src = loop_kernel();
  const auto [want_stats, want_cycle] = straight_run(cfg, src);

  SweepJob job;
  job.cfg = cfg;
  job.program = assemble(src);
  job.cancel = make_cancel_token();
  job.cancel->store(true);  // cancel before the first chunk boundary
  job.checkpoint_on_stop = true;
  // Pre-cancelled jobs stop at cycle 0 with nothing to checkpoint; run
  // a couple of cycles first by splitting through Machine directly.
  Machine m(cfg);
  m.load(job.program);
  ASSERT_FALSE(m.run(want_cycle / 3));
  job.initial_state = std::make_shared<const std::string>(m.save_state());

  SweepRunner runner(1);
  const auto stopped = runner.run({job});
  ASSERT_EQ(stopped.size(), 1u);
  EXPECT_EQ(stopped[0].status, SweepStatus::kCancelled);
  ASSERT_FALSE(stopped[0].checkpoint.empty());

  SweepJob resume;
  resume.cfg = cfg;
  resume.program = assemble(src);
  resume.initial_state =
      std::make_shared<const std::string>(stopped[0].checkpoint);
  const auto finished = runner.run({resume});
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].status, SweepStatus::kFinished);
  EXPECT_EQ(to_json(finished[0].stats), want_stats);
}

TEST(SweepCheckpoint, PeriodicSinkFiresAndBlobsResume) {
  const MachineConfig cfg = small_cfg();
  // Long enough to cross several 65536-cycle chunks.
  const std::string src =
      "li r2, 40\nouter: li r1, 9000\ninner: addi r1, r1, -1\n"
      "bne r1, r0, inner\naddi r2, r2, -1\nbne r2, r0, outer\nhalt\n";
  const auto [want_stats, want_cycle] = straight_run(cfg, src);
  ASSERT_GT(want_cycle, 3 * kSweepChunkCycles);

  std::mutex mu;
  std::vector<std::string> blobs;
  SweepJob job;
  job.cfg = cfg;
  job.program = assemble(src);
  job.checkpoint_every_chunks = 1;
  job.checkpoint_sink = std::make_shared<
      const std::function<void(std::size_t, const std::string&)>>(
      [&](std::size_t, const std::string& blob) {
        const std::lock_guard<std::mutex> lock(mu);
        blobs.push_back(blob);
      });

  SweepRunner runner(1);
  const auto done = runner.run({job});
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, SweepStatus::kFinished);
  ASSERT_GE(blobs.size(), 3u);

  // Resuming from the *last* periodic checkpoint reproduces the run.
  SweepJob resume;
  resume.cfg = cfg;
  resume.program = assemble(src);
  resume.initial_state = std::make_shared<const std::string>(blobs.back());
  const auto finished = runner.run({resume});
  EXPECT_EQ(finished[0].status, SweepStatus::kFinished);
  EXPECT_EQ(to_json(finished[0].stats), to_json(done[0].stats));
  EXPECT_EQ(to_json(finished[0].stats), want_stats);
}

}  // namespace
}  // namespace masc
