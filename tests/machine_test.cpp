// Cycle-accurate machine: end-to-end behaviour, statistics, tracing.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace masc {
namespace {

using test::run_program;
using test::small_config;

TEST(Machine, RunsToHalt) {
  auto m = run_program(small_config(), R"(
    li r1, 7
    halt
)");
  EXPECT_TRUE(m.halted());
  EXPECT_TRUE(m.finished());
  EXPECT_EQ(m.state().sreg(0, 1), 7u);
}

TEST(Machine, CycleCountSingleThreadStraightLine) {
  // n independent scalar instructions + halt issue back-to-back:
  // issues at cycles 0..n, plus 4 drain cycles after HALT's issue.
  auto m = run_program(small_config(), R"(
    li r1, 1
    li r2, 2
    li r3, 3
    li r4, 4
    halt
)");
  EXPECT_EQ(m.stats().instructions, 5u);
  EXPECT_EQ(m.stats().cycles, 4u + 4u);
  EXPECT_EQ(m.stats().idle_cycles, 0u);
}

TEST(Machine, DependentScalarChainStillFullRate) {
  // EX->EX forwarding: a dependent ALU chain issues every cycle.
  auto m = run_program(small_config(), R"(
    li r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 1), 4u);
  EXPECT_EQ(m.stats().cycles, 4u + 4u);
}

TEST(Machine, LoadUseStallsOneCycle) {
  auto m = run_program(small_config(), R"(
    li r1, 5
    sw r1, 0(r0)
    lw r2, 0(r0)
    addi r3, r2, 1     # load-use: 1 bubble
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 3), 6u);
  // Issues at 0,1,2,4,5 -> 5 + 4 drain.
  EXPECT_EQ(m.stats().cycles, 5u + 4u);
  EXPECT_EQ(m.stats().idle_by_cause[static_cast<std::size_t>(
                StallCause::kDataHazard)], 1u);
}

TEST(Machine, TakenBranchPenalty) {
  // j at cycle 1 -> next issue at 1+4=5; halt issues at 5.
  auto m = run_program(small_config(), R"(
    li r1, 1
    j over
    li r1, 99
over:
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 1), 1u);
  EXPECT_EQ(m.stats().cycles, 5u + 4u);
}

TEST(Machine, UntakenBranchPenaltyIsOneCycle) {
  auto m = run_program(small_config(), R"(
    li r1, 1
    beq r1, r0, never   # not taken: 1 bubble
    halt
never:
    halt
)");
  // Issues at 0, 1, 3.
  EXPECT_EQ(m.stats().cycles, 3u + 4u);
}

TEST(Machine, ParallelResultStateCorrect) {
  auto m = run_program(small_config(), R"(
    pindex p1
    paddi p2, p1, 1
    rsum r1, p2
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 1), 36u);  // 1+2+..+8
}

TEST(Machine, StatsClassifyIssues) {
  auto m = run_program(small_config(), R"(
    li r1, 3        # scalar
    pbcast p1, r1   # parallel
    rsum r2, p1     # reduction
    halt            # scalar
)");
  EXPECT_EQ(m.stats().issued(InstrClass::kScalar), 2u);
  EXPECT_EQ(m.stats().issued(InstrClass::kParallel), 1u);
  EXPECT_EQ(m.stats().issued(InstrClass::kReduction), 1u);
  EXPECT_EQ(m.stats().broadcast_ops, 2u);
  EXPECT_EQ(m.stats().reduction_ops, 1u);
}

TEST(Machine, AllThreadsExitEndsMachine) {
  auto m = run_program(small_config(), R"(
    texit
)");
  EXPECT_FALSE(m.halted());
  EXPECT_TRUE(m.finished());
}

TEST(Machine, RunTimeoutReturnsFalse) {
  Machine m(small_config());
  m.load(assemble("spin: j spin"));
  EXPECT_FALSE(m.run(1000));
}

TEST(Machine, NonPipelinedExecutionBaselineCpi5) {
  auto cfg = small_config();
  cfg.pipelined_execution = false;
  cfg.multithreading = false;
  Machine m(cfg);
  m.load(assemble(R"(
    li r1, 1
    li r2, 2
    li r3, 3
    halt
)"));
  ASSERT_TRUE(m.run());
  // Issues at 0, 5, 10, 15 -> finish 15+4.
  EXPECT_EQ(m.stats().cycles, 19u);
}

TEST(Machine, TraceRecordsStageSchedule) {
  Machine m(small_config());
  m.enable_trace();
  m.load(assemble(R"(
    li r1, 1
    addi r2, r1, 1
    halt
)"));
  ASSERT_TRUE(m.run());
  const auto& tr = m.trace();
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr[0].issue, 0u);
  EXPECT_EQ(tr[1].issue, 1u);
  EXPECT_EQ(tr[0].avail, 1u);
  EXPECT_EQ(tr[1].pc, 1u);
}

TEST(Machine, TraceDiagramRendersStages) {
  Machine m(small_config());
  m.enable_trace();
  m.load(assemble(R"(
    li r1, 1
    padds p1, r1, p2
    halt
)"));
  ASSERT_TRUE(m.run());
  const auto diagram = render_pipeline_diagram(m.trace(), m.config());
  EXPECT_NE(diagram.find("SR"), std::string::npos);
  EXPECT_NE(diagram.find("B1"), std::string::npos);
  EXPECT_NE(diagram.find("PR"), std::string::npos);
  EXPECT_NE(diagram.find("WB"), std::string::npos);
  EXPECT_NE(diagram.find("padds"), std::string::npos);
}

TEST(Machine, WawInterlockPreservesOrder) {
  // A reduction writes r1 late; an immediately following short write to
  // r1 must not be overtaken (the interlock delays it).
  auto m = run_program(small_config(), R"(
    pindex p1
    rmax r1, p1         # r1 <- 7, available late
    li r1, 3            # must end up as the final value
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 1), 3u);
  EXPECT_GT(m.stats().idle_by_cause[static_cast<std::size_t>(
                StallCause::kWawHazard)], 0u);
}

TEST(Machine, SequentialMultiplierStructuralHazard) {
  auto cfg = small_config();
  cfg.multiplier = MultiplierKind::kSequential;
  Machine m(cfg);
  m.load(assemble(R"(
    pindex p1
    paddi p2, p1, 1
    pmul p3, p1, p2     # occupies the PE multiplier for 16 cycles
    pmul p4, p2, p2     # structural hazard: must wait
    halt
)"));
  ASSERT_TRUE(m.run());
  EXPECT_GT(m.stats().idle_by_cause[static_cast<std::size_t>(
                StallCause::kStructuralHazard)], 0u);
  const auto v3 = m.state().read_preg_vector(0, 3);
  const auto v4 = m.state().read_preg_vector(0, 4);
  for (PEIndex pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(v3[pe], pe * (pe + 1));
    EXPECT_EQ(v4[pe], (pe + 1) * (pe + 1));
  }
}

TEST(Machine, PipelinedMultiplierNoStructuralHazard) {
  auto cfg = small_config();
  cfg.multiplier = MultiplierKind::kPipelined;
  Machine m(cfg);
  m.load(assemble(R"(
    pindex p1
    pmul p3, p1, p1
    pmul p4, p1, p1
    pmul p5, p1, p1
    halt
)"));
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.stats().idle_by_cause[static_cast<std::size_t>(
                StallCause::kStructuralHazard)], 0u);
}

TEST(Machine, NoMultiplierConfiguredThrows) {
  auto cfg = small_config();
  cfg.multiplier = MultiplierKind::kNone;
  Machine m(cfg);
  m.load(assemble("pmul p1, p2, p3\nhalt"));
  EXPECT_THROW(m.run(), SimulationError);
}

TEST(Machine, SingleThreadConfigRuns) {
  auto cfg = small_config();
  cfg.multithreading = false;
  auto m = run_program(cfg, R"(
    pindex p1
    rsum r1, p1
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 1), 28u);
}

TEST(Machine, SinglePEConfig) {
  auto cfg = small_config();
  cfg.num_pes = 1;
  auto m = run_program(cfg, R"(
    pindex p1
    paddi p2, p1, 5
    rsum r1, p2
    halt
)");
  EXPECT_EQ(m.state().sreg(0, 1), 5u);
}

// A parallel store whose address row runs past local memory mid-array
// faults at the lowest bad PE with every lower PE already written — the
// partial state a checkpoint taken after the fault records.
TEST(Machine, LocalMemoryFaultLeavesLowerPesWritten) {
  MachineConfig cfg;
  cfg.num_pes = 256;
  cfg.num_threads = 8;
  cfg.word_width = 16;
  Machine m(cfg);
  // pindex * 8 exceeds local_mem_bytes (1024) from PE 128 up.
  m.load(assemble(R"(
    pindex p1
    pmov p2, p1
    pslli p2, p2, 3
    psw p1, 0(p2)
    halt
)"));
  try {
    m.run(1'000'000);
    FAIL() << "expected a local-memory fault";
  } catch (const SimulationError& e) {
    EXPECT_STREQ(e.what(), "local memory write out of range");
  }
  for (PEIndex pe = 0; pe < 128; ++pe)
    EXPECT_EQ(m.state().local_mem(pe, pe * 8), pe) << "pe " << pe;
  for (PEIndex pe = 128; pe < 256; ++pe)
    EXPECT_EQ(m.state().local_mem(pe, 0), 0u) << "pe " << pe;
  EXPECT_FALSE(m.finished());
}

}  // namespace
}  // namespace masc
