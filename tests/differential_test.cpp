// Differential testing.
//
// 1. The cycle-accurate Machine and the functional FuncSim share
//    execution semantics but have completely different sequencing
//    engines. For single-threaded programs (no cross-thread races) both
//    must produce identical final architectural state; the cycle count
//    is the only thing allowed to differ.
// 2. The one control pass (sim/pipeline.hpp) drives two datapaths: the
//    serial Machine and the lane batch. Random *multithreaded* programs
//    whose loop trip counts come from reductions over per-job table
//    data must give every lane of a batch the result bytes of its own
//    serial run — lanes ejected on divergence and replayed included —
//    and a Machine resumed from a checkpoint at a random cycle must end
//    on the straight run's blob. These suites also run as the
//    asan_/ubsan_differential ctest gates.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/bits.hpp"
#include "common/random.hpp"
#include "sim/lane_batch.hpp"
#include "sim/sweep.hpp"
#include "test_util.hpp"

namespace masc {
namespace {

using test::small_config;

/// Append `length` random scalar, parallel, reduction, flag, and memory
/// instructions with safe operands. They read and write only r1..r7,
/// p1..p7 and sf/pf1..3, so callers may keep control state elsewhere.
void random_ops(std::ostringstream& os, Rng& rng, int length) {
  auto sreg = [&] { return "r" + std::to_string(1 + rng.next_below(7)); };
  auto preg = [&] { return "p" + std::to_string(1 + rng.next_below(7)); };
  auto sflg = [&] { return "sf" + std::to_string(1 + rng.next_below(3)); };
  auto pflg = [&] { return "pf" + std::to_string(1 + rng.next_below(3)); };
  auto mask = [&] {
    return rng.next_below(3) == 0 ? " ?pf" + std::to_string(1 + rng.next_below(3))
                                  : std::string{};
  };
  for (int i = 0; i < length; ++i) {
    switch (rng.next_below(20)) {
      case 0: os << "add " << sreg() << ", " << sreg() << ", " << sreg(); break;
      case 1: os << "sub " << sreg() << ", " << sreg() << ", " << sreg(); break;
      case 2: os << "xor " << sreg() << ", " << sreg() << ", " << sreg(); break;
      case 3: os << "addi " << sreg() << ", " << sreg() << ", "
                 << rng.next_in(-100, 100); break;
      case 4: os << "mul " << sreg() << ", " << sreg() << ", " << sreg(); break;
      case 5: os << "sw " << sreg() << ", " << rng.next_below(64) << "(r0)"; break;
      case 6: os << "lw " << sreg() << ", " << rng.next_below(64) << "(r0)"; break;
      case 7: os << "ceq " << sflg() << ", " << sreg() << ", " << sreg(); break;
      case 8: os << "sfxor " << sflg() << ", " << sflg() << ", " << sflg(); break;
      case 9: os << "padd " << preg() << ", " << preg() << ", " << preg() << mask(); break;
      case 10: os << "psub " << preg() << ", " << preg() << ", " << preg() << mask(); break;
      case 11: os << "padds " << preg() << ", " << sreg() << ", " << preg() << mask(); break;
      case 12: os << "paddi " << preg() << ", " << preg() << ", "
                  << rng.next_in(-50, 50) << mask(); break;
      case 13: os << "pclt " << pflg() << ", " << preg() << ", " << preg() << mask(); break;
      case 14: os << "pcles " << pflg() << ", " << sreg() << ", " << preg() << mask(); break;
      case 15: os << "pfxor " << pflg() << ", " << pflg() << ", " << pflg() << mask(); break;
      case 16: os << "psw " << preg() << ", " << rng.next_below(32) << "(p0)" << mask(); break;
      case 17: os << "plw " << preg() << ", " << rng.next_below(32) << "(p0)" << mask(); break;
      case 18: {
        const char* reds[] = {"rand", "ror", "rmax", "rmin", "rmaxu",
                              "rminu", "rsum", "rsumu"};
        os << reds[rng.next_below(8)] << " " << sreg() << ", " << preg() << mask();
        break;
      }
      default:
        switch (rng.next_below(4)) {
          case 0: os << "rcount " << sreg() << ", " << pflg() << mask(); break;
          case 1: os << "rsel " << pflg() << ", " << pflg() << mask(); break;
          case 2: os << "rstep " << pflg() << ", " << pflg() << mask(); break;
          default: os << "rfor " << sflg() << ", " << pflg() << mask(); break;
        }
        break;
    }
    os << '\n';
  }
}

/// Generate a random straight-line program exercising scalar, parallel,
/// reduction, flag, and memory instructions with safe operands.
std::string random_program(Rng& rng, int length) {
  std::ostringstream os;
  os << "pindex p1\n";  // seed some per-PE data
  os << "li r1, 13\n";
  os << "pbcast p2, r1\n";
  random_ops(os, rng, length);
  os << "halt\n";
  return os.str();
}

/// Words 0..kTripWords-1 of a job's table feed loop trip counts; the
/// rest is plain data.
constexpr Addr kTripWords = 8;
constexpr Addr kTableWords = 16;

/// A random multithreaded program. Thread 0 spawns 1..3 workers (ids in
/// r9..r11), every thread runs random blocks interleaved with loops
/// whose trip count is a reduction over a table word of the job's data,
/// cross-thread tput/tget, and thread 0 joins every worker before HALT.
/// r8..r13 hold control state the random blocks never touch.
std::string random_mt_program(Rng& rng) {
  std::ostringstream os;
  int label = 0;
  const unsigned workers = 1 + static_cast<unsigned>(rng.next_below(3));
  const auto rx = [&] { return "r" + std::to_string(1 + rng.next_below(7)); };
  auto block = [&](bool main_thread) {
    const int segments = 2 + static_cast<int>(rng.next_below(3));
    for (int seg = 0; seg < segments; ++seg) {
      random_ops(os, rng, 3 + static_cast<int>(rng.next_below(6)));
      switch (rng.next_below(3)) {
        case 0: {
          // Trip count = (sum over PEs of (table word & pindex)) % 8 + 1,
          // the word optionally mixed with a register the random ops
          // computed: lanes whose tables differ here diverge at the
          // back-branch, and a wrong datapath result changes `cycles`.
          const std::string l = "loop" + std::to_string(label++);
          os << "lw r12, " << rng.next_below(kTripWords) << "(r0)\n";
          if (rng.next_below(2) != 0) os << "xor r12, r12, " << rx() << "\n";
          os << "pbcast p7, r12\npindex p6\npand p7, p7, p6\n"
             << "rsum r12, p7\nandi r12, r12, 7\naddi r12, r12, 1\n"
             << l << ":\n";
          random_ops(os, rng, 2 + static_cast<int>(rng.next_below(4)));
          os << "addi r12, r12, -1\nbne r12, r0, " << l << "\n";
          break;
        }
        case 1: {
          // Thread 0 talks to a worker; workers talk to thread 0 (r0).
          // Half the transfers pick thread 0 or 1 from a trip-count table
          // word instead, so the TMOV target itself is per-lane data.
          std::string peer =
              main_thread ? "r" + std::to_string(9 + rng.next_below(workers))
                          : std::string("r0");
          if (rng.next_below(2) != 0) {
            os << "lw r13, " << rng.next_below(kTripWords)
               << "(r0)\nandi r13, r13, 1\n";
            peer = "r13";
          }
          os << (rng.next_below(2) ? "tput " : "tget ") << rx() << ", "
             << rx() << ", " << peer << "\n";
          break;
        }
        default:
          break;
      }
    }
  };
  os << "main:\nla r8, worker\n";
  for (unsigned w = 0; w < workers; ++w) os << "tspawn r" << 9 + w << ", r8\n";
  block(true);
  for (unsigned w = 0; w < workers; ++w) os << "tjoin r" << 9 + w << "\n";
  random_ops(os, rng, 4);
  os << "halt\nworker:\n";
  block(false);
  os << "texit\n";
  return os.str();
}

/// A job's per-lane table: a shared base with one plain-data word made
/// distinct per lane, and (for about half the lanes) one trip-count
/// word changed too, so batches mix convergent and ejected lanes.
std::vector<Word> lane_table(const std::vector<Word>& base, Rng& rng,
                             std::uint32_t lane) {
  std::vector<Word> t = base;
  t[kTableWords - 1] = 37 * lane + 1;
  if (rng.next_below(2) != 0)
    t[rng.next_below(kTripWords)] = static_cast<Word>(rng.next_below(1u << 16));
  return t;
}

MachineConfig mt_policy_config(ThreadSchedPolicy policy) {
  MachineConfig cfg = small_config();
  cfg.sched_policy = policy;
  if (policy == ThreadSchedPolicy::kSmt) cfg.issue_width = 2;
  cfg.validate();
  return cfg;
}

constexpr ThreadSchedPolicy kPolicies[] = {ThreadSchedPolicy::kFineGrain,
                                           ThreadSchedPolicy::kCoarseGrain,
                                           ThreadSchedPolicy::kSmt};

/// to_json of a result minus its wall-clock field.
std::string result_bytes(SweepResult r, const MachineConfig& cfg) {
  r.host_seconds = 0;
  return to_json(r, cfg);
}

void expect_same_state(const ArchState& a, const ArchState& b,
                       const std::string& context) {
  const auto& cfg = a.config();
  for (RegNum r = 0; r < cfg.num_scalar_regs; ++r)
    ASSERT_EQ(a.sreg(0, r), b.sreg(0, r)) << context << " sreg r" << r;
  for (RegNum f = 0; f < cfg.num_flag_regs; ++f)
    ASSERT_EQ(a.sflag(0, f), b.sflag(0, f)) << context << " sflag " << f;
  for (RegNum r = 0; r < cfg.num_parallel_regs; ++r)
    for (PEIndex pe = 0; pe < cfg.num_pes; ++pe)
      ASSERT_EQ(a.preg(0, r, pe), b.preg(0, r, pe))
          << context << " preg p" << r << " pe" << pe;
  for (RegNum f = 0; f < cfg.num_flag_regs; ++f)
    for (PEIndex pe = 0; pe < cfg.num_pes; ++pe)
      ASSERT_EQ(a.pflag(0, f, pe), b.pflag(0, f, pe))
          << context << " pflag " << f << " pe" << pe;
  for (Addr addr = 0; addr < 64; ++addr)
    ASSERT_EQ(a.scalar_mem(addr), b.scalar_mem(addr)) << context << " mem " << addr;
  for (PEIndex pe = 0; pe < cfg.num_pes; ++pe)
    for (Addr addr = 0; addr < 32; ++addr)
      ASSERT_EQ(a.local_mem(pe, addr), b.local_mem(pe, addr))
          << context << " lmem pe" << pe << " @" << addr;
}

class DifferentialRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialRandom, CycleSimMatchesFuncSim) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const std::string src = random_program(rng, 60);
    const Program prog = assemble(src);

    auto cfg = small_config();
    Machine m(cfg);
    m.load(prog);
    ASSERT_TRUE(m.run(1'000'000)) << src;

    FuncSim f(cfg);
    f.load(prog);
    ASSERT_TRUE(f.run());

    ASSERT_EQ(m.stats().instructions, f.instructions());
    expect_same_state(m.state(), f.state(), "seed=" + std::to_string(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u, 12345u));

TEST(DifferentialConfigs, AcrossWidthsAndShapes) {
  Rng rng(777);
  const std::string src = random_program(rng, 80);
  const Program prog = assemble(src);
  for (unsigned width : {8u, 16u, 32u}) {
    for (std::uint32_t p : {1u, 3u, 8u, 32u}) {
      MachineConfig cfg;
      cfg.num_pes = p;
      cfg.word_width = width;
      cfg.num_threads = 4;
      cfg.local_mem_bytes = 64;
      Machine m(cfg);
      m.load(prog);
      ASSERT_TRUE(m.run(1'000'000));
      FuncSim f(cfg);
      f.load(prog);
      ASSERT_TRUE(f.run());
      expect_same_state(m.state(), f.state(),
                        "w=" + std::to_string(width) + " p=" + std::to_string(p));
    }
  }
}

TEST(DifferentialConfigs, BaselineMachinesSameResults) {
  // Timing baselines (single-thread, non-pipelined network or execution)
  // must not change architectural results.
  Rng rng(4242);
  const std::string src = random_program(rng, 80);
  const Program prog = assemble(src);

  auto reference = [&] {
    FuncSim f(small_config());
    f.load(prog);
    f.run();
    return f;
  }();

  for (int variant = 0; variant < 3; ++variant) {
    auto cfg = small_config();
    if (variant == 0) cfg.multithreading = false;
    if (variant == 1) cfg.pipelined_network = false;
    if (variant == 2) {
      cfg.pipelined_execution = false;
      cfg.multithreading = false;
    }
    Machine m(cfg);
    m.load(prog);
    ASSERT_TRUE(m.run(2'000'000));
    expect_same_state(m.state(), reference.state(),
                      "variant=" + std::to_string(variant));
  }
}

TEST(DifferentialLoops, ControlFlowProgramAgrees) {
  // Branches and loops (not covered by the straight-line generator).
  const char* src = R"(
    li r1, 0
    li r2, 20
    pindex p1
loop:
    padds p2, r1, p1
    rsum r3, p2
    add r4, r4, r3
    addi r1, r1, 1
    bne r1, r2, loop
    sw r4, 0(r0)
    halt
)";
  const Program prog = assemble(src);
  Machine m(small_config());
  m.load(prog);
  ASSERT_TRUE(m.run(1'000'000));
  FuncSim f(small_config());
  f.load(prog);
  ASSERT_TRUE(f.run());
  EXPECT_EQ(m.state().scalar_mem(0), f.state().scalar_mem(0));
  EXPECT_EQ(m.stats().instructions, f.instructions());
  // Reference value: sum over i of (8i + 28).
  Word expected = 0;
  for (Word i = 0; i < 20; ++i) expected = truncate(expected + 8 * i + 28, 16);
  EXPECT_EQ(f.state().scalar_mem(0), expected);
}

class DifferentialEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialEngine, LaneBatchMatchesSerialJobs) {
  Rng rng(GetParam());
  std::uint32_t batched = 0, replayed = 0;
  for (int round = 0; round < 4; ++round) {
    const std::string src = random_mt_program(rng);
    const Program prog = assemble(src);
    std::vector<Word> base(kTableWords);
    for (Word& w : base) w = static_cast<Word>(rng.next_below(1u << 16));
    for (const ThreadSchedPolicy policy : kPolicies) {
      for (const std::uint32_t lanes : {2u, 8u, 16u}) {
        std::vector<SweepJob> jobs(lanes);
        std::vector<LaneJob> lane_jobs;
        for (std::uint32_t l = 0; l < lanes; ++l) {
          jobs[l].cfg = mt_policy_config(policy);
          jobs[l].program = prog;
          jobs[l].program.data = lane_table(base, rng, l);
          jobs[l].max_cycles = 1'000'000;
          jobs[l].label = "lane" + std::to_string(l);
        }
        for (std::uint32_t l = 0; l < lanes; ++l) lane_jobs.push_back({&jobs[l], l});
        LaneBatchReport report;
        const auto got = run_lane_batch(lane_jobs, &report);
        ASSERT_EQ(got.size(), lanes);
        batched += report.lanes;
        replayed += report.replayed;
        for (std::uint32_t l = 0; l < lanes; ++l) {
          const SweepResult want = run_sweep_job(jobs[l], l);
          ASSERT_EQ(want.status, SweepStatus::kFinished) << want.error << "\n" << src;
          ASSERT_EQ(result_bytes(got[l], jobs[l].cfg),
                    result_bytes(want, jobs[l].cfg))
              << "lane " << l << " of " << lanes << ", policy "
              << static_cast<int>(policy) << "\n" << src;
        }
      }
    }
  }
  // The seed must have exercised both paths: lockstep lanes and lanes
  // ejected to a serial replay.
  EXPECT_GT(batched, 0u);
  EXPECT_GT(replayed, 0u);
}

TEST_P(DifferentialEngine, CheckpointResumeAtARandomCycleMatchesStraightRun) {
  Rng rng(GetParam());
  for (int round = 0; round < 2; ++round) {
    Program prog = assemble(random_mt_program(rng));
    prog.data.resize(kTableWords);
    for (Word& w : prog.data) w = static_cast<Word>(rng.next_below(1u << 16));
    for (const ThreadSchedPolicy policy : kPolicies) {
      const MachineConfig cfg = mt_policy_config(policy);
      Machine straight(cfg);
      straight.load(prog);
      ASSERT_TRUE(straight.run(1'000'000));
      const Cycle split = 1 + rng.next_below(straight.now() - 1);

      Machine first(cfg);
      first.load(prog);
      ASSERT_FALSE(first.run(split));
      Machine resumed(cfg);
      resumed.load(prog);
      resumed.restore_state(first.save_state());
      ASSERT_TRUE(resumed.run(1'000'000));
      EXPECT_EQ(resumed.save_state(), straight.save_state())
          << "split at " << split << " of " << straight.now();
      EXPECT_EQ(to_json(resumed.stats()), to_json(straight.stats()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngine,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u, 12345u));

}  // namespace
}  // namespace masc
