// Differential testing.
//
// 1. The cycle-accurate Machine and the functional FuncSim share
//    execution semantics but have completely different sequencing
//    engines. For single-threaded programs (no cross-thread races) both
//    must produce identical final architectural state; the cycle count
//    is the only thing allowed to differ.
// 2. The one control pass (sim/pipeline.hpp) and the one datapath
//    (sim/datapath.hpp) run over two kinds of state: the serial Machine
//    and the lane batch. Random *multithreaded* programs whose loop trip
//    counts come from reductions over per-job table data must give every
//    lane of a batch the result bytes of its own serial run — lanes
//    ejected on divergence and replayed, and lanes stopped by their own
//    data faults, included — and a Machine resumed from a checkpoint at
//    a random cycle must end on the straight run's blob.
// 3. The same random programs sent through an in-process masc-served
//    must come back byte-equal to their serial run_sweep_job record
//    (host_seconds aside) in every state that serves them: a cold run,
//    an L1 hit, an L2 hit after the cache directory is reopened, a
//    journal replay of recorded results, and a journal resume of queued
//    jobs after a drain. The cached-run codec round-trips random Stats.
// 4. The same programs sent through an in-process masc-routerd in front
//    of two backends, over v1 and over v2, must come back byte-equal to
//    the same records on every routed path: from the ring owner, from
//    the owner's cache by peer read-through on a diverted submit, and
//    from the survivor after a failover re-placement.
// These suites also run as the asan_/tsan_/ubsan_differential gates.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "cluster/router.hpp"
#include "common/bits.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
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
/// r8..r13 hold control state the random blocks never touch. A
/// non-empty `probe` is emitted once in every thread's block, after at
/// least one segment of work.
std::string random_mt_program(Rng& rng, const std::string& probe = {}) {
  std::ostringstream os;
  int label = 0;
  const unsigned workers = 1 + static_cast<unsigned>(rng.next_below(3));
  const auto rx = [&] { return "r" + std::to_string(1 + rng.next_below(7)); };
  auto block = [&](bool main_thread) {
    const int segments = 2 + static_cast<int>(rng.next_below(3));
    const int probe_at =
        probe.empty() ? -1 : 1 + static_cast<int>(rng.next_below(segments - 1));
    for (int seg = 0; seg < segments; ++seg) {
      if (seg == probe_at) os << probe;
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

/// The data faults a lane can take alone. Each probe has r14 hold the
/// job's kProbeWord table word and uses it as an address or PE index
/// (r14/r15 and p8/p9 are untouched by the random blocks); the plw/psw
/// address is pbcast + pindex, so a fault can land mid-array.
struct FaultKind {
  const char* name;
  const char* probe;    ///< after the load of r14
  const char* message;  ///< the serial error text, pinned
  Word first_bad;       ///< the lowest probe word that faults at PE 0
};
constexpr Addr kProbeWord = kTableWords - 2;
const FaultKind kFaultKinds[] = {
    {"lw", "lw r15, 0(r14)\nadd r1, r1, r15\n", "scalar memory read out of range", 256},
    {"sw", "sw r1, 0(r14)\n", "scalar memory write out of range", 256},
    {"plw", "pbcast p8, r14\npindex p9\npadd p8, p8, p9\nplw p1, 0(p8)",
     "local memory read out of range", 256},
    {"psw", "pbcast p8, r14\npindex p9\npadd p8, p8, p9\npsw p2, 0(p8)",
     "local memory write out of range", 256},
    {"getpe", "getpe r15, p1, r14\nadd r2, r2, r15\n", "getpe: PE index out of range", 8},
};

TEST_P(DifferentialEngine, PerLaneDataFaultsMatchSerialJobs) {
  // Per-lane table words drive one faulting opcode out of range on some
  // lanes, mid-run, in every thread: each lane's result — error text
  // included — must be byte-equal to its own serial run, and every
  // fault kind must stop at least one lane inside a batch.
  Rng rng(GetParam());
  for (const FaultKind& kind : kFaultKinds) {
    std::uint32_t faulted = 0;
    // Two rounds, and more (up to eight) until a lane faulted in a batch.
    for (int round = 0; round < 8 && (round < 2 || faulted == 0); ++round) {
      std::string probe =
          "lw r14, " + std::to_string(kProbeWord) + "(r0)\n" + kind.probe;
      if (probe.back() != '\n') {  // plw/psw: optionally masked
        if (rng.next_below(2) != 0) probe += " ?pf" + std::to_string(1 + rng.next_below(3));
        probe += "\n";
      }
      const Program prog = assemble(random_mt_program(rng, probe));
      std::vector<Word> base(kTableWords);
      for (Word& w : base) w = static_cast<Word>(rng.next_below(1u << 16));
      const ThreadSchedPolicy policy = kPolicies[rng.next_below(3)];
      for (const std::uint32_t lanes : {2u, 8u}) {
        std::vector<SweepJob> jobs(lanes);
        std::vector<LaneJob> lane_jobs;
        for (std::uint32_t l = 0; l < lanes; ++l) {
          jobs[l].cfg = mt_policy_config(policy);
          jobs[l].cfg.scalar_mem_bytes = 256;
          jobs[l].program = prog;
          jobs[l].program.data = lane_table(base, rng, l);
          // A third of the lanes draw from [first_bad - 7, first_bad + 57):
          // most fault, and a plw/psw word below first_bad faults only at
          // a higher PE of the 8, after the lower ones were written.
          const Word bad = kind.first_bad;
          jobs[l].program.data[kProbeWord] = static_cast<Word>(
              rng.next_below(3) == 0 ? bad - 7 + rng.next_below(64)
                                     : rng.next_below(bad - 7));
          jobs[l].max_cycles = 1'000'000;
          jobs[l].label = "lane" + std::to_string(l);
        }
        for (std::uint32_t l = 0; l < lanes; ++l) lane_jobs.push_back({&jobs[l], l});
        LaneBatchReport report;
        const auto got = run_lane_batch(lane_jobs, &report);
        ASSERT_EQ(got.size(), lanes);
        faulted += report.faulted;
        for (std::uint32_t l = 0; l < lanes; ++l) {
          const SweepResult want = run_sweep_job(jobs[l], l);
          if (want.status == SweepStatus::kError)
            ASSERT_EQ(want.error, kind.message) << kind.name << " lane " << l;
          else
            ASSERT_EQ(want.status, SweepStatus::kFinished) << kind.name;
          ASSERT_EQ(got[l].error, want.error) << kind.name << " lane " << l;
          ASSERT_EQ(result_bytes(got[l], jobs[l].cfg), result_bytes(want, jobs[l].cfg))
              << kind.name << " lane " << l << " of " << lanes;
        }
      }
    }
    EXPECT_GT(faulted, 0u) << kind.name << " never faulted a lane in a batch";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngine,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u, 12345u));

// --- served results ---------------------------------------------------

/// A random multithreaded program with its own table, as a wire job on
/// the 8-PE, 4-thread machine of mt_policy_config (the wire cannot set
/// local memory, so the server's default size applies to both sides).
std::string wire_job(Rng& rng, int n) {
  Program prog = assemble(random_mt_program(rng));
  prog.data.resize(kTableWords);
  for (Word& w : prog.data) w = static_cast<Word>(rng.next_below(1u << 16));
  const char* sched[] = {"fine", "coarse", "smt"};
  std::ostringstream os;
  os << "{\"config\":{\"pes\":8,\"threads\":4,\"width\":16,\"sched\":\""
     << sched[n % 3] << "\"" << (n % 3 == 2 ? ",\"issue_width\":2" : "")
     << "},\"label\":\"mt" << n << "\",\"max_cycles\":1000000"
     << ",\"program\":{\"entry\":" << prog.entry << ",\"text\":[";
  for (std::size_t i = 0; i < prog.text.size(); ++i)
    os << (i ? "," : "") << prog.text[i];
  os << "],\"data\":[";
  for (std::size_t i = 0; i < prog.data.size(); ++i)
    os << (i ? "," : "") << prog.data[i];
  os << "]}}";
  return os.str();
}

/// `record` with its host_seconds value replaced by 0.
std::string zero_host_seconds(std::string record) {
  const std::string field = "\"host_seconds\":";
  const std::size_t at = record.find(field);
  if (at == std::string::npos) return record;
  const std::size_t from = at + field.size();
  record.replace(from, record.find(',', from) - from, "0");
  return record;
}

/// Serial references for a set of wire jobs: each job's run_sweep_job
/// result, re-indexed per served id.
struct SerialRecords {
  std::vector<SweepJob> jobs;
  std::vector<SweepResult> runs;

  explicit SerialRecords(const std::vector<std::string>& wire) {
    for (const std::string& w : wire) {
      jobs.push_back(serve::job_from_json(parse_json(w)));
      runs.push_back(run_sweep_job(jobs.back(), 0));
    }
  }
  std::string record(std::size_t k, std::uint64_t id) const {
    SweepResult r = runs[k];
    r.index = static_cast<std::size_t>(id);
    r.host_seconds = 0;
    return to_json(r, jobs[k].cfg);
  }
};

std::vector<std::uint64_t> submit_all(serve::Client& c,
                                      const std::vector<std::string>& wire) {
  std::string req = "{\"op\":\"submit\",\"jobs\":[";
  for (std::size_t i = 0; i < wire.size(); ++i) req += (i ? "," : "") + wire[i];
  const json::Value resp = c.request(req + "]}");
  EXPECT_TRUE(resp.get_bool("ok", false)) << json::serialize(resp);
  std::vector<std::uint64_t> ids;
  if (const json::Value* arr = resp.find("ids"))
    for (const json::Value& id : arr->as_array()) ids.push_back(id.as_uint());
  return ids;
}

/// Every served result body of `ids` must equal its serial record.
void expect_served_records(serve::Client& c,
                           const std::vector<std::uint64_t>& ids,
                           const SerialRecords& want, const char* state) {
  ASSERT_EQ(ids.size(), want.runs.size()) << state;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::string raw = c.request_raw(
        "{\"op\":\"result\",\"id\":" + std::to_string(ids[k]) +
        ",\"wait\":true,\"timeout_ms\":20000}");
    const std::string body(json::member_text(raw, "result"));
    ASSERT_FALSE(body.empty()) << state << " job " << k << ": " << raw;
    EXPECT_EQ(zero_host_seconds(body), want.record(k, ids[k]))
        << state << " job " << k;
  }
}

serve::ServerOptions served_options(const std::string& journal) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.io_threads = 1;
  opts.journal_path = journal;
  return opts;
}

std::uint64_t cache_counter(const serve::Server& s, const char* name) {
  return parse_json(s.stats_json()).find("cache")->get_uint(name, 0);
}

TEST(DifferentialServe, EveryServingStateMatchesTheSerialRecord) {
  const std::string base = testing::TempDir() + "masc_diff_serve_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  Rng rng(2718);
  std::vector<std::string> wire;
  for (int n = 0; n < 9; ++n) wire.push_back(wire_job(rng, n));
  const SerialRecords want(wire);
  for (const SweepResult& r : want.runs)
    ASSERT_EQ(r.status, SweepStatus::kFinished) << r.error;

  serve::ServerOptions opts = served_options(base + "/cached.journal");
  opts.cache_bytes = 16u << 20;
  opts.cache_dir = base + "/cache";
  std::vector<std::uint64_t> cold, l1;
  {
    serve::Server server(opts);
    server.start();
    serve::Client c;
    c.connect("127.0.0.1", server.port());
    cold = submit_all(c, wire);
    expect_served_records(c, cold, want, "cold");
    l1 = submit_all(c, wire);
    expect_served_records(c, l1, want, "L1 hit");
    EXPECT_GE(cache_counter(server, "l1_hits"), wire.size());
    ASSERT_TRUE(c.request("{\"op\":\"cache_flush\"}").get_bool("ok", false));
    server.stop();
  }
  {
    // A restart on the same journal and cache directory: the recorded
    // results replay from the journal, and a resubmit is served from
    // the disk tier (the RAM tier starts empty).
    serve::Server server(opts);
    server.start();
    serve::Client c;
    c.connect("127.0.0.1", server.port());
    expect_served_records(c, cold, want, "journal replay (cold)");
    expect_served_records(c, l1, want, "journal replay (L1 hit)");
    expect_served_records(c, submit_all(c, wire), want, "L2 hit");
    EXPECT_GE(cache_counter(server, "l2_hits"), wire.size());
    server.stop();
  }

  // Queued jobs parked by a drain resume after the restart.
  const serve::ServerOptions queued = [&] {
    serve::ServerOptions o = served_options(base + "/queued.journal");
    o.workers = 1;
    return o;
  }();
  std::vector<std::uint64_t> parked;
  std::uint64_t blocker = 0;
  {
    serve::Server server(queued);
    server.start();
    serve::Client c;
    c.connect("127.0.0.1", server.port());
    blocker = submit_all(c, {"{\"program\":{\"source\":\"spin: j spin\\n\"}}"})[0];
    for (int i = 0; i < 2000; ++i) {
      const json::Value st = c.request("{\"op\":\"status\",\"id\":" +
                                       std::to_string(blocker) + "}");
      if (st.get_string("state", "") == "running") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    parked = submit_all(c, wire);
    server.drain();
  }
  {
    serve::Server server(queued);
    server.start();
    serve::Client c;
    c.connect("127.0.0.1", server.port());
    c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(blocker) + "}");
    expect_served_records(c, parked, want, "journal resume");
    server.stop();
  }
  std::filesystem::remove_all(base);
}

// --- routed results ---------------------------------------------------

/// A submit or result request and its JSON response, over v1 or v2.
std::string routed_request(serve::Client& c, bool v2, serve::v2::Op op,
                           const std::string& req) {
  return v2 ? c.request_v2_raw(op, req) : c.request_raw(req);
}

std::vector<std::uint64_t> routed_submit(serve::Client& c, bool v2,
                                         const std::vector<std::string>& wire) {
  std::string req = "{\"op\":\"submit\",\"jobs\":[";
  for (std::size_t i = 0; i < wire.size(); ++i) req += (i ? "," : "") + wire[i];
  const json::Value resp =
      parse_json(routed_request(c, v2, serve::v2::Op::kSubmit, req + "]}"));
  EXPECT_TRUE(resp.get_bool("ok", false)) << json::serialize(resp);
  std::vector<std::uint64_t> ids;
  if (const json::Value* arr = resp.find("ids"))
    for (const json::Value& id : arr->as_array()) ids.push_back(id.as_uint());
  return ids;
}

/// Every routed result body of `ids` must equal its serial record at
/// its router id: the leading "index" is the router's on every path.
void expect_routed_records(serve::Client& c, bool v2,
                           const std::vector<std::uint64_t>& ids,
                           const SerialRecords& want,
                           const std::string& state) {
  ASSERT_EQ(ids.size(), want.runs.size()) << state;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::string raw = routed_request(
        c, v2, serve::v2::Op::kResult,
        "{\"op\":\"result\",\"id\":" + std::to_string(ids[k]) +
            ",\"wait\":true,\"timeout_ms\":20000}");
    const std::string body(json::member_text(raw, "result"));
    ASSERT_FALSE(body.empty()) << state << " job " << k << ": " << raw;
    EXPECT_EQ(zero_host_seconds(body), want.record(k, ids[k]))
        << state << " job " << k;
  }
}

std::uint64_t served_jobs(const serve::Server& s) {
  return parse_json(s.stats_json()).find("counters")->get_uint("submitted", 0);
}

TEST(DifferentialRouter, EveryRoutedPathMatchesTheSerialRecord) {
  Rng rng(31415);
  std::vector<std::string> wire;
  for (int n = 0; n < 6; ++n) wire.push_back(wire_job(rng, n));
  const SerialRecords want(wire);
  for (const SweepResult& r : want.runs)
    ASSERT_EQ(r.status, SweepStatus::kFinished) << r.error;

  for (const bool v2 : {false, true}) {
    const std::string proto = v2 ? "v2 " : "v1 ";
    // Two cache-enabled backends behind a router.
    std::optional<fault::ScopedInjector> injector;
    serve::ServerOptions sopts = served_options("");
    sopts.cache_bytes = 16u << 20;
    std::vector<std::unique_ptr<serve::Server>> servers;
    cluster::RouterOptions ropts;
    ropts.probe_interval_ms = 0;
    ropts.breaker.open_cooldown_ms = 60'000;  // a dead owner stays dead
    for (int i = 0; i < 2; ++i) {
      servers.push_back(std::make_unique<serve::Server>(sopts));
      servers.back()->start();
      ropts.backends.push_back(
          cluster::BackendSpec{"127.0.0.1", servers.back()->port()});
    }
    cluster::Router router(ropts);
    router.start();
    serve::Client c;
    c.connect("127.0.0.1", router.port());
    if (v2) ASSERT_EQ(c.negotiate(), 2u);

    // The ring owner runs the group; the router splices its bytes.
    expect_routed_records(c, v2, routed_submit(c, v2, wire), want,
                          proto + "ring owner");
    const std::size_t owner = served_jobs(*servers[0]) > 0 ? 0 : 1;
    ASSERT_EQ(served_jobs(*servers[owner]), wire.size());

    // One failed round to the owner diverts the repeat, which the router
    // serves itself from the owner's cache. The injector lives until the
    // servers are stopped: a backend thread may still hold the global
    // pointer after the round it faulted.
    fault::FaultPlan plan;
    plan.backend_fail_at = 1;
    plan.max_faults = 1;
    injector.emplace(plan);
    const std::vector<std::uint64_t> diverted = routed_submit(c, v2, wire);
    const json::Value stats = parse_json(routed_request(
        c, v2, serve::v2::Op::kStats, "{\"op\":\"stats\"}"));
    EXPECT_EQ(stats.find("stats")->find("router")->find("peer_cache")
                  ->get_uint("hits", 0),
              1u)
        << proto;
    expect_routed_records(c, v2, diverted, want, proto + "peer read-through");

    // The owner dies with a fresh group on it: failover re-places the
    // group on the survivor, which simulates it.
    const std::vector<std::uint64_t> moved = routed_submit(c, v2, wire);
    ASSERT_EQ(served_jobs(*servers[owner]), 2 * wire.size());
    servers[owner]->stop();
    expect_routed_records(c, v2, moved, want, proto + "failover");
    EXPECT_EQ(served_jobs(*servers[1 - owner]), wire.size()) << proto;

    router.stop();
    for (auto& s : servers) s->stop();
  }
}

/// A random Stats with every field set, thread rows included.
Stats random_stats(Rng& rng) {
  auto v = [&] { return rng.next_u64() >> rng.next_below(64); };
  Stats s;
  s.cycles = v();
  s.instructions = v();
  for (auto& x : s.issued_by_class) x = v();
  s.idle_cycles = v();
  for (auto& x : s.idle_by_cause) x = v();
  s.issued_by_thread.resize(rng.next_below(17));
  for (auto& x : s.issued_by_thread) x = v();
  s.thread_stalls.resize(rng.next_below(17));
  for (auto& row : s.thread_stalls)
    for (auto& x : row) x = v();
  s.broadcast_ops = v();
  s.reduction_ops = v();
  s.thread_switches = v();
  return s;
}

TEST(DifferentialCodec, CachedRunRoundTripsRandomStats) {
  Rng rng(4711);
  for (int round = 0; round < 500; ++round) {
    CachedSweepRun run;
    run.status = static_cast<SweepStatus>(
        rng.next_below(static_cast<std::uint64_t>(SweepStatus::kDeadlineExceeded) + 1));
    run.stats = random_stats(rng);
    if (rng.next_below(2) != 0) {
      fabric::FabricStats f;
      f.rounds = rng.next_u64();
      f.collectives = rng.next_u64();
      for (auto& x : f.by_op) x = rng.next_u64();
      f.payload_words = rng.next_u64();
      f.flits = rng.next_u64();
      f.hops = rng.next_u64();
      f.link_busy_cycles = rng.next_u64();
      f.max_latency = rng.next_u64();
      for (auto& x : f.latency_hist) x = rng.next_u64();
      run.fabric = f;
    }
    const std::string bytes = encode_cached_run(run);
    CachedSweepRun back;
    ASSERT_TRUE(decode_cached_run(bytes, back)) << "round " << round;
    EXPECT_EQ(back.status, run.status) << "round " << round;
    const Stats& a = run.stats;
    const Stats& b = back.stats;
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(b.instructions, a.instructions);
    EXPECT_EQ(b.issued_by_class, a.issued_by_class);
    EXPECT_EQ(b.idle_cycles, a.idle_cycles);
    EXPECT_EQ(b.idle_by_cause, a.idle_by_cause);
    EXPECT_EQ(b.issued_by_thread, a.issued_by_thread);
    EXPECT_EQ(b.thread_stalls, a.thread_stalls);
    EXPECT_EQ(b.broadcast_ops, a.broadcast_ops);
    EXPECT_EQ(b.reduction_ops, a.reduction_ops);
    EXPECT_EQ(b.thread_switches, a.thread_switches);
    ASSERT_EQ(back.fabric.has_value(), run.fabric.has_value());
    if (run.fabric) {
      EXPECT_EQ(fabric::to_json(*back.fabric), fabric::to_json(*run.fabric));
    }
    EXPECT_EQ(encode_cached_run(back), bytes) << "round " << round;
    // Any truncation is refused, never misread.
    EXPECT_FALSE(decode_cached_run(
        std::string_view(bytes).substr(0, rng.next_below(bytes.size())), back));
  }
}

}  // namespace
}  // namespace masc
