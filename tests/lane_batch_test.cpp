// Lane-batching determinism contract (docs/PERF.md "Lane batching"):
// run_lane_batch / SweepRunner with batch_lanes = N must produce, for
// every job, a SweepResult bit-identical to run_sweep_job on the same
// job — same status, same error text, same Stats — across lane counts,
// scheduling policies, control divergence, per-lane faults, and
// mixed-fate batches. These suites also run sanitizer-instrumented as
// the tsan_/asan_/ubsan_lane_batch ctest gates (lane-strided indexing
// is exactly where UB hides).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "common/dispatch.hpp"
#include "common/random.hpp"
#include "sim/lane_batch.hpp"
#include "sim/network/trees.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"

namespace masc {
namespace {

// A new counter added to either struct must decide how it aggregates
// across flushes and how /stats renders it; the pin forces that look.
static_assert(sizeof(LaneBatchReport) == 12, "update batch aggregation");
static_assert(sizeof(SweepBatchStats) == (4 + 17) * 8,
              "update SweepBatchStats rendering (to_json + Prometheus)");

/// Uniform control, per-lane data: mixes the job's data word through
/// broadcast rows, masked updates, local memory, and reductions for a
/// fixed iteration count. Exercises every row-loop family in lockstep.
std::string uniform_src() {
  return R"(
main:
    lw r5, 0(r0)
    pindex p1
    pandi p6, p1, 63
    padds p2, r5, p1
    li r1, 0
    li r2, 9
loop:
    pcgts pf1, r1, p2
    rcount r3, pf1
    add r4, r4, r3
    paddi p2, p2, 1 ?pf1
    pmul p4, p2, p1
    psw p4, 0(p6) ?pf1
    plw p5, 0(p6)
    rsum r3, p2
    add r4, r4, r3
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

/// Data-dependent control: the per-lane data word IS the loop count, so
/// lanes with differing data diverge at the back-branch and must be
/// ejected to serial replay while the majority continues in lockstep.
std::string divergent_src() {
  return R"(
main:
    lw r2, 0(r0)
    pindex p1
    li r1, 0
loop:
    rsum r3, p1
    add r4, r4, r3
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

/// Data-dependent fault: walks scalar memory from a per-lane start
/// address, so a lane seeded near the end faults mid-run ("scalar
/// memory read out of range") while in-range lanes run to completion.
std::string faulting_src() {
  return R"(
main:
    lw r2, 0(r0)
    pindex p1
    li r1, 0
loop:
    lw r3, 0(r2)
    add r4, r4, r3
    addi r2, r2, 32
    rsum r5, p1
    addi r1, r1, 1
    li r6, 4
    bne r1, r6, loop
    texit
)";
}

/// Multithreaded workload: spawn/join/exit plus reductions, so the
/// shared thread table, startup penalties, and join wakeups all run
/// through the batched control pass.
std::string threaded_src() {
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
    lw r6, 0(r0)
    pindex p1
    padds p2, r6, p1
    li r1, 0
    li r2, 6
loop:
    rsum r3, p2
    add r4, r4, r3
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

MachineConfig small_cfg(ThreadSchedPolicy policy = ThreadSchedPolicy::kFineGrain) {
  MachineConfig cfg;
  cfg.num_pes = 8;
  cfg.word_width = 16;
  cfg.num_threads = 4;
  cfg.sched_policy = policy;
  if (policy == ThreadSchedPolicy::kSmt) cfg.issue_width = 2;
  cfg.scalar_mem_bytes = 256;
  cfg.local_mem_bytes = 64;
  cfg.validate();
  return cfg;
}

/// Jobs sharing one program image whose data[0] comes from `seeds`.
std::vector<SweepJob> make_grid(const MachineConfig& cfg,
                                const std::string& src,
                                const std::vector<Word>& seeds) {
  const Program prog = assemble(src);
  std::vector<SweepJob> jobs;
  jobs.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SweepJob job;
    job.cfg = cfg;
    job.program = prog;
    job.program.data = {seeds[i]};
    job.label = "lane" + std::to_string(i);
    job.seed = i;
    job.max_cycles = 2'000'000;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<SweepResult> run_serial(const std::vector<SweepJob>& jobs) {
  std::vector<SweepResult> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out.push_back(run_sweep_job(jobs[i], i));
  return out;
}

/// The bit-identity contract, field by field. Stats are compared via
/// their canonical JSON rendering, which covers every counter.
void expect_identical(const std::vector<SweepResult>& serial,
                      const std::vector<SweepResult>& batched,
                      const std::string& what) {
  ASSERT_EQ(serial.size(), batched.size()) << what;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, batched[i].index) << what << " job " << i;
    EXPECT_EQ(serial[i].label, batched[i].label) << what << " job " << i;
    EXPECT_EQ(static_cast<int>(serial[i].status),
              static_cast<int>(batched[i].status))
        << what << " job " << i;
    EXPECT_EQ(serial[i].error, batched[i].error) << what << " job " << i;
    EXPECT_EQ(serial[i].finished, batched[i].finished) << what << " job " << i;
    EXPECT_EQ(to_json(serial[i].stats), to_json(batched[i].stats))
        << what << " job " << i;
  }
}

std::vector<LaneJob> as_lanes(const std::vector<SweepJob>& jobs) {
  std::vector<LaneJob> lanes;
  lanes.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) lanes.push_back({&jobs[i], i});
  return lanes;
}

TEST(LaneBatchKey, LaneDimensionsExcludedConfigIncluded) {
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2});
  // data / label / seed are declared lane dimensions.
  EXPECT_EQ(lane_batch_key(jobs[0]), lane_batch_key(jobs[1]));
  EXPECT_TRUE(lane_batchable(jobs[0]));
  // The host-execution knob doesn't split batches.
  auto knobs = jobs[0];
  knobs.batch_lanes = 16;
  EXPECT_EQ(lane_batch_key(jobs[0]), lane_batch_key(knobs));
  // Anything feeding sweep_cache_key identity does.
  auto diff_cfg = jobs[0];
  diff_cfg.cfg.num_pes = 16;
  EXPECT_NE(lane_batch_key(jobs[0]), lane_batch_key(diff_cfg));
  auto diff_budget = jobs[0];
  diff_budget.max_cycles = 999;
  EXPECT_NE(lane_batch_key(jobs[0]), lane_batch_key(diff_budget));
  auto diff_text = jobs[0];
  diff_text.program = assemble(divergent_src());
  EXPECT_NE(lane_batch_key(jobs[0]), lane_batch_key(diff_text));
}

TEST(LaneBatchKey, UnbatchableJobs) {
  auto jobs = make_grid(small_cfg(), uniform_src(), {1});
  auto ckpt = jobs[0];
  ckpt.checkpoint_on_stop = true;
  EXPECT_FALSE(lane_batchable(ckpt));
  auto resumed = jobs[0];
  resumed.initial_state = std::make_shared<const std::string>("blob");
  EXPECT_FALSE(lane_batchable(resumed));
  auto periodic = jobs[0];
  periodic.checkpoint_every_chunks = 1;
  EXPECT_FALSE(lane_batchable(periodic));
  auto fab = jobs[0];
  fab.fabric = fabric::FabricConfig{};
  EXPECT_FALSE(lane_batchable(fab));
}

TEST(LaneBatch, BitIdenticalAcrossLaneCountsAndPolicies) {
  for (const auto policy :
       {ThreadSchedPolicy::kFineGrain, ThreadSchedPolicy::kCoarseGrain,
        ThreadSchedPolicy::kSmt}) {
    const MachineConfig cfg = small_cfg(policy);
    for (const std::size_t lanes : {2u, 4u, 8u, 16u}) {
      std::vector<Word> seeds;
      for (std::size_t i = 0; i < lanes; ++i)
        seeds.push_back(static_cast<Word>(3 * i + 1));
      for (const std::string& src : {uniform_src(), threaded_src()}) {
        const auto jobs = make_grid(cfg, src, seeds);
        LaneBatchReport rep;
        const auto batched = run_lane_batch(as_lanes(jobs), &rep);
        EXPECT_EQ(rep.lanes, lanes);
        EXPECT_EQ(rep.replayed, 0u) << "uniform control must stay lockstep";
        expect_identical(run_serial(jobs), batched,
                         "policy " + std::to_string(static_cast<int>(policy)) +
                             " lanes " + std::to_string(lanes));
      }
    }
  }
}

TEST(LaneBatch, ControlDivergenceEjectsToReplay) {
  // Loop counts 5,9,5,7,5: the three 5-lanes are the majority at the
  // first divergent back-branch; 9 and 7 replay serially.
  const auto jobs =
      make_grid(small_cfg(), divergent_src(), {5, 9, 5, 7, 5});
  LaneBatchReport rep;
  const auto batched = run_lane_batch(as_lanes(jobs), &rep);
  EXPECT_EQ(rep.lanes, 5u);
  EXPECT_EQ(rep.replayed, 2u);
  expect_identical(run_serial(jobs), batched, "divergent");
}

TEST(LaneBatch, PerLaneFaultMidBatch) {
  // Lane 1 starts its scalar-memory walk at 200 and falls off the end
  // of the 256-word memory mid-run; lane 3 is out of range immediately;
  // the rest finish. Error text must match the serial expect() message.
  const auto jobs =
      make_grid(small_cfg(), faulting_src(), {0, 200, 32, 60000});
  LaneBatchReport rep;
  const auto batched = run_lane_batch(as_lanes(jobs), &rep);
  EXPECT_EQ(rep.faulted, 2u);
  const auto serial = run_serial(jobs);
  EXPECT_EQ(serial[1].status, SweepStatus::kError);
  EXPECT_EQ(serial[1].error, "scalar memory read out of range");
  EXPECT_EQ(serial[3].status, SweepStatus::kError);
  expect_identical(serial, batched, "faulting");
}

TEST(LaneBatch, OversizedDataFaultsAtLoad) {
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 3});
  jobs[1].program.data.assign(1000, 7);  // > scalar_mem_bytes = 256
  const auto batched = run_lane_batch(as_lanes(jobs));
  const auto serial = run_serial(jobs);
  EXPECT_EQ(serial[1].status, SweepStatus::kError);
  EXPECT_EQ(serial[1].error, "program data exceeds scalar memory");
  expect_identical(serial, batched, "load fault");
}

TEST(LaneBatch, MixedFateCancelDeadlineFaultFinish) {
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 3, 4, 5});
  jobs[1].cancel = make_cancel_token();
  jobs[1].cancel->store(true);
  jobs[2].deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  jobs[3].program.data = {60000};  // lw r5, 0(r0) stays in range; keep sane
  const auto batched = run_lane_batch(as_lanes(jobs));
  const auto serial = run_serial(jobs);
  EXPECT_EQ(serial[1].status, SweepStatus::kCancelled);
  EXPECT_EQ(serial[2].status, SweepStatus::kDeadlineExceeded);
  EXPECT_EQ(serial[0].status, SweepStatus::kFinished);
  expect_identical(serial, batched, "mixed fate");
}

TEST(LaneBatch, CycleLimitStops) {
  // An infinite loop (loop count 0 never matches r1 past it... use a
  // budget smaller than the program needs) stops every lane at the
  // budget with kCycleLimit and identical partial stats.
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 3, 4});
  for (auto& j : jobs) j.max_cycles = 100;  // far below completion
  const auto batched = run_lane_batch(as_lanes(jobs));
  const auto serial = run_serial(jobs);
  EXPECT_EQ(serial[0].status, SweepStatus::kCycleLimit);
  expect_identical(serial, batched, "cycle limit");
}

TEST(LaneBatch, IncompatibleLanesRunSeriallyInsideCall) {
  // A mis-grouped call (different config, an unbatchable job) must
  // still return correct per-lane results — just without batching them.
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 3, 4});
  jobs[1].cfg.num_pes = 16;
  jobs[1].cfg.validate();
  jobs[2].checkpoint_on_stop = true;
  jobs[2].cancel = make_cancel_token();  // chunked path, but never fires
  LaneBatchReport rep;
  const auto batched = run_lane_batch(as_lanes(jobs), &rep);
  EXPECT_EQ(rep.lanes, 2u);     // jobs 0 and 3 batch
  EXPECT_EQ(rep.replayed, 2u);  // jobs 1 and 2 fall back to serial
  expect_identical(run_serial(jobs), batched, "incompatible");
}

TEST(LaneBatch, SingleLaneAndEmptyBatch) {
  const auto jobs = make_grid(small_cfg(), uniform_src(), {42});
  LaneBatchReport rep;
  const auto batched = run_lane_batch(as_lanes(jobs), &rep);
  EXPECT_EQ(rep.lanes, 0u);  // nothing to lockstep with
  expect_identical(run_serial(jobs), batched, "single");
  EXPECT_TRUE(run_lane_batch({}).empty());
}

// --- The lane-wide reduction network --------------------------------------

/// Every reduction of one lane's data, each checked against a value the
/// host computed with the reference network (net::tree_reduce and
/// friends). Data layout, in words: [0, 8) the PE values, 8 the getpe
/// index, 9 the mask threshold, then one expected result per check. A
/// wrong result branches to `bad`, which faults the lane; a batched lane
/// that disagreed with its serial run would diverge and replay.
struct ReductionCheck {
  const char* code;  ///< leaves its result in r5
  net::ReduceOp op;  ///< reference operator (kCountFlags for the flag checks)
  bool masked;       ///< under pf2 = (threshold > value), signed
};

constexpr std::uint32_t kRedPes = 8;
constexpr Addr kRedGetPe = 8, kRedThreshold = 9, kRedExpected = 10;

const std::vector<ReductionCheck>& reduction_checks() {
  static const std::vector<ReductionCheck> checks = {
      {"rsum r5, p2", net::ReduceOp::kSum, false},
      {"rsumu r5, p2", net::ReduceOp::kSumU, false},
      {"rmax r5, p2", net::ReduceOp::kMax, false},
      {"rmin r5, p2", net::ReduceOp::kMin, false},
      {"rsum r5, p2 ?pf2", net::ReduceOp::kSum, true},
      {"rmax r5, p2 ?pf2", net::ReduceOp::kMax, true},
      {"rminu r5, p2 ?pf2", net::ReduceOp::kMinU, true},
      {"rcount r5, pf2", net::ReduceOp::kCountFlags, true},
      // The first responder's PE index, 0 with no responder.
      {"rsel pf3, pf2\n    rsum r5, p1 ?pf3", net::ReduceOp::kCountFlags, true},
      // Responders left after the first is stepped off.
      {"rstep pf4, pf2\n    rcount r5, pf4", net::ReduceOp::kCountFlags, true},
  };
  return checks;
}

std::string reduction_src() {
  std::string src = R"(
main:
    pindex p1
    li r1, 8
    li r2, 0
load:
    lw r4, 0(r2)
    pceqs pf1, r2, p1
    pbcast p2, r4 ?pf1
    addi r2, r2, 1
    bne r2, r1, load
    lw r4, 8(r0)
    getpe r5, p2, r4      # an out-of-range index faults just this lane
    lw r9, 9(r0)
    pcgts pf2, r9, p2
)";
  for (std::size_t k = 0; k < reduction_checks().size(); ++k)
    src += "    " + std::string(reduction_checks()[k].code) + "\n    lw r6, " +
           std::to_string(kRedExpected + k) + "(r0)\n    bne r5, r6, bad\n";
  return src + "    texit\nbad:\n    lw r9, -1(r0)\n    texit\n";
}

/// One lane's data image: PE values, getpe index, threshold, and the
/// expected result of every check from the reference network.
std::vector<Word> reduction_lane_data(const std::vector<SWord>& values, Word getpe,
                                      SWord threshold, unsigned w) {
  std::vector<Word> v(kRedPes);
  for (std::uint32_t pe = 0; pe < kRedPes; ++pe)
    v[pe] = truncate(static_cast<Word>(values[pe]), w);
  const std::vector<std::uint8_t> all(kRedPes, 1);
  std::vector<std::uint8_t> mask(kRedPes);
  for (std::uint32_t pe = 0; pe < kRedPes; ++pe)
    mask[pe] = threshold > sign_extend(v[pe], w) ? 1 : 0;
  const Word count = net::flag_reduce(net::ReduceOp::kCountFlags, mask, all);
  const std::size_t first = net::resolve_first_index(mask, all);

  std::vector<Word> data = v;
  data.push_back(getpe);
  data.push_back(truncate(static_cast<Word>(threshold), w));
  for (const ReductionCheck& c : reduction_checks()) {
    const std::string code = c.code;
    Word want;
    if (code.starts_with("rsel")) {
      want = first < kRedPes ? static_cast<Word>(first) : 0;
    } else if (code.starts_with("rstep")) {
      want = count - (count > 0 ? 1 : 0);
    } else if (code.starts_with("rcount")) {
      want = count;
    } else {
      want = net::tree_reduce(c.op, v, c.masked ? mask : all, w);
    }
    data.push_back(truncate(want, w));
  }
  return data;
}

TEST(LaneBatch, ReductionsPerLaneMatchTheHardwareTree) {
  // Lane by lane, rsum saturates at a different node of the 8-leaf tree:
  // nowhere, a first-level node (positive, negative), a second-level node
  // (both signs at once), the root (positive, negative). Lane 6 sits on
  // the signed width edges; lane 7 faults at getpe before the later
  // reductions run in the surviving lanes. Thresholds vary the masks,
  // down to no responder at all.
  for (const unsigned w : {8u, 16u}) {
    const SWord hi = static_cast<SWord>(signed_max_word(w)), lo = -hi - 1;
    const SWord u = w == 8 ? 1 : 256;  // scales the width-8 patterns
    const std::vector<std::vector<SWord>> values = {
        {1, 2, 3, 4, 5, 6, 7, 8},
        {100 * u, 100 * u, -50 * u, -50 * u, -50 * u, -50 * u, -50 * u, -50 * u},
        {-100 * u, -100 * u, 50 * u, 50 * u, 50 * u, 50 * u, 50 * u, 50 * u},
        {60 * u, 60 * u, 60 * u, 60 * u, -60 * u, -60 * u, -10 * u, -10 * u},
        {30 * u, 30 * u, 30 * u, 30 * u, 30 * u, 30 * u, 30 * u, 30 * u},
        {-30 * u, -30 * u, -30 * u, -30 * u, -30 * u, -30 * u, -30 * u, -30 * u},
        {hi, lo, 0, 1, -1, hi - 1, lo + 1, 2},
        {1, 2, 3, 4, 5, 6, 7, 8},
    };
    const std::vector<SWord> thresholds = {5, 0, 0, 0, 31 * u, lo, hi, 5};
    const MachineConfig cfg = [&] {
      MachineConfig c = small_cfg();
      c.word_width = w;
      c.validate();
      return c;
    }();
    const Program prog = assemble(reduction_src());
    std::vector<SweepJob> jobs(values.size());
    bool tree_order_matters = false;
    for (std::size_t l = 0; l < values.size(); ++l) {
      const Word getpe = l == 7 ? 200 : static_cast<Word>(l);
      jobs[l].cfg = cfg;
      jobs[l].program = prog;
      jobs[l].program.data = reduction_lane_data(values[l], getpe, thresholds[l], w);
      jobs[l].label = "lane" + std::to_string(l);
      jobs[l].max_cycles = 1'000'000;
      // A linear saturating fold would give a different rsum somewhere.
      Word linear = 0;
      for (const SWord x : values[l])
        linear = sat_add_signed(linear, truncate(static_cast<Word>(x), w), w);
      tree_order_matters |= linear != jobs[l].program.data[kRedExpected];
    }
    EXPECT_TRUE(tree_order_matters);

    LaneBatchReport rep;
    const auto batched = run_lane_batch(as_lanes(jobs), &rep);
    const auto serial = run_serial(jobs);
    const std::string what = "width " + std::to_string(w);
    for (std::size_t l = 0; l + 1 < values.size(); ++l)
      EXPECT_EQ(serial[l].status, SweepStatus::kFinished) << what << " lane " << l;
    EXPECT_EQ(serial[7].status, SweepStatus::kError);
    EXPECT_EQ(serial[7].error, "getpe: PE index out of range");
    EXPECT_EQ(rep.lanes, values.size()) << what;
    EXPECT_EQ(rep.faulted, 1u) << what;
    EXPECT_EQ(rep.replayed, 0u) << what << ": a lane disagreed with its serial run";
    expect_identical(serial, batched, what);
  }
}

/// The lane-wide network over a value row, with the datapath's leaves.
template <net::ReduceOp Op>
std::vector<Word> value_lanes(const std::vector<Word>& row, const std::vector<std::uint8_t>& act,
                              std::uint32_t p, std::uint32_t l, unsigned w) {
  const Word* const r =
      net::reduce_lanes<Op>(p, l, w, net::value_leaves<Op>(row.data(), act.data(), w));
  return {r, r + l};
}

/// Every thread's part of leak_writer_src(): the top scalar and local
/// addresses stored to, every register and flag set.
std::string leak_writes() {
  std::string src;
  for (int r = 1; r < 8; ++r) src += "    li r" + std::to_string(r) + ", 77\n";
  for (int f = 1; f < 8; ++f) {
    src += "    sfset sf" + std::to_string(f) + "\n";
    src += "    pceqs pf" + std::to_string(f) + ", r0, p0\n";
  }
  for (int r = 1; r < 16; ++r) src += "    pmovi p" + std::to_string(r) + ", 9\n";
  return src + R"(    pmovi p14, 63
    psw p1, 0(p14)
    psw p1, 0(p0)
    sw r1, 255(r0)
    sw r1, 130(r0)
)";
}

/// Every thread's part of leak_reader_src(): folds each location the
/// writer touched into r11, reading only what it never wrote, and spins
/// a while when any was not zero.
std::string leak_reads(const std::string& tag) {
  std::string src = "    lw r11, 255(r0)\n    lw r12, 130(r0)\n    add r11, r11, r12\n";
  for (int r = 1; r < 8; ++r) src += "    add r11, r11, r" + std::to_string(r) + "\n";
  for (int f = 1; f < 8; ++f) {
    src += "    bfset sf" + std::to_string(f) + ", " + tag + "_leak\n";
    src += "    rcount r12, pf" + std::to_string(f) + "\n    add r11, r11, r12\n";
  }
  for (int r = 1; r < 16; ++r)
    src += "    rsumu r12, p" + std::to_string(r) + "\n    add r11, r11, r12\n";
  src += R"(    pmovi p2, 63
    plw p3, 0(p2)
    plw p4, 0(p0)
    rsumu r12, p3
    add r11, r11, r12
    rsumu r12, p4
    add r11, r11, r12
    beq r11, r0, TAG_done
TAG_leak:
    li r12, 40
TAG_spin:
    addi r12, r12, -1
    bne r12, r0, TAG_spin
TAG_done:
)";
  for (std::size_t at; (at = src.find("TAG")) != std::string::npos;) src.replace(at, 3, tag);
  return src;
}

TEST(LaneBatch, AReusedMachineLeaksNothingIntoTheNextBatch) {
  // One thread runs two batches of one config and lane count, so the
  // second reuses the first's machine. The first stores to high scalar
  // and local-memory addresses and sets registers and flags in two
  // threads; the second reads every one of them before writing it, and
  // would take a longer path on any non-zero. It must match its serial
  // run byte for byte.
  const std::string writer = "main:\n    la r8, worker\n    tspawn r9, r8\n" + leak_writes() +
                             "    tjoin r9\n    halt\nworker:\n" + leak_writes() + "    texit\n";
  const std::string reader = "main:\n    la r8, worker\n    tspawn r9, r8\n" +
                             leak_reads("m") + "    tjoin r9\n    halt\nworker:\n" +
                             leak_reads("w") + "    texit\n";
  const MachineConfig cfg = small_cfg();
  const auto writes = make_grid(cfg, writer, {1, 2, 3, 4});
  const auto reads = make_grid(cfg, reader, {5, 6, 7, 8});
  LaneBatchReport rep;
  const auto written = run_lane_batch(as_lanes(writes), &rep);
  EXPECT_EQ(rep.lanes, 4u);
  expect_identical(run_serial(writes), written, "writer");
  const auto read = run_lane_batch(as_lanes(reads), &rep);
  EXPECT_EQ(rep.lanes, 4u);
  EXPECT_EQ(rep.replayed, 0u);
  const auto serial = run_serial(reads);
  for (const SweepResult& r : serial) ASSERT_EQ(r.status, SweepStatus::kFinished) << r.error;
  expect_identical(serial, read, "reader after writer");
}

TEST(LaneWideNetwork, MatchesReferenceNetworkPerLane) {
  // Every operator, over random rows, masks (all on, all off, random) and
  // widths, at L in {1, 3, 8, 16}: lane k of the one-pass kernel equals the
  // reference network run on lane k's column alone.
  Rng rng(0x1A4E);
  for (const std::uint32_t l : {1u, 3u, 8u, 16u})
    for (const std::uint32_t p : {1u, 2u, 3u, 7u, 8u, 16u, 33u})
      for (const unsigned w : {1u, 8u, 16u, 32u})
        for (int iter = 0; iter < 6; ++iter) {
          const std::size_t n = std::size_t{p} * l;
          std::vector<Word> row(n);
          std::vector<std::uint8_t> act(n), flags(n);
          for (std::size_t i = 0; i < n; ++i) {
            // Full-width words, so truncation to w is exercised too;
            // half of them near the signed edges, where saturation lives.
            row[i] = rng.next_bool() ? static_cast<Word>(rng.next_u64())
                                     : signed_max_word(w) + static_cast<Word>(rng.next_in(-2, 2));
            act[i] = iter == 0 ? 1 : iter == 1 ? 0 : rng.next_bool();
            flags[i] = rng.next_bool();
          }
          auto column = [&](const auto& r, std::uint32_t lane) {
            std::vector<typename std::decay_t<decltype(r)>::value_type> c(p);
            for (std::uint32_t pe = 0; pe < p; ++pe) c[pe] = r[std::size_t{pe} * l + lane];
            return c;
          };
          const std::string where = "L=" + std::to_string(l) + " P=" + std::to_string(p) +
                                    " w=" + std::to_string(w) + " iter " + std::to_string(iter);
          for (std::uint8_t o = 0; o <= static_cast<std::uint8_t>(net::ReduceOp::kCountFlags); ++o) {
            const auto op = static_cast<net::ReduceOp>(o);
            const auto got = dispatch<net::ReduceOp::kCountFlags>(
                op, [&](auto c) { return value_lanes<c()>(row, act, p, l, w); });
            for (std::uint32_t lane = 0; lane < l; ++lane)
              ASSERT_EQ(got[lane], net::tree_reduce(op, column(row, lane), column(act, lane), w))
                  << where << " op " << int{o} << " lane " << lane;
          }
          // The flag trees and the resolver, with the datapath's leaves.
          const std::uint8_t* const a = act.data();
          const std::uint8_t* const f = flags.data();
          const Word* r = net::reduce_lanes<net::ReduceOp::kCountFlags>(
              p, l, w, [=](std::size_t i) { return static_cast<Word>((a[i] != 0) & (f[i] != 0)); });
          const std::vector<Word> count(r, r + l);
          r = net::reduce_lanes<net::ReduceOp::kCountFlags>(
              p, l, w, [=](std::size_t i) { return static_cast<Word>((a[i] != 0) & (f[i] == 0)); });
          const std::vector<Word> lacking(r, r + l);
          r = net::reduce_lanes<net::ReduceOp::kMinU>(p, l, 32, [=](std::size_t i) {
            return (a[i] != 0) & (f[i] != 0) ? static_cast<Word>(i) : ~Word{0};
          });
          const std::vector<Word> first(r, r + l);
          for (std::uint32_t lane = 0; lane < l; ++lane) {
            const auto fl = column(flags, lane), ac = column(act, lane);
            EXPECT_EQ(count[lane], net::flag_reduce(net::ReduceOp::kCountFlags, fl, ac)) << where;
            EXPECT_EQ(count[lane] != 0, net::flag_reduce(net::ReduceOp::kOr, fl, ac) != 0) << where;
            EXPECT_EQ(lacking[lane] == 0, net::flag_reduce(net::ReduceOp::kAnd, fl, ac) != 0) << where;
            const std::size_t want = net::resolve_first_index(fl, ac);
            EXPECT_EQ(first[lane], want < p ? static_cast<Word>(want * l + lane) : ~Word{0}) << where;
          }
        }
}

TEST(SweepRunnerBatch, GridMatchesSerialAndCountsBatches) {
  const auto jobs = make_grid(small_cfg(), uniform_src(),
                              {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  SweepRunner serial_runner(2);
  const auto serial = serial_runner.run(jobs);
  EXPECT_EQ(serial_runner.batch_stats().batch_flushes, 0u);

  SweepRunner batched_runner(2);
  batched_runner.set_batch_lanes(4);
  const auto batched = batched_runner.run(jobs);
  expect_identical(serial, batched, "runner grid");

  const SweepBatchStats bs = batched_runner.batch_stats();
  // 10 jobs at width 4 -> flushes of 4+4+2.
  EXPECT_EQ(bs.batch_flushes, 3u);
  EXPECT_EQ(bs.batched_jobs, 10u);
  EXPECT_EQ(bs.replayed_jobs, 0u);
  EXPECT_EQ(bs.occupancy[3], 2u);  // two flushes of 4 in [4,8)
  EXPECT_EQ(bs.occupancy[2], 1u);  // one flush of 2 in [2,4)
}

TEST(SweepRunnerBatch, PerJobWidthOverridesRunnerDefault) {
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 3, 4});
  for (auto& j : jobs) j.batch_lanes = 2;
  SweepRunner runner(1);  // runner default stays 1; jobs opt in
  const auto batched = runner.run(jobs);
  expect_identical(run_serial(jobs), batched, "per-job width");
  EXPECT_EQ(runner.batch_stats().batch_flushes, 2u);
}

TEST(SweepRunnerBatch, HeterogeneousGridSplitsByCompatibility) {
  // Two programs and one unbatchable job in one grid: groups form per
  // lane_batch_key, the rest run serially, results all match serial.
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 3});
  auto div = make_grid(small_cfg(), divergent_src(), {5, 5, 5});
  jobs.insert(jobs.end(), div.begin(), div.end());
  jobs.push_back(jobs[0]);
  jobs.back().checkpoint_on_stop = true;
  jobs.back().cancel = make_cancel_token();
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].seed = i;

  const auto serial = run_serial(jobs);
  SweepRunner runner(2);
  runner.set_batch_lanes(8);
  expect_identical(serial, runner.run(jobs), "heterogeneous");
  const SweepBatchStats bs = runner.batch_stats();
  EXPECT_EQ(bs.batch_flushes, 2u);  // one per program image
  EXPECT_EQ(bs.batched_jobs, 6u);
}

TEST(SweepRunnerBatch, ComposesWithResultCache) {
  const auto jobs = make_grid(small_cfg(), uniform_src(),
                              {1, 2, 3, 4, 5, 6, 7, 8});
  const auto serial = run_serial(jobs);

  auto cache = std::make_shared<SweepResultCache>(1 << 20);
  SweepRunner runner(2);
  runner.set_cache(cache);
  runner.set_batch_lanes(4);

  // Cold run: every lane simulates once, and every lane's result is
  // inserted individually.
  expect_identical(serial, runner.run(jobs), "cold batched run");
  EXPECT_EQ(cache->stats().entries, 8u);
  EXPECT_EQ(runner.batch_stats().batched_jobs, 8u);

  // Warm run: hits peel off before batch formation — no new flushes.
  expect_identical(serial, runner.run(jobs), "warm run");
  const SweepBatchStats bs = runner.batch_stats();
  EXPECT_EQ(bs.batched_jobs, 8u) << "cache hits must not be batched";
  EXPECT_GE(cache->stats().hits, 8u);

  // Mixed run: 4 cached jobs + 4 new ones; only the misses batch.
  auto mixed = make_grid(small_cfg(), uniform_src(),
                         {1, 2, 3, 4, 101, 102, 103, 104});
  const auto mixed_serial = run_serial(mixed);
  expect_identical(mixed_serial, runner.run(mixed), "mixed run");
  EXPECT_EQ(runner.batch_stats().batched_jobs, 12u);
}

TEST(SweepRunnerBatch, DuplicateGridPointsAdoptBatchedResults) {
  auto jobs = make_grid(small_cfg(), uniform_src(), {1, 2, 1, 2, 1, 2});
  auto cache = std::make_shared<SweepResultCache>(1 << 20);
  SweepRunner runner(2);
  runner.set_cache(cache);
  runner.set_batch_lanes(4);
  const auto batched = runner.run(jobs);
  expect_identical(run_serial(jobs), batched, "dups");
  // Two unique keys -> one flush of two lanes; four twins adopt.
  EXPECT_EQ(runner.batch_stats().batched_jobs, 2u);
}

TEST(SweepRunnerBatch, BatchStatsJsonShape) {
  SweepBatchStats s;
  s.batch_flushes = 1;
  s.batched_jobs = 4;
  s.occupancy[3] = 1;
  metrics::Registry r(metrics::Format::kJson, "");
  describe(r, s);
  const std::string j = r.str();
  EXPECT_NE(j.find("\"batch_flushes\":1"), std::string::npos);
  EXPECT_NE(j.find("\"batched_jobs\":4"), std::string::npos);
  EXPECT_NE(j.find("\"replayed_jobs\":0"), std::string::npos);
  EXPECT_NE(j.find("\"faulted_lanes\":0"), std::string::npos);
  EXPECT_NE(j.find("\"occupancy_log2\":[0,0,0,1,0"), std::string::npos);
}

}  // namespace
}  // namespace masc
