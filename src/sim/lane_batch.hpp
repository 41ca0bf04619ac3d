// SIMD-over-jobs lane batching (docs/PERF.md "Lane batching").
//
// Sweeps and served traffic are dominated by many near-identical jobs:
// same program, same config, varying scalar-memory data. This engine runs
// N such jobs in *lockstep* as lanes of one batched machine: one control
// pass (sim/pipeline.hpp) per cycle serves all lanes, and the one ISA
// datapath (sim/datapath.hpp) runs each row loop over P PEs x N lanes,
// the job index innermost — the paper's wide-word SIMD trick lifted one
// level, from PEs to jobs.
//
// Why one control pass is legal: the simulator's entire control and
// timing state (thread table, scoreboard, stall accounting, Stats) is a
// function of the instruction sequence plus a handful of data values
// that feed control — branch decisions, BFSET/BFCLR flags, JR targets,
// TSPAWN entry PCs, TJOIN/TPUT/TGET thread ids. Those "control taps"
// are compared across live lanes before they are consumed: while they
// agree, all lanes share one control state bit-identical to each lane's
// serial run. When a tap diverges, the minority lanes are ejected and
// replayed serially from cycle 0 (trivially bit-identical); the majority
// keeps the shared control state untouched.
//
// Lanes that finish, fault, cancel, or pass their deadline are masked
// out (the associative idiom the simulator itself models) and their
// SweepResult/Stats are bit-identical to a serial run — tests and
// BM_LaneBatch gate on that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "sim/sweep.hpp"

namespace masc {

/// True when `job` may run as a lane of a batched execution. Fabric
/// jobs, resumed jobs, jobs that emit checkpoints, and any run under an
/// installed fault injector keep the serial path: their semantics are
/// defined against a single Machine's save_state()/chunk stream, which
/// a batched machine does not reproduce.
bool lane_batchable(const SweepJob& job);

/// Batch-compatibility key: two batchable jobs may share a batch iff
/// their keys are equal. Hashes everything that feeds sweep_cache_key()
/// identity EXCEPT the declared lane dimension — program.data, the
/// per-lane scalar-memory image (and label/seed, which are metadata).
/// Like sweep_cache_key, SweepJob::batch_lanes is excluded: it is a host
/// knob with bit-identical results.
Hash128 lane_batch_key(const SweepJob& job);

/// One lane of a batch: the job plus its index in the caller's job
/// vector (echoed into SweepResult::index).
struct LaneJob {
  const SweepJob* job = nullptr;
  std::size_t index = 0;
};

/// What happened inside one run_lane_batch() call, for the batch
/// observability counters (SweepRunner::batch_stats, masc-served
/// /stats). Sizeof-pinned by lane_batch_test.cpp so a new field cannot
/// be added without deciding how it aggregates.
struct LaneBatchReport {
  std::uint32_t lanes = 0;     ///< lanes that entered lockstep execution
  std::uint32_t faulted = 0;   ///< lanes stopped by a per-lane data fault
  std::uint32_t replayed = 0;  ///< lanes ejected to a serial from-zero replay
                               ///< (control divergence or a non-prevalidated
                               ///< throw)
};

/// Execute `lanes` in lockstep and return one SweepResult per lane, in
/// lane order, each bit-identical (status, error text, Stats) to
/// run_sweep_job() on the same job. Callers must pass jobs that are
/// lane_batchable() and share one lane_batch_key(); incompatible lanes
/// are detected and run serially (counted in report->replayed, never
/// wrong — just not batched). host_seconds charges each lane an equal
/// share of the batch's wall time.
std::vector<SweepResult> run_lane_batch(const std::vector<LaneJob>& lanes,
                                        LaneBatchReport* report = nullptr);

}  // namespace masc
