// Shared helpers for the benchmark harnesses: canned workload programs
// and table formatting.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace masc::bench {

/// A reduction-dense workload: every thread runs `iters` iterations of
/// {reduction -> immediate scalar consume}, the worst case for the
/// pipelined networks and the best case for multithreading. Total work
/// is split evenly across however many hardware threads exist, so all
/// configurations do the same number of reductions.
inline std::string reduction_chain_program(unsigned total_iters) {
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

/// A mixed associative workload: per iteration, a search (compare +
/// count) plus a masked arithmetic update — roughly one reduction per
/// four parallel/scalar instructions.
inline std::string mixed_asc_program(unsigned total_iters) {
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
    pindex p1
    pmov p2, p1
    li r1, 0
loop:
    pcgts pf1, r1, p2     # search: value < i
    rcount r3, pf1        # count responders
    add r4, r4, r3
    paddi p2, p2, 1 ?pf1  # masked update
    padds p3, r3, p2      # broadcast-scalar arithmetic
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}


/// Run a program on a configuration; throws on timeout.
inline Stats run_stats(const MachineConfig& cfg, const std::string& src,
                       Cycle max_cycles = 100'000'000) {
  Machine m(cfg);
  m.load(assemble(src));
  if (!m.run(max_cycles)) throw SimulationError("benchmark workload timed out");
  return m.stats();
}

/// Build one sweep job for a (config, source) pair.
inline SweepJob make_job(const MachineConfig& cfg, const std::string& src,
                         Cycle max_cycles = 100'000'000) {
  SweepJob job;
  job.cfg = cfg;
  job.program = assemble(src);
  job.label = cfg.name();
  job.max_cycles = max_cycles;
  return job;
}

/// Run a grid of independent jobs across all host cores. Results come
/// back in submission order (the SweepRunner's determinism guarantee),
/// so callers index them by the same loop structure that built the grid.
/// Throws on the first job that timed out or errored, like run_stats.
inline std::vector<Stats> run_sweep(const std::vector<SweepJob>& jobs,
                                    unsigned workers = 0) {
  const auto results = SweepRunner(workers).run(jobs);
  std::vector<Stats> stats;
  stats.reserve(results.size());
  for (const auto& r : results) {
    if (!r.error.empty())
      throw SimulationError("sweep job " + r.label + " failed: " + r.error);
    if (!r.finished)
      throw SimulationError("sweep job " + r.label + " timed out");
    stats.push_back(r.stats);
  }
  return stats;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n======================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper artifact: %s\n", paper_ref.c_str());
  std::printf("======================================================================\n");
}

}  // namespace masc::bench
