// Machine configuration: every architectural parameter of the simulated
// Multithreaded ASC Processor lives here, so one simulator models the
// 2007 prototype, its prior-generation baselines, and the paper's §9
// scaling studies.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace masc {

/// Multiplier implementation options (paper §6.2, "Multiplier").
enum class MultiplierKind : std::uint8_t {
  kNone,       ///< No multiplier; MUL/PMUL are illegal instructions.
  kSequential, ///< Iterative unit: one op at a time, `width` cycles,
               ///< structural hazard across threads.
  kPipelined,  ///< Hard-block pipelined multiplier: 1 op/cycle, 2-cycle
               ///< latency, no structural hazards.
};

/// Divider implementation options (paper §6.2, "Divider" — sequential only).
enum class DividerKind : std::uint8_t {
  kNone,
  kSequential, ///< `width`-cycle iterative divider, shared across threads.
};

/// Multithreading discipline (paper §5 taxonomy). The prototype uses
/// fine-grain multithreading; the other two policies exist so §5's
/// argument — reduction stalls are too short and frequent for
/// coarse-grain switching, while SMT's extra issue ports are unnecessary
/// at this pipeline width — can be measured rather than asserted.
enum class ThreadSchedPolicy : std::uint8_t {
  kFineGrain,   ///< switch threads every cycle, zero-cost (the prototype)
  kCoarseGrain, ///< run one thread until a long stall, then pay a
                ///< pipeline-refill penalty to switch
  kSmt,         ///< issue up to `issue_width` instructions from distinct
                ///< threads each cycle (idealized ports)
};

/// Maximum/minimum reduction unit options (paper §6.4): the previous ASC
/// Processors used the bit-serial Falkoff algorithm (one bit of the word
/// per cycle, one operation at a time); the multithreaded prototype
/// replaced it with a pipelined comparator tree precisely "to avoid
/// stalls in the event that multiple threads attempt to perform a
/// maximum or minimum operation at the same time."
enum class MaxMinUnitKind : std::uint8_t {
  kPipelinedTree, ///< lg p latency, 1 op/cycle initiation (the prototype)
  kFalkoff,       ///< word-width latency, unshareable (the predecessors)
};

/// Register-file implementation options (paper §6.2 discusses the
/// tradeoff; §9 proposes exploring "alternative PE organizations that
/// require fewer RAM blocks and take advantage of unused logic").
enum class RegFileImpl : std::uint8_t {
  kBlockRam, ///< replicated M4K blocks (the prototype)
  kLutRam,   ///< distributed LUT RAM: zero blocks, heavy LE cost at high
             ///< thread counts (why the paper ruled it out at 16 threads)
};

/// Flag-register-file implementation options (paper §6.2: block RAM
/// shared between groups of PEs, vs plain flip-flops).
enum class FlagFileImpl : std::uint8_t {
  kSharedBlockRam, ///< one replica set per group of PEs (the prototype)
  kFlipFlops,      ///< per-PE registers: zero blocks, more LEs
};

/// Full architectural parameter set.
struct MachineConfig {
  // --- Array geometry -----------------------------------------------------
  std::uint32_t num_pes = 16;      ///< PE array size p.
  unsigned word_width = 8;         ///< Data word width in bits (8/16/32).

  // --- Multithreading -----------------------------------------------------
  std::uint32_t num_threads = 16;  ///< Hardware thread contexts.
  bool multithreading = true;      ///< false = single-thread baseline [7]:
                                   ///< only thread 0 exists.
  ThreadSchedPolicy sched_policy = ThreadSchedPolicy::kFineGrain;
  /// SMT only: instructions issued per cycle (from distinct threads).
  std::uint32_t issue_width = 1;
  /// Coarse-grain only: cycles to flush/refill on a thread switch
  /// (paper §5: "It takes many cycles to perform a thread switch").
  std::uint32_t switch_penalty = 8;

  // --- Register / memory resources (per thread where noted) ---------------
  std::uint32_t num_scalar_regs = 16;   ///< Scalar GPRs per thread (r0 = 0).
  std::uint32_t num_parallel_regs = 16; ///< Parallel GPRs per thread per PE.
  std::uint32_t num_flag_regs = 8;      ///< 1-bit flag regs per thread
                                        ///< (scalar and parallel spaces;
                                        ///< flag 0 reads as 1).
  std::uint32_t local_mem_bytes = 1024; ///< PE local memory (thread-shared).
  std::uint32_t scalar_mem_bytes = 65536; ///< Control-unit data memory.
  std::uint32_t instr_mem_words = 16384;  ///< Instruction memory capacity.

  // --- Broadcast / reduction networks (paper §6.4) -------------------------
  std::uint32_t broadcast_arity = 2;  ///< k of the k-ary broadcast tree.
  bool pipelined_network = true;      ///< false = non-pipelined baseline [6]:
                                      ///< zero-latency combinational network
                                      ///< whose cost appears in the clock
                                      ///< model instead of in cycles.

  /// false models the original (pre-[7]) non-pipelined ASC Processor:
  /// instructions execute serially, one every 5 cycles, with no overlap.
  bool pipelined_execution = true;

  // --- Functional units -----------------------------------------------------
  MultiplierKind multiplier = MultiplierKind::kPipelined;
  DividerKind divider = DividerKind::kSequential;
  MaxMinUnitKind maxmin_unit = MaxMinUnitKind::kPipelinedTree;

  // --- PE organization (§9 design space; resource model only) ----------------
  RegFileImpl regfile_impl = RegFileImpl::kBlockRam;
  FlagFileImpl flagfile_impl = FlagFileImpl::kSharedBlockRam;

  // --- Derived latencies ----------------------------------------------------
  /// Broadcast network latency b in cycles (0 when non-pipelined).
  unsigned broadcast_latency() const;
  /// Reduction network latency r in cycles (0 when non-pipelined).
  unsigned reduction_latency() const;
  /// Latency of the sequential multiplier/divider in cycles.
  unsigned sequential_mul_cycles() const { return word_width; }
  unsigned sequential_div_cycles() const { return word_width; }

  /// Number of usable hardware threads (1 when multithreading is off).
  std::uint32_t effective_threads() const {
    return multithreading ? num_threads : 1;
  }

  /// Validate every field; throws ConfigError with a precise message.
  void validate() const;

  /// Short human-readable identifier, e.g. "p16.t16.w8.k2".
  std::string name() const;
};

}  // namespace masc
