// Functional execution of decoded instructions against ArchState.
//
// Both simulators (cycle-accurate and functional) share these semantics;
// only *when* effects are applied differs (the cycle simulator applies
// them at issue and models visibility timing separately through the
// scoreboard).
#pragma once

#include <cstdint>

#include "isa/instruction.hpp"
#include "sim/arch_state.hpp"

namespace masc {

namespace net {
enum class ReduceOp : std::uint8_t;  // sim/network/trees.hpp
}  // namespace net

/// Control-flow / thread-lifecycle outcome of executing one instruction.
struct ExecResult {
  Addr next_pc = 0;          ///< PC the executing thread continues at
  bool taken_branch = false; ///< any control transfer off the fall-through
  bool halt = false;         ///< HALT executed: stop the whole machine
  bool exited = false;       ///< TEXIT: this thread's context is now free
  bool blocked_join = false; ///< TJOIN on a live thread: caller must block
  ThreadId join_target = 0;  ///< valid when blocked_join
  ThreadId spawned = ArchState::kNoThread;  ///< valid after TSPAWN success
};

/// Execute one instruction for thread `t` at PC `pc`. Applies all register,
/// flag, and memory effects to `st` and returns the control outcome.
/// Throws SimulationError for illegal runtime actions.
ExecResult execute(ArchState& st, ThreadId t, Addr pc, const Instruction& in);

namespace detail {

/// Scalar ALU semantics at a given word width (shared by scalar and
/// parallel datapaths; the PE ALUs are identical to the scalar one,
/// paper §6.3: "organization nearly identical to the PEs").
Word alu_op(AluFunct f, Word a, Word b, unsigned width);

/// Comparison semantics producing a flag bit.
bool cmp_op(CmpFunct f, Word a, Word b, unsigned width);

/// Flag-logic semantics.
bool flag_op(FlagFunct f, bool a, bool b);

/// The reduction-network operator a value reduction (RED funct) uses.
net::ReduceOp reduce_op_of(RedFunct f);

}  // namespace detail

}  // namespace masc
