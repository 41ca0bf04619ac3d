// Functional execution of decoded instructions against ArchState.
//
// execute() runs the one ISA datapath (sim/datapath.hpp) over a single
// job's state. Both simulators (cycle-accurate and functional) call it,
// and the lane batch runs the same datapath over N jobs; only *when*
// effects are applied differs (the cycle simulator applies them at issue
// and models visibility timing separately through the scoreboard).
#pragma once

#include <cstdint>

#include "common/bits.hpp"
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

// The element semantics of every ALU, comparison and flag-logic funct,
// written once as compile-time kernels: the datapath (sim/datapath.hpp)
// dispatches the funct once per instruction (common/dispatch.hpp) and
// inlines the kernel in its row and lane loops.

/// ALU semantics at a given word width (shared by scalar and parallel
/// datapaths; the PE ALUs are identical to the scalar one, paper §6.3:
/// "organization nearly identical to the PEs").
template <AluFunct F>
constexpr Word alu(Word a, Word b, unsigned width) {
  using enum AluFunct;
  const Word mask = low_mask(width);
  a &= mask;
  b &= mask;
  // Shift amounts use the low bits of b, modulo the word width.
  const auto sh = [&] { return static_cast<unsigned>(b) % width; };
  // Signed quotients are formed in 64 bits, so the one overflowing case
  // (most negative / -1 at width 32) wraps instead of trapping the host.
  const auto sa = [&] { return SDWord{sign_extend(a, width)}; };
  const auto sb = [&] { return SDWord{sign_extend(b, width)}; };
  if constexpr (F == kAdd) return (a + b) & mask;
  else if constexpr (F == kSub) return (a - b) & mask;
  else if constexpr (F == kAnd) return a & b;
  else if constexpr (F == kOr) return a | b;
  else if constexpr (F == kXor) return a ^ b;
  else if constexpr (F == kNor) return ~(a | b) & mask;
  else if constexpr (F == kSll) return (a << sh()) & mask;
  else if constexpr (F == kSrl) return a >> sh();
  else if constexpr (F == kSra)
    return static_cast<Word>(sign_extend(a, width) >> sh()) & mask;
  else if constexpr (F == kSlt) return sa() < sb() ? 1 : 0;
  else if constexpr (F == kSltu) return a < b ? 1 : 0;
  else if constexpr (F == kMul)
    return static_cast<Word>(static_cast<DWord>(a) * b) & mask;
  // Division by zero yields all-ones, remainder by zero the dividend (no
  // traps in this machine).
  else if constexpr (F == kDiv)
    return b == 0 ? mask : static_cast<Word>(sa() / sb()) & mask;
  else if constexpr (F == kRem)
    return b == 0 ? a : static_cast<Word>(sa() % sb()) & mask;
  else if constexpr (F == kDivU) return b == 0 ? mask : a / b;
  else if constexpr (F == kRemU) return b == 0 ? a : a % b;
  else if constexpr (F == kMov) return a;
  else return 0;
}

/// Comparison semantics producing a flag bit.
template <CmpFunct F>
constexpr bool cmp(Word a, Word b, unsigned width) {
  using enum CmpFunct;
  const SWord sa = sign_extend(a, width), sb = sign_extend(b, width);
  const Word ua = truncate(a, width), ub = truncate(b, width);
  if constexpr (F == kEq) return ua == ub;
  else if constexpr (F == kNe) return ua != ub;
  else if constexpr (F == kLt) return sa < sb;
  else if constexpr (F == kLe) return sa <= sb;
  else if constexpr (F == kLtu) return ua < ub;
  else if constexpr (F == kLeu) return ua <= ub;
  else if constexpr (F == kGt) return sa > sb;
  else if constexpr (F == kGe) return sa >= sb;
  else if constexpr (F == kGtu) return ua > ub;
  else if constexpr (F == kGeu) return ua >= ub;
  else return false;
}

/// Flag-logic semantics.
template <FlagFunct F>
constexpr bool flag(bool a, bool b) {
  using enum FlagFunct;
  if constexpr (F == kAnd) return a && b;
  else if constexpr (F == kOr) return a || b;
  else if constexpr (F == kXor) return a != b;
  else if constexpr (F == kAndNot) return a && !b;
  else if constexpr (F == kNot) return !a;
  else if constexpr (F == kMov) return a;
  else if constexpr (F == kSet) return true;
  else return false;
}

/// The reduction-network operator a value reduction (RED funct) uses.
net::ReduceOp reduce_op_of(RedFunct f);

}  // namespace detail

}  // namespace masc
