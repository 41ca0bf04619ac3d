#include "sim/exec.hpp"

#include <span>

#include "common/bits.hpp"
#include "sim/datapath.hpp"
#include "sim/network/trees.hpp"

namespace masc {

namespace detail {

Word alu_op(AluFunct f, Word a, Word b, unsigned width) {
  const Word mask = low_mask(width);
  a &= mask;
  b &= mask;
  // Shift amounts use the low bits of b, modulo the word width.
  const unsigned sh = static_cast<unsigned>(b) % width;
  switch (f) {
    case AluFunct::kAdd: return (a + b) & mask;
    case AluFunct::kSub: return (a - b) & mask;
    case AluFunct::kAnd: return a & b;
    case AluFunct::kOr: return a | b;
    case AluFunct::kXor: return a ^ b;
    case AluFunct::kNor: return ~(a | b) & mask;
    case AluFunct::kSll: return (a << sh) & mask;
    case AluFunct::kSrl: return a >> sh;
    case AluFunct::kSra:
      return static_cast<Word>(sign_extend(a, width) >> sh) & mask;
    case AluFunct::kSlt:
      return sign_extend(a, width) < sign_extend(b, width) ? 1 : 0;
    case AluFunct::kSltu: return a < b ? 1 : 0;
    case AluFunct::kMul:
      return static_cast<Word>(static_cast<DWord>(a) * b) & mask;
    case AluFunct::kDiv:
      // Division by zero yields all-ones (no traps in this machine).
      if (b == 0) return mask;
      return static_cast<Word>(
                 sign_extend(a, width) / sign_extend(b, width)) & mask;
    case AluFunct::kRem:
      if (b == 0) return a;
      return static_cast<Word>(
                 sign_extend(a, width) % sign_extend(b, width)) & mask;
    case AluFunct::kDivU:
      if (b == 0) return mask;
      return a / b;
    case AluFunct::kRemU:
      if (b == 0) return a;
      return a % b;
    case AluFunct::kMov: return a;
    case AluFunct::kCount: break;
  }
  return 0;
}

bool cmp_op(CmpFunct f, Word a, Word b, unsigned width) {
  const SWord sa = sign_extend(a, width), sb = sign_extend(b, width);
  const Word ua = truncate(a, width), ub = truncate(b, width);
  switch (f) {
    case CmpFunct::kEq: return ua == ub;
    case CmpFunct::kNe: return ua != ub;
    case CmpFunct::kLt: return sa < sb;
    case CmpFunct::kLe: return sa <= sb;
    case CmpFunct::kLtu: return ua < ub;
    case CmpFunct::kLeu: return ua <= ub;
    case CmpFunct::kGt: return sa > sb;
    case CmpFunct::kGe: return sa >= sb;
    case CmpFunct::kGtu: return ua > ub;
    case CmpFunct::kGeu: return ua >= ub;
    case CmpFunct::kCount: break;
  }
  return false;
}

bool flag_op(FlagFunct f, bool a, bool b) {
  switch (f) {
    case FlagFunct::kAnd: return a && b;
    case FlagFunct::kOr: return a || b;
    case FlagFunct::kXor: return a != b;
    case FlagFunct::kAndNot: return a && !b;
    case FlagFunct::kNot: return !a;
    case FlagFunct::kMov: return a;
    case FlagFunct::kSet: return true;
    case FlagFunct::kClr: return false;
    case FlagFunct::kCount: break;
  }
  return false;
}

net::ReduceOp reduce_op_of(RedFunct f) {
  switch (f) {
    case RedFunct::kAnd: return net::ReduceOp::kAnd;
    case RedFunct::kOr: return net::ReduceOp::kOr;
    case RedFunct::kMax: return net::ReduceOp::kMax;
    case RedFunct::kMin: return net::ReduceOp::kMin;
    case RedFunct::kMaxU: return net::ReduceOp::kMaxU;
    case RedFunct::kMinU: return net::ReduceOp::kMinU;
    case RedFunct::kSum: return net::ReduceOp::kSum;
    case RedFunct::kSumU: return net::ReduceOp::kSumU;
    default: return net::ReduceOp::kCountFlags;
  }
}

}  // namespace detail

namespace {

/// One job's ArchState as the lane-state view of sim/datapath.hpp: a
/// batch of one lane, fixed at compile time, so every lane loop folds to
/// the serial row loop, control values are returned as they are, and a
/// data fault throws.
class SerialLanes {
 public:
  explicit SerialLanes(ArchState& st) : st_(st) {}

  const MachineConfig& config() const { return st_.config(); }
  static constexpr std::uint32_t lanes() { return 1; }
  template <typename F>
  void for_live(F&& f) { f(0u); }
  template <typename F>
  Word control(F&& f) { return f(0u); }
  [[noreturn]] void fault(std::uint32_t, const char* msg) {
    throw SimulationError(msg);
  }

  Word sreg(std::uint32_t, ThreadId t, RegNum r) const { return st_.sreg(t, r); }
  void set_sreg(std::uint32_t, ThreadId t, RegNum r, Word v) { st_.set_sreg(t, r, v); }
  bool sflag(std::uint32_t, ThreadId t, RegNum f) const { return st_.sflag(t, f); }
  void set_sflag(std::uint32_t, ThreadId t, RegNum f, bool v) {
    st_.set_sflag(t, f, v);
  }
  Word preg(std::uint32_t, ThreadId t, RegNum r, PEIndex pe) const {
    return st_.preg(t, r, pe);
  }
  /// The broadcast operand, held by value so row stores cannot alias it.
  struct Broadcast {
    Word v;
    Word operator[](std::size_t) const { return v; }
  };
  Broadcast broadcast(ThreadId t, RegNum r) const { return {st_.sreg(t, r)}; }

  Word* preg_row(ThreadId t, RegNum r) { return st_.preg_row(t, r); }
  std::uint8_t* pflag_row(ThreadId t, RegNum f) { return st_.pflag_row(t, f); }
  const Word* zero_row() const { return st_.zero_row(); }
  const std::uint8_t* ones_row() const { return st_.ones_row(); }
  template <typename T>
  std::span<const T> column(const T* row, std::uint32_t) const {
    return {row, st_.config().num_pes};
  }
  std::span<const std::uint8_t> act_column(const std::uint8_t* row,
                                           std::uint32_t lane) const {
    return column(row, lane);
  }

  Word& local_mem(std::uint32_t, PEIndex pe, Addr a) {
    return st_.local_mem_row(pe)[a];
  }
  Word scalar_mem(std::uint32_t, Addr a) const { return st_.scalar_mem(a); }
  void set_scalar_mem(std::uint32_t, Addr a, Word v) { st_.set_scalar_mem(a, v); }

  ThreadContext& thread(ThreadId t) { return st_.thread(t); }
  std::uint32_t num_threads() const { return st_.num_threads(); }
  ThreadId allocate_thread(Addr entry) { return st_.allocate_thread(entry); }

 private:
  ArchState& st_;
};

}  // namespace

ExecResult execute(ArchState& st, ThreadId t, Addr pc, const Instruction& in) {
  SerialLanes lanes(st);
  return datapath::execute(lanes, t, pc, in);
}

}  // namespace masc
