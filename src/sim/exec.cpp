#include "sim/exec.hpp"

#include "common/bits.hpp"
#include "sim/datapath.hpp"
#include "sim/network/trees.hpp"

namespace masc {

namespace detail {

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
  /// A scalar register of the one lane, read where it is indexed, as
  /// sreg() would be.
  struct SregLanes {
    const ArchState* st;
    ThreadId t;
    RegNum r;
    Word operator[](std::size_t) const { return st->sreg(t, r); }
  };
  SregLanes sreg_lanes(ThreadId t, RegNum r) const { return {&st_, t, r}; }
  template <typename V>
  void set_sreg_lanes(ThreadId t, RegNum r, V value) {
    st_.set_sreg(t, r, value(0u));
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

  Word local_mem(std::uint32_t, PEIndex pe, Addr a) { return st_.local_mem_row(pe)[a]; }
  void set_local_mem(std::uint32_t, PEIndex pe, Addr a, Word v) {
    st_.local_mem_row(pe)[a] = v;
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
