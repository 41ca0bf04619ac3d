#include "sim/lane_batch.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "sim/arch_state.hpp"
#include "sim/exec.hpp"
#include "sim/network/trees.hpp"
#include "sim/pipeline.hpp"

namespace masc {

namespace {

using detail::alu_op;
using detail::cmp_op;
using detail::flag_op;
using detail::reduce_op_of;

/// Hot-path overload of masc::expect. The common one takes a
/// `const std::string&`, so every call materializes (and frees) a
/// std::string temporary even when the condition holds — fine once per
/// serial instruction, pathological at once per lane per access. A
/// string-literal argument binds here instead and only pays on throw.
inline void expect(bool cond, const char* what) {
  if (!cond) throw SimulationError(what);
}

/// Thrown out of a batched step when the last live lane has been ejected
/// mid-instruction: there is no lane left whose control state the shared
/// pass represents, so the batch loop unwinds. Never escapes this file.
struct AllLanesDead {};

/// How a lane left lockstep execution.
enum class LaneStop : std::uint8_t {
  kRunning,  ///< still in lockstep
  kDone,     ///< result recorded by the driver (finish/cancel/deadline)
  kFault,    ///< per-lane data fault; result is {kError, fault_msg}
  kReplay,   ///< ejected; must be re-run serially from cycle 0
};

/// N SweepJobs in lockstep: the lane datapath under the one control
/// pass (sim/pipeline.hpp). Control and timing state is SHARED — one
/// thread table, one scoreboard, one Stats — because it is a function of
/// the instruction sequence plus the tapped control values, which are
/// verified uniform across live lanes before every use (tap()). Data
/// state is per-lane, laid out with the lane index innermost so the data
/// row loops stride unit across lanes (job-index as the innermost SoA
/// dimension). A snapshot of the shared Stats at the cycle a lane stops
/// is bit-identical to that lane's own serial Stats.
class BatchMachine : public Pipeline<BatchMachine> {
 public:
  BatchMachine(const MachineConfig& cfg, std::uint32_t lanes)
      : Pipeline(cfg), L_(lanes), P_(cfg.num_pes), W_(cfg.word_width) {
    const std::size_t T = cfg_.effective_threads();
    live_.assign(L_, 1);
    live_count_ = L_;
    stop_.assign(L_, LaneStop::kRunning);
    fault_msg_.assign(L_, nullptr);
    threads_.assign(T, ThreadContext{});
    instr_mem_.assign(cfg_.instr_mem_words, 0);
    scalar_mem_.assign(std::size_t{cfg_.scalar_mem_bytes} * L_, 0);
    sregs_.assign(T * cfg_.num_scalar_regs * L_, 0);
    sflags_.assign(T * cfg_.num_flag_regs * L_, 0);
    pregs_.assign(T * cfg_.num_parallel_regs * P_ * L_, 0);
    pflags_.assign(T * cfg_.num_flag_regs * P_ * L_, 0);
    local_mem_.assign(std::size_t{P_} * cfg_.local_mem_bytes * L_, 0);
    zero_pl_.assign(std::size_t{P_} * L_, 0);
    ones_pl_.assign(std::size_t{P_} * L_, 1);
    vals_p_.resize(P_);
    act_p_.resize(P_);
    flags_p_.resize(P_);
    svals_.resize(L_);
    taps_.resize(L_);
  }

  /// Load the shared program image (text + entry; identical across
  /// lanes) and each lane's data segment. A lane whose data does not fit
  /// scalar memory faults exactly as its serial load() would.
  void load(const Program& shared, const std::vector<const Program*>& lane_data) {
    expect(shared.text.size() <= instr_mem_.size(),
           "program text exceeds instruction memory");
    std::copy(shared.text.begin(), shared.text.end(), instr_mem_.begin());
    for (std::uint32_t lane = 0; lane < L_; ++lane) {
      const Program& p = *lane_data[lane];
      if (p.data.size() > cfg_.scalar_mem_bytes) {
        eject_fault(lane, "program data exceeds scalar memory");
        continue;
      }
      for (std::size_t a = 0; a < p.data.size(); ++a)
        scalar_mem_[a * L_ + lane] = p.data[a];
    }
    threads_[0].state = ThreadState::kActive;
    threads_[0].pc = shared.entry;
    load_text(shared.text);
  }

  std::uint32_t live_count() const { return live_count_; }
  bool lane_live(std::uint32_t lane) const { return live_[lane] != 0; }
  LaneStop stop(std::uint32_t lane) const { return stop_[lane]; }
  const char* fault_msg(std::uint32_t lane) const { return fault_msg_[lane]; }

  /// Driver-side masking: the lane's result has been recorded (finish,
  /// cancel, deadline); drop it from lockstep execution. The shared
  /// control state is unaffected — it never depended on this lane's data.
  void deactivate(std::uint32_t lane) {
    if (!live_[lane]) return;
    live_[lane] = 0;
    --live_count_;
    stop_[lane] = LaneStop::kDone;
  }

  /// A non-prevalidated throw escaped a batched step: every remaining
  /// live lane replays serially (always correct — a serial replay is the
  /// definition of the contract).
  void eject_all_live() {
    for (std::uint32_t lane = 0; lane < L_; ++lane)
      if (live_[lane]) {
        live_[lane] = 0;
        stop_[lane] = LaneStop::kReplay;
      }
    live_count_ = 0;
  }

 private:
  friend class Pipeline<BatchMachine>;

  // --- Lane ejection ---------------------------------------------------------

  void eject_fault(std::uint32_t lane, const char* msg) {
    live_[lane] = 0;
    --live_count_;
    stop_[lane] = LaneStop::kFault;
    fault_msg_[lane] = msg;
  }

  void eject_replay(std::uint32_t lane) {
    live_[lane] = 0;
    --live_count_;
    stop_[lane] = LaneStop::kReplay;
  }

  template <typename F>
  void for_live(F&& f) {
    for (std::uint32_t lane = 0; lane < L_; ++lane)
      if (live_[lane]) f(lane);
  }

  /// Resolve a control tap: taps_[lane] holds each live lane's value.
  /// Uniform values return immediately (the hot path). On divergence the
  /// largest partition survives (ties break toward the lowest live
  /// lane); the rest are ejected to serial replay, leaving the shared
  /// control state exactly the survivors' serial control state.
  Word tap() {
    std::uint32_t first = L_;
    bool uniform = true;
    for (std::uint32_t lane = 0; lane < L_; ++lane) {
      if (!live_[lane]) continue;
      if (first == L_) {
        first = lane;
      } else if (taps_[lane] != taps_[first]) {
        uniform = false;
        break;
      }
    }
    if (uniform) return taps_[first];
    Word best = taps_[first];
    std::uint32_t best_count = 0;
    for (std::uint32_t i = 0; i < L_; ++i) {
      if (!live_[i]) continue;
      std::uint32_t count = 0;
      for (std::uint32_t j = 0; j < L_; ++j)
        if (live_[j] && taps_[j] == taps_[i]) ++count;
      if (count > best_count) {
        best_count = count;
        best = taps_[i];
      }
    }
    for (std::uint32_t lane = 0; lane < L_; ++lane)
      if (live_[lane] && taps_[lane] != best) eject_replay(lane);
    return best;
  }

  /// Per-lane read of a scalar register, tapped to a single control value
  /// (datapath hook: the pipeline reads the TMOV target through it).
  Word control_sreg(ThreadId t, RegNum r) {
    for_live([&](std::uint32_t lane) { taps_[lane] = sreg(lane, t, r); });
    return tap();
  }

  // --- Per-lane data accessors ----------------------------------------------
  // Reads/writes of architecturally out-of-range register numbers throw
  // SimulationError here regardless of the serial machine's exact
  // exception type: any throw from a batched step ejects the live lanes
  // to a serial replay, which then reproduces the serial error text.

  std::size_t sreg_i(ThreadId t, RegNum r, std::uint32_t lane) const {
    return (std::size_t{t} * cfg_.num_scalar_regs + r) * L_ + lane;
  }
  std::size_t sflag_i(ThreadId t, RegNum f, std::uint32_t lane) const {
    return (std::size_t{t} * cfg_.num_flag_regs + f) * L_ + lane;
  }
  std::size_t preg_row_i(ThreadId t, RegNum r) const {
    return (std::size_t{t} * cfg_.num_parallel_regs + r) * P_ * L_;
  }
  std::size_t pflag_row_i(ThreadId t, RegNum f) const {
    return (std::size_t{t} * cfg_.num_flag_regs + f) * P_ * L_;
  }

  Word sreg(std::uint32_t lane, ThreadId t, RegNum r) const {
    if (r == 0) return 0;
    expect(r < cfg_.num_scalar_regs, "lane batch: scalar register out of range");
    return sregs_[sreg_i(t, r, lane)];
  }
  void set_sreg(std::uint32_t lane, ThreadId t, RegNum r, Word v) {
    if (r == 0) return;
    expect(r < cfg_.num_scalar_regs, "scalar register out of range");
    sregs_[sreg_i(t, r, lane)] = truncate(v, W_);
  }
  bool sflag(std::uint32_t lane, ThreadId t, RegNum f) const {
    if (f == 0) return true;
    expect(f < cfg_.num_flag_regs, "lane batch: scalar flag out of range");
    return sflags_[sflag_i(t, f, lane)] != 0;
  }
  void set_sflag(std::uint32_t lane, ThreadId t, RegNum f, bool v) {
    if (f == 0) return;
    expect(f < cfg_.num_flag_regs, "scalar flag out of range");
    sflags_[sflag_i(t, f, lane)] = v ? 1 : 0;
  }
  Word preg(std::uint32_t lane, ThreadId t, RegNum r, PEIndex pe) const {
    if (r == 0) return 0;
    expect(r < cfg_.num_parallel_regs, "lane batch: parallel register out of range");
    return pregs_[preg_row_i(t, r) + std::size_t{pe} * L_ + lane];
  }

  /// Activity row of a masked parallel/reduction instruction, as a
  /// [pe][lane] row: flag 0 is hardwired to 1 for every lane.
  const std::uint8_t* act_row(ThreadId t, RegNum mask) {
    if (mask == 0) return ones_pl_.data();
    expect(mask < cfg_.num_flag_regs, "parallel flag out of range");
    return pflags_.data() + pflag_row_i(t, mask);
  }
  /// Parallel-register source row ([pe][lane]); register 0 reads zeros.
  const Word* val_row(ThreadId t, RegNum r) {
    if (r == 0) return zero_pl_.data();
    expect(r < cfg_.num_parallel_regs, "parallel register out of range");
    return pregs_.data() + preg_row_i(t, r);
  }

  // --- Thread table and instruction memory (shared by every lane) ----------

  ThreadContext& thread(ThreadId t) { return threads_[t]; }

  ThreadId allocate_thread(Addr entry_pc) {
    for (ThreadId t = 0; t < threads_.size(); ++t) {
      if (threads_[t].state == ThreadState::kFree) {
        threads_[t].state = ThreadState::kActive;
        threads_[t].pc = entry_pc;
        return t;
      }
    }
    return ArchState::kNoThread;
  }

  std::uint32_t active_thread_count() const {
    std::uint32_t n = 0;
    for (const auto& t : threads_)
      if (t.state != ThreadState::kFree) ++n;
    return n;
  }

  std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

  InstrWord fetch(Addr pc) const {
    expect(pc < instr_mem_.size(), "PC out of instruction memory");
    return instr_mem_[pc];
  }

  // --- Batched execute -------------------------------------------------------

  void bexec_parallel(ThreadId t, const Instruction& in) {
    const unsigned w = W_;
    const std::size_t n = std::size_t{P_} * L_;
    const std::uint8_t* const act = act_row(t, in.mask);

    auto check_preg = [&](RegNum r) {
      expect(r < cfg_.num_parallel_regs, "parallel register out of range");
    };
    auto check_pflag = [&](RegNum f) {
      expect(f < cfg_.num_flag_regs, "parallel flag out of range");
    };
    // Per-lane scalar operand (broadcast forms): dead lanes read a stale
    // but in-bounds value; their writes below are architectural no-ops.
    auto fill_svals = [&](RegNum r) {
      for (std::uint32_t lane = 0; lane < L_; ++lane)
        svals_[lane] = sreg(lane, t, r);
    };

    switch (in.op) {
      case Opcode::kPAlu: {
        if (in.rd == 0) return;
        check_preg(in.rd);
        const auto f = static_cast<AluFunct>(in.funct);
        const Word* const a = val_row(t, in.rs);
        const Word* const b = val_row(t, in.rt);
        Word* const d = pregs_.data() + preg_row_i(t, in.rd);
        for (std::size_t i = 0; i < n; ++i)
          if (act[i]) d[i] = alu_op(f, a[i], b[i], w);
        return;
      }
      case Opcode::kPAluS: {
        if (in.rd == 0) return;
        check_preg(in.rd);
        const auto f = static_cast<AluFunct>(in.funct);
        fill_svals(in.rs);
        const Word* const b = val_row(t, in.rt);
        Word* const d = pregs_.data() + preg_row_i(t, in.rd);
        for (std::size_t i = 0; i < n; ++i)
          if (act[i]) d[i] = alu_op(f, svals_[i % L_], b[i], w);
        return;
      }
      case Opcode::kPImm: {
        if (in.rd == 0) return;
        check_preg(in.rd);
        const Word imm = truncate(static_cast<Word>(in.imm), w);
        const Word* const a = val_row(t, in.rs);
        Word* const d = pregs_.data() + preg_row_i(t, in.rd);
        switch (static_cast<PImmOp>(in.funct)) {
          case PImmOp::kAddi:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = alu_op(AluFunct::kAdd, a[i], imm, w);
            break;
          case PImmOp::kAndi:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = a[i] & imm;
            break;
          case PImmOp::kOri:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = a[i] | imm;
            break;
          case PImmOp::kXori:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = a[i] ^ imm;
            break;
          case PImmOp::kSlli:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = alu_op(AluFunct::kSll, a[i], imm, w);
            break;
          case PImmOp::kSrli:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = alu_op(AluFunct::kSrl, a[i], imm, w);
            break;
          case PImmOp::kSrai:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = alu_op(AluFunct::kSra, a[i], imm, w);
            break;
          case PImmOp::kMovi:
            for (std::size_t i = 0; i < n; ++i)
              if (act[i]) d[i] = imm;
            break;
          case PImmOp::kCount:
            break;
        }
        return;
      }
      case Opcode::kPCmp: {
        if (in.rd == 0) return;
        check_pflag(in.rd);
        const auto f = static_cast<CmpFunct>(in.funct);
        const Word* const a = val_row(t, in.rs);
        const Word* const b = val_row(t, in.rt);
        std::uint8_t* const d = pflags_.data() + pflag_row_i(t, in.rd);
        for (std::size_t i = 0; i < n; ++i)
          if (act[i]) d[i] = cmp_op(f, a[i], b[i], w) ? 1 : 0;
        return;
      }
      case Opcode::kPCmpS: {
        if (in.rd == 0) return;
        check_pflag(in.rd);
        const auto f = static_cast<CmpFunct>(in.funct);
        fill_svals(in.rs);
        const Word* const b = val_row(t, in.rt);
        std::uint8_t* const d = pflags_.data() + pflag_row_i(t, in.rd);
        for (std::size_t i = 0; i < n; ++i)
          if (act[i]) d[i] = cmp_op(f, svals_[i % L_], b[i], w) ? 1 : 0;
        return;
      }
      case Opcode::kPFlag: {
        if (in.rd == 0) return;
        check_pflag(in.rd);
        const auto f = static_cast<FlagFunct>(in.funct);
        const std::uint8_t* const a = act_row(t, in.rs);
        const std::uint8_t* const b = act_row(t, in.rt);
        std::uint8_t* const d = pflags_.data() + pflag_row_i(t, in.rd);
        for (std::size_t i = 0; i < n; ++i)
          if (act[i]) d[i] = flag_op(f, a[i] != 0, b[i] != 0) ? 1 : 0;
        return;
      }
      case Opcode::kPLw: {
        if (in.rd != 0) check_preg(in.rd);
        const Word* const base = val_row(t, in.rs);
        Word* const d =
            in.rd != 0 ? pregs_.data() + preg_row_i(t, in.rd) : nullptr;
        // Unlike the total-function rows above, an address loop must not
        // run for dead lanes (a stale base register would index host
        // memory out of bounds). Prevalidate per live lane; a faulting
        // lane stops with exactly the message its serial run throws.
        for_live([&](std::uint32_t lane) {
          for (std::uint32_t pe = 0; pe < P_; ++pe) {
            const std::size_t i = std::size_t{pe} * L_ + lane;
            if (!act[i]) continue;
            const Addr a = truncate(base[i] + static_cast<Word>(in.imm), 32);
            if (a >= cfg_.local_mem_bytes) {
              eject_fault(lane, "local memory read out of range");
              return;
            }
          }
        });
        if (live_count_ == 0) throw AllLanesDead{};
        for_live([&](std::uint32_t lane) {
          for (std::uint32_t pe = 0; pe < P_; ++pe) {
            const std::size_t i = std::size_t{pe} * L_ + lane;
            if (!act[i]) continue;
            const Addr a = truncate(base[i] + static_cast<Word>(in.imm), 32);
            if (d)
              d[i] = local_mem_[(std::size_t{pe} * cfg_.local_mem_bytes + a) *
                                    L_ +
                                lane];
          }
        });
        return;
      }
      case Opcode::kPSw: {
        const Word* const base = val_row(t, in.rs);
        const Word* const src = val_row(t, in.rd);
        for_live([&](std::uint32_t lane) {
          for (std::uint32_t pe = 0; pe < P_; ++pe) {
            const std::size_t i = std::size_t{pe} * L_ + lane;
            if (!act[i]) continue;
            const Addr a = truncate(base[i] + static_cast<Word>(in.imm), 32);
            if (a >= cfg_.local_mem_bytes) {
              eject_fault(lane, "local memory write out of range");
              return;
            }
          }
        });
        if (live_count_ == 0) throw AllLanesDead{};
        for_live([&](std::uint32_t lane) {
          for (std::uint32_t pe = 0; pe < P_; ++pe) {
            const std::size_t i = std::size_t{pe} * L_ + lane;
            if (!act[i]) continue;
            const Addr a = truncate(base[i] + static_cast<Word>(in.imm), 32);
            local_mem_[(std::size_t{pe} * cfg_.local_mem_bytes + a) * L_ +
                       lane] = truncate(src[i], W_);
          }
        });
        return;
      }
      case Opcode::kPMov: {
        if (in.rd == 0) return;
        check_preg(in.rd);
        Word* const d = pregs_.data() + preg_row_i(t, in.rd);
        if (static_cast<PMovFunct>(in.funct) == PMovFunct::kBcast) {
          fill_svals(in.rs);
          for (std::size_t i = 0; i < n; ++i)
            if (act[i]) d[i] = svals_[i % L_];
        } else {
          for (std::uint32_t pe = 0; pe < P_; ++pe) {
            const Word v = truncate(static_cast<Word>(pe), w);
            const std::size_t b0 = std::size_t{pe} * L_;
            for (std::uint32_t lane = 0; lane < L_; ++lane)
              if (act[b0 + lane]) d[b0 + lane] = v;
          }
        }
        return;
      }
      default:
        throw SimulationError("exec_parallel: not a parallel opcode");
    }
  }

  void bexec_reduction(ThreadId t, const Instruction& in) {
    const unsigned w = W_;
    // Serial check order: the activity mask is validated before anything
    // else (exec_reduction computes it first), so a bad mask is a
    // uniform fault even when a per-lane fault also exists downstream.
    const std::uint8_t* const act = act_row(t, in.mask);

    auto gather_act = [&](std::uint32_t lane) {
      for (std::uint32_t pe = 0; pe < P_; ++pe)
        act_p_[pe] = act[std::size_t{pe} * L_ + lane];
    };

    if (in.op == Opcode::kRSel) {
      const std::uint8_t* const flags = act_row(t, in.rs);
      const auto f = static_cast<RSelFunct>(in.funct);
      if (in.rd == 0) return;  // hardwired; serial returns before the rd check
      expect(in.rd < cfg_.num_flag_regs, "parallel flag out of range");
      std::uint8_t* const d = pflags_.data() + pflag_row_i(t, in.rd);
      for_live([&](std::uint32_t lane) {
        gather_act(lane);
        for (std::uint32_t pe = 0; pe < P_; ++pe)
          flags_p_[pe] = flags[std::size_t{pe} * L_ + lane];
        const std::size_t first = net::resolve_first_index(
            std::span<const std::uint8_t>{flags_p_},
            std::span<const std::uint8_t>{act_p_});
        for (std::uint32_t pe = 0; pe < P_; ++pe) {
          if (!act_p_[pe]) continue;
          const std::size_t i = std::size_t{pe} * L_ + lane;
          if (f == RSelFunct::kFirst)
            d[i] = pe == first ? 1 : 0;
          else
            d[i] = (flags_p_[pe] && pe != first) ? 1 : 0;
        }
      });
      return;
    }

    const auto f = static_cast<RedFunct>(in.funct);
    switch (f) {
      case RedFunct::kCount_:
      case RedFunct::kAny: {
        const std::uint8_t* const flags = act_row(t, in.rs);
        for_live([&](std::uint32_t lane) {
          gather_act(lane);
          for (std::uint32_t pe = 0; pe < P_; ++pe)
            flags_p_[pe] = flags[std::size_t{pe} * L_ + lane];
          const Word count = net::flag_reduce(
              net::ReduceOp::kCountFlags,
              std::span<const std::uint8_t>{flags_p_},
              std::span<const std::uint8_t>{act_p_});
          set_sreg(lane, t, in.rd,
                   f == RedFunct::kAny ? (count != 0 ? 1 : 0) : count);
        });
        break;
      }
      case RedFunct::kFAnd:
      case RedFunct::kFOr: {
        const std::uint8_t* const flags = act_row(t, in.rs);
        const auto op =
            f == RedFunct::kFAnd ? net::ReduceOp::kAnd : net::ReduceOp::kOr;
        for_live([&](std::uint32_t lane) {
          gather_act(lane);
          for (std::uint32_t pe = 0; pe < P_; ++pe)
            flags_p_[pe] = flags[std::size_t{pe} * L_ + lane];
          set_sflag(lane, t, in.rd,
                    net::flag_reduce(op, std::span<const std::uint8_t>{flags_p_},
                                     std::span<const std::uint8_t>{act_p_}) !=
                        0);
        });
        break;
      }
      case RedFunct::kGetPe: {
        // The PE index is pure data (it selects a value, not a control
        // path), so lanes may disagree freely; out-of-range indices are
        // per-lane faults.
        for_live([&](std::uint32_t lane) {
          if (sreg(lane, t, in.rt) >= cfg_.num_pes)
            eject_fault(lane, "getpe: PE index out of range");
        });
        if (live_count_ == 0) throw AllLanesDead{};
        for_live([&](std::uint32_t lane) {
          const Word idx = sreg(lane, t, in.rt);
          set_sreg(lane, t, in.rd, preg(lane, t, in.rs, idx));
        });
        break;
      }
      default: {
        const Word* const vals = val_row(t, in.rs);
        for_live([&](std::uint32_t lane) {
          gather_act(lane);
          for (std::uint32_t pe = 0; pe < P_; ++pe)
            vals_p_[pe] = vals[std::size_t{pe} * L_ + lane];
          set_sreg(lane, t, in.rd,
                   net::tree_reduce(reduce_op_of(f),
                                    std::span<const Word>{vals_p_},
                                    std::span<const std::uint8_t>{act_p_}, w));
        });
        break;
      }
    }
  }

  /// Datapath hook: one instruction for every live lane.
  ExecResult exec(ThreadId t, Addr pc, const Instruction& in) {
    ExecResult res;
    res.next_pc = pc + 1;
    const unsigned w = W_;

    switch (in.instr_class()) {
      case InstrClass::kParallel:
        bexec_parallel(t, in);
        return res;
      case InstrClass::kReduction:
        bexec_reduction(t, in);
        return res;
      case InstrClass::kScalar:
        break;
    }

    switch (in.op) {
      case Opcode::kSys:
        if (in.is_halt()) res.halt = true;
        break;

      case Opcode::kSAlu:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   alu_op(static_cast<AluFunct>(in.funct), sreg(lane, t, in.rs),
                          sreg(lane, t, in.rt), w));
        });
        break;
      case Opcode::kSCmp:
        for_live([&](std::uint32_t lane) {
          set_sflag(lane, t, in.rd,
                    cmp_op(static_cast<CmpFunct>(in.funct), sreg(lane, t, in.rs),
                           sreg(lane, t, in.rt), w));
        });
        break;
      case Opcode::kSFlag:
        for_live([&](std::uint32_t lane) {
          set_sflag(lane, t, in.rd,
                    flag_op(static_cast<FlagFunct>(in.funct),
                            sflag(lane, t, in.rs), sflag(lane, t, in.rt)));
        });
        break;

      case Opcode::kAddi:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   sreg(lane, t, in.rs) + static_cast<Word>(in.imm));
        });
        break;
      case Opcode::kAndi:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   sreg(lane, t, in.rs) & (static_cast<Word>(in.imm) & 0xFFFFu));
        });
        break;
      case Opcode::kOri:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   sreg(lane, t, in.rs) | (static_cast<Word>(in.imm) & 0xFFFFu));
        });
        break;
      case Opcode::kXori:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   sreg(lane, t, in.rs) ^ (static_cast<Word>(in.imm) & 0xFFFFu));
        });
        break;
      case Opcode::kSlti:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   sign_extend(sreg(lane, t, in.rs), w) < in.imm ? 1 : 0);
        });
        break;
      case Opcode::kSltiu:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd,
                   truncate(sreg(lane, t, in.rs), w) <
                           truncate(static_cast<Word>(in.imm), w)
                       ? 1
                       : 0);
        });
        break;
      case Opcode::kSlli:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd, alu_op(AluFunct::kSll, sreg(lane, t, in.rs),
                                          static_cast<Word>(in.imm), w));
        });
        break;
      case Opcode::kSrli:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd, alu_op(AluFunct::kSrl, sreg(lane, t, in.rs),
                                          static_cast<Word>(in.imm), w));
        });
        break;
      case Opcode::kSrai:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd, alu_op(AluFunct::kSra, sreg(lane, t, in.rs),
                                          static_cast<Word>(in.imm), w));
        });
        break;
      case Opcode::kLui:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd, static_cast<Word>(in.imm) << 16);
        });
        break;

      case Opcode::kLw: {
        // Scalar memory addresses are per-lane data: prevalidate, eject
        // faulting lanes with the serial message, then apply.
        for_live([&](std::uint32_t lane) {
          const Addr a = sreg(lane, t, in.rs) + static_cast<Word>(in.imm);
          if (a >= cfg_.scalar_mem_bytes)
            eject_fault(lane, "scalar memory read out of range");
        });
        if (live_count_ == 0) throw AllLanesDead{};
        for_live([&](std::uint32_t lane) {
          const Addr a = sreg(lane, t, in.rs) + static_cast<Word>(in.imm);
          set_sreg(lane, t, in.rd, scalar_mem_[std::size_t{a} * L_ + lane]);
        });
        break;
      }
      case Opcode::kSw: {
        for_live([&](std::uint32_t lane) {
          const Addr a = sreg(lane, t, in.rs) + static_cast<Word>(in.imm);
          if (a >= cfg_.scalar_mem_bytes)
            eject_fault(lane, "scalar memory write out of range");
        });
        if (live_count_ == 0) throw AllLanesDead{};
        for_live([&](std::uint32_t lane) {
          const Addr a = sreg(lane, t, in.rs) + static_cast<Word>(in.imm);
          scalar_mem_[std::size_t{a} * L_ + lane] =
              truncate(sreg(lane, t, in.rd), W_);
        });
        break;
      }

      case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
      case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
        // Tap the *decision*, not the operands: lanes whose registers
        // differ but branch the same way stay convergent.
        for_live([&](std::uint32_t lane) {
          const Word a = sreg(lane, t, in.rd), b = sreg(lane, t, in.rs);
          bool tk = false;
          switch (in.op) {
            case Opcode::kBeq: tk = cmp_op(CmpFunct::kEq, a, b, w); break;
            case Opcode::kBne: tk = cmp_op(CmpFunct::kNe, a, b, w); break;
            case Opcode::kBlt: tk = cmp_op(CmpFunct::kLt, a, b, w); break;
            case Opcode::kBge: tk = cmp_op(CmpFunct::kGe, a, b, w); break;
            case Opcode::kBltu: tk = cmp_op(CmpFunct::kLtu, a, b, w); break;
            case Opcode::kBgeu: tk = cmp_op(CmpFunct::kGeu, a, b, w); break;
            default: break;
          }
          taps_[lane] = tk ? 1 : 0;
        });
        if (tap() != 0) {
          res.next_pc =
              static_cast<Addr>(static_cast<std::int64_t>(pc) + 1 + in.imm);
          res.taken_branch = true;
        }
        break;
      }
      case Opcode::kBfset:
      case Opcode::kBfclr: {
        for_live([&](std::uint32_t lane) {
          taps_[lane] = sflag(lane, t, in.rd) ? 1 : 0;
        });
        const bool set = tap() != 0;
        if (set == (in.op == Opcode::kBfset)) {
          res.next_pc =
              static_cast<Addr>(static_cast<std::int64_t>(pc) + 1 + in.imm);
          res.taken_branch = true;
        }
        break;
      }
      case Opcode::kJ:
        res.next_pc = static_cast<Addr>(in.imm);
        res.taken_branch = true;
        break;
      case Opcode::kJal:
        for_live([&](std::uint32_t lane) {
          set_sreg(lane, t, in.rd, pc + 1);
        });
        res.next_pc = static_cast<Addr>(in.imm);
        res.taken_branch = true;
        break;
      case Opcode::kJr:
        res.next_pc = control_sreg(t, in.rs);
        res.taken_branch = true;
        break;

      case Opcode::kTCtl:
        switch (static_cast<TCtlFunct>(in.funct)) {
          case TCtlFunct::kSpawn: {
            // A spawn writes the shared thread table, so the entry PC
            // must be uniform.
            const Addr entry = control_sreg(t, in.rs);
            const ThreadId child = allocate_thread(entry);
            res.spawned = child;
            for_live([&](std::uint32_t lane) {
              set_sreg(lane, t, in.rd,
                       child == ArchState::kNoThread ? low_mask(w)
                                                     : truncate(child, w));
            });
            break;
          }
          case TCtlFunct::kJoin: {
            const Word target = control_sreg(t, in.rs);
            if (target >= num_threads())
              throw SimulationError("tjoin: thread id out of range");
            if (threads_[target].state != ThreadState::kFree) {
              res.blocked_join = true;
              res.join_target = target;
            }
            break;
          }
          case TCtlFunct::kExit:
            res.exited = true;
            break;
          case TCtlFunct::kTid:
            for_live([&](std::uint32_t lane) {
              set_sreg(lane, t, in.rd, truncate(t, w));
            });
            break;
          case TCtlFunct::kNPes:
            for_live([&](std::uint32_t lane) {
              set_sreg(lane, t, in.rd, truncate(cfg_.num_pes, w));
            });
            break;
          case TCtlFunct::kNThreads:
            for_live([&](std::uint32_t lane) {
              set_sreg(lane, t, in.rd, truncate(num_threads(), w));
            });
            break;
          case TCtlFunct::kCount:
            break;
        }
        break;

      case Opcode::kTMov: {
        const Word target = control_sreg(t, in.rt);
        if (target >= num_threads())
          throw SimulationError("tput/tget: thread id out of range");
        if (static_cast<TMovFunct>(in.funct) == TMovFunct::kPut) {
          for_live([&](std::uint32_t lane) {
            set_sreg(lane, target, in.rd, sreg(lane, t, in.rs));
          });
        } else {
          for_live([&](std::uint32_t lane) {
            set_sreg(lane, t, in.rd, sreg(lane, target, in.rs));
          });
        }
        break;
      }

      default:
        throw SimulationError("execute: unhandled opcode");
    }
    return res;
  }

  // --- Fields ----------------------------------------------------------------

  const std::uint32_t L_;  ///< lanes
  const std::uint32_t P_;  ///< PEs
  const unsigned W_;       ///< word width

  std::vector<std::uint8_t> live_;
  std::uint32_t live_count_ = 0;
  std::vector<LaneStop> stop_;
  std::vector<const char*> fault_msg_;

  // Shared thread table and program image (control state; the rest of
  // it lives in the Pipeline base).
  std::vector<ThreadContext> threads_;
  std::vector<InstrWord> instr_mem_;

  // Per-lane data state, lane index innermost.
  std::vector<Word> scalar_mem_;       ///< [addr][lane]
  std::vector<Word> sregs_;            ///< [thread][reg][lane]
  std::vector<std::uint8_t> sflags_;   ///< [thread][flag][lane]
  std::vector<Word> pregs_;            ///< [thread][reg][pe][lane]
  std::vector<std::uint8_t> pflags_;   ///< [thread][flag][pe][lane]
  std::vector<Word> local_mem_;        ///< [pe][addr][lane]
  std::vector<Word> zero_pl_;          ///< P*L zeros (register 0 row)
  std::vector<std::uint8_t> ones_pl_;  ///< P*L ones (flag 0 row)

  // Reduction gather scratch (trees.hpp folds in hardware node order, so
  // each lane's column is gathered contiguous and reduced exactly like a
  // serial row).
  std::vector<Word> vals_p_;
  std::vector<std::uint8_t> act_p_;
  std::vector<std::uint8_t> flags_p_;
  std::vector<Word> svals_;  ///< per-lane scalar operands
  std::vector<Word> taps_;   ///< per-lane control tap values
};

}  // namespace

bool lane_batchable(const SweepJob& job) {
  return !job.fabric && !job.initial_state && !job.checkpoint_on_stop &&
         job.checkpoint_every_chunks == 0 && fault::active() == nullptr;
}

Hash128 lane_batch_key(const SweepJob& job) {
  // sweep_cache_key's inputs minus the declared lane dimensions:
  // program.data, label, seed.
  Fnv128 h;
  hash_config(h, job.cfg);
  h.u64(job.program.text.size());
  h.bytes(job.program.text.data(), job.program.text.size() * sizeof(InstrWord));
  h.u64(job.program.entry);
  h.u64(job.max_cycles);
  return h.digest();
}

std::vector<SweepResult> run_lane_batch(const std::vector<LaneJob>& lanes,
                                        LaneBatchReport* report) {
  LaneBatchReport rep;
  std::vector<SweepResult> results(lanes.size());
  if (lanes.empty()) {
    if (report) *report = rep;
    return results;
  }

  auto run_serial = [&](std::size_t k) {
    results[k] = run_sweep_job(*lanes[k].job, lanes[k].index);
  };

  // Compatibility screen (the runner already groups by key; this is the
  // engine's own refusal so a mis-grouped caller gets correct results,
  // never a mixed batch). The first batchable lane anchors the batch.
  std::vector<std::uint32_t> batch;
  std::vector<std::size_t> serial;
  std::optional<Hash128> anchor;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    if (!lane_batchable(*lanes[k].job)) {
      serial.push_back(k);
      continue;
    }
    const Hash128 key = lane_batch_key(*lanes[k].job);
    if (!anchor) anchor = key;
    if (key == *anchor)
      batch.push_back(static_cast<std::uint32_t>(k));
    else
      serial.push_back(k);
  }
  if (batch.size() < 2) {
    for (const std::uint32_t k : batch) serial.push_back(k);
    batch.clear();
  }

  std::vector<std::size_t> replay(serial);
  if (!batch.empty()) {
    const std::uint32_t L = static_cast<std::uint32_t>(batch.size());
    const SweepJob& lead = *lanes[batch[0]].job;
    const auto t0 = std::chrono::steady_clock::now();

    auto finish_lane = [&](BatchMachine& bm, std::uint32_t l,
                           SweepStatus status) {
      const LaneJob& lj = lanes[batch[l]];
      SweepResult r;
      r.index = lj.index;
      r.label = lj.job->label;
      r.seed = lj.job->seed;
      r.status = status;
      r.finished = status == SweepStatus::kFinished;
      r.stats = bm.stats();
      results[batch[l]] = std::move(r);
      bm.deactivate(l);
    };

    bool engine_ok = true;
    std::optional<BatchMachine> bm;
    try {
      bm.emplace(lead.cfg, L);
      std::vector<const Program*> lane_progs(L);
      for (std::uint32_t l = 0; l < L; ++l)
        lane_progs[l] = &lanes[batch[l]].job->program;
      bm->load(lead.program, lane_progs);
    } catch (...) {
      // Uniform construction/load failure (bad config, oversized text):
      // every lane reproduces it serially.
      engine_ok = false;
    }

    if (engine_ok) {
      rep.lanes = L;
      // The serial chunk loop, with the per-lane stop checks applied as
      // lane masking. Machine::run's limit is absolute, so the chunked
      // batched run is cycle-for-cycle identical to each lane's serial
      // run while the lane is live.
      for (;;) {
        for (std::uint32_t l = 0; l < L; ++l) {
          if (!bm->lane_live(l)) continue;
          const SweepJob& job = *lanes[batch[l]].job;
          if (job.cancel && job.cancel->load(std::memory_order_relaxed)) {
            finish_lane(*bm, l, SweepStatus::kCancelled);
          } else if (job.deadline &&
                     std::chrono::steady_clock::now() >= *job.deadline) {
            finish_lane(*bm, l, SweepStatus::kDeadlineExceeded);
          }
        }
        if (bm->live_count() == 0) break;
        const Cycle limit =
            std::min<Cycle>(lead.max_cycles, bm->now() + kSweepChunkCycles);
        bool fin = false;
        try {
          fin = bm->run(limit);
        } catch (const AllLanesDead&) {
          break;
        } catch (...) {
          bm->eject_all_live();
          break;
        }
        if (fin) {
          for (std::uint32_t l = 0; l < L; ++l)
            if (bm->lane_live(l)) finish_lane(*bm, l, SweepStatus::kFinished);
          break;
        }
        if (bm->now() >= lead.max_cycles) {
          for (std::uint32_t l = 0; l < L; ++l)
            if (bm->lane_live(l)) finish_lane(*bm, l, SweepStatus::kCycleLimit);
          break;
        }
      }

      const double share =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count() /
          L;
      for (std::uint32_t l = 0; l < L; ++l) {
        const LaneJob& lj = lanes[batch[l]];
        switch (bm->stop(l)) {
          case LaneStop::kDone:
            results[batch[l]].host_seconds = share;
            break;
          case LaneStop::kFault: {
            // Identical to the serial catch path: error status, the
            // expect() message, default (empty-vector) Stats.
            SweepResult r;
            r.index = lj.index;
            r.label = lj.job->label;
            r.seed = lj.job->seed;
            r.status = SweepStatus::kError;
            r.error = bm->fault_msg(l);
            r.host_seconds = share;
            results[batch[l]] = std::move(r);
            ++rep.faulted;
            break;
          }
          case LaneStop::kReplay:
          case LaneStop::kRunning:
            replay.push_back(batch[l]);
            break;
        }
      }
    } else {
      for (const std::uint32_t k : batch) replay.push_back(k);
    }
  }

  rep.replayed = static_cast<std::uint32_t>(replay.size());
  for (const std::size_t k : replay) run_serial(k);
  if (report) *report = rep;
  return results;
}

}  // namespace masc
