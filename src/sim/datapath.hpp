// The data semantics of every opcode, written once. The paper builds the
// scalar datapath "nearly identical to the PEs" (§6.3); likewise one
// datapath source runs over two lane-state views: SerialLanes (exec.cpp),
// one ArchState with a lane count of 1 fixed at compile time so the lane
// dimension compiles out, and BatchMachine (lane_batch.cpp), L jobs.
//
// Parallel rows are [t][r][pe][lane] (the serial [t][r][pe] at L = 1), so
// row loops run over P·L elements, each funct dispatched once per
// instruction. Reductions run every lane through one pass of the
// lane-wide network (net::reduce_lanes). A view S supplies, besides
// config() and lanes():
//   for_live(f)            f(lane) for every live lane
//   control(f) -> Word     a value that steers the shared control pass:
//                          serial returns f(0); lanes tap() it, ejecting
//                          divergent lanes to a serial replay
//   fault(lane, msg)       a data fault: serial throws SimulationError at
//                          the faulting PE, lower PEs written; lanes stop
//                          just that lane with the same message
//   sreg/set_sreg/sflag/set_sflag/preg    per-lane registers
//   sreg_lanes(t, r)       scalar register r of every lane, indexed by
//                          lane (serially, a deferred read of the one)
//   set_sreg_lanes(t, r, v)  register r of every lane <- v(lane), one
//                          row loop; dead lanes too, whose registers are
//                          never read again
//   broadcast(t, r)        sreg r of every lane, indexed like a P·L row
//                          (serially a value, so row stores cannot alias it)
//   preg_row/pflag_row/zero_row/ones_row  P·L-element rows
//   local_mem/set_local_mem, scalar_mem/set_scalar_mem, thread table
// Address loops never run for dead lanes. Register-number and mask checks
// depend only on the instruction, so they are uniform; they fire even
// when the mask is all zero, mask first.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "sim/arch_state.hpp"
#include "sim/exec.hpp"
#include "sim/network/trees.hpp"

namespace masc::datapath {

/// The activity row of a masked parallel/reduction instruction: flag 0 is
/// hardwired to 1, so an unmasked instruction reads the all-ones row.
/// Bounds-checked once per operand (not per PE): decode() yields 5-bit
/// register and 3-bit mask fields, which can exceed the configured file
/// sizes, and the raw row pointers would otherwise read out of bounds.
template <typename S>
const std::uint8_t* activity_row(S& s, ThreadId t, RegNum f) {
  if (f == 0) return s.ones_row();
  expect(f < s.config().num_flag_regs, "parallel flag out of range");
  return s.pflag_row(t, f);
}

/// Parallel-register source row: register 0 is hardwired to 0.
template <typename S>
const Word* value_row(S& s, ThreadId t, RegNum r) {
  if (r == 0) return s.zero_row();
  expect(r < s.config().num_parallel_regs, "parallel register out of range");
  return s.preg_row(t, r);
}

/// d[i] = v(i) for every active element i of a P·L row, written as a
/// select so the compiler can vectorize it: v runs on inactive elements
/// too (it must not fault), whose d[i] is kept. v is taken by value, so a
/// store to d cannot alias its captures.
template <typename T, typename V>
void store_active(T* d, const std::uint8_t* act, std::size_t n, V v) {
  for (std::size_t i = 0; i < n; ++i) {
    const T r = v(i);
    d[i] = act[i] ? r : d[i];
  }
}

/// store_active() with a funct of enum E (enumerators 0..Last) dispatched
/// once: v(f, i) gets the funct as a compile-time constant f.
template <auto Last, typename T, typename V>
void store_funct(std::uint8_t funct, T* d, const std::uint8_t* act, std::size_t n, V v) {
  dispatch<Last>(static_cast<decltype(Last)>(funct), [&](auto f) {
    store_active(d, act, n, [=](std::size_t i) { return v(f, i); });
  });
}

/// Execute a parallel-class instruction across the PE array of every
/// lane. Each opcode runs as a tight row loop the compiler can vectorize,
/// its funct dispatched once per instruction. Writes to hardwired
/// register/flag 0 have no architectural effect, so those loops are
/// skipped outright — except PLW, whose address bounds checks must still
/// fire.
template <typename S>
void exec_parallel(S& s, ThreadId t, const Instruction& in) {
  using detail::alu;
  const auto& cfg = s.config();
  const unsigned w = cfg.word_width;
  const std::uint32_t p = cfg.num_pes;
  const std::uint32_t l = s.lanes();
  const std::size_t n = std::size_t{p} * l;
  const std::uint8_t* const act = activity_row(s, t, in.mask);

  // Destination range checks fire whatever the activity row holds: an
  // encodable but out-of-range field faults deterministically instead of
  // depending on mask contents.
  auto dest_preg = [&] {
    expect(in.rd < cfg.num_parallel_regs, "parallel register out of range");
    return s.preg_row(t, in.rd);
  };
  auto dest_pflag = [&] {
    expect(in.rd < cfg.num_flag_regs, "parallel flag out of range");
    return s.pflag_row(t, in.rd);
  };

  switch (in.op) {
    case Opcode::kPAlu: {
      if (in.rd == 0) return;
      Word* const d = dest_preg();
      const Word* const a = value_row(s, t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      store_funct<AluFunct::kCount>(in.funct, d, act, n, [=](auto f, std::size_t i) {
        return alu<f()>(a[i], b[i], w);
      });
      return;
    }
    case Opcode::kPAluS: {
      // Broadcast-scalar form: the scalar value is the LEFT operand.
      if (in.rd == 0) return;
      Word* const d = dest_preg();
      const auto sv = s.broadcast(t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      store_funct<AluFunct::kCount>(in.funct, d, act, n, [=](auto f, std::size_t i) {
        return alu<f()>(sv[i], b[i], w);
      });
      return;
    }
    case Opcode::kPImm: {
      if (in.rd == 0) return;
      Word* const d = dest_preg();
      const Word imm = truncate(static_cast<Word>(in.imm), w);
      const Word* const a = value_row(s, t, in.rs);
      auto store = [&](auto v) {
        store_active(d, act, n, [=](std::size_t i) { return v(a[i]); });
      };
      switch (static_cast<PImmOp>(in.funct)) {
        case PImmOp::kAddi:
          store([=](Word x) { return alu<AluFunct::kAdd>(x, imm, w); });
          break;
        case PImmOp::kAndi: store([=](Word x) { return x & imm; }); break;
        case PImmOp::kOri: store([=](Word x) { return x | imm; }); break;
        case PImmOp::kXori: store([=](Word x) { return x ^ imm; }); break;
        case PImmOp::kSlli:
          store([=](Word x) { return alu<AluFunct::kSll>(x, imm, w); });
          break;
        case PImmOp::kSrli:
          store([=](Word x) { return alu<AluFunct::kSrl>(x, imm, w); });
          break;
        case PImmOp::kSrai:
          store([=](Word x) { return alu<AluFunct::kSra>(x, imm, w); });
          break;
        case PImmOp::kMovi: store([=](Word) { return imm; }); break;
        case PImmOp::kCount:
          break;
      }
      return;
    }
    case Opcode::kPCmp: {
      if (in.rd == 0) return;
      std::uint8_t* const d = dest_pflag();
      const Word* const a = value_row(s, t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      store_funct<CmpFunct::kCount>(in.funct, d, act, n, [=](auto f, std::size_t i) {
        return std::uint8_t{detail::cmp<f()>(a[i], b[i], w)};
      });
      return;
    }
    case Opcode::kPCmpS: {
      if (in.rd == 0) return;
      std::uint8_t* const d = dest_pflag();
      const auto sv = s.broadcast(t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      store_funct<CmpFunct::kCount>(in.funct, d, act, n, [=](auto f, std::size_t i) {
        return std::uint8_t{detail::cmp<f()>(sv[i], b[i], w)};
      });
      return;
    }
    case Opcode::kPFlag: {
      if (in.rd == 0) return;
      std::uint8_t* const d = dest_pflag();
      const std::uint8_t* const a = activity_row(s, t, in.rs);
      const std::uint8_t* const b = activity_row(s, t, in.rt);
      store_funct<FlagFunct::kCount>(in.funct, d, act, n, [=](auto f, std::size_t i) {
        return std::uint8_t{detail::flag<f()>(a[i] != 0, b[i] != 0)};
      });
      return;
    }
    case Opcode::kPLw:
    case Opcode::kPSw: {
      // The only row loops that can fault mid-array: a lane faults at its
      // lowest faulting PE with every lower PE already applied.
      const bool load = in.op == Opcode::kPLw;
      Word* const d = load && in.rd != 0 ? dest_preg() : nullptr;
      const Word* const base = value_row(s, t, in.rs);
      const Word* const src = load ? nullptr : value_row(s, t, in.rd);
      s.for_live([&](std::uint32_t lane) {
        for (PEIndex pe = 0; pe < p; ++pe) {
          const std::size_t i = std::size_t{pe} * l + lane;
          if (!act[i]) continue;
          const Addr a = truncate(base[i] + static_cast<Word>(in.imm), 32);
          if (a >= cfg.local_mem_bytes)
            return s.fault(lane, load ? fault_text::kLocalRead
                                      : fault_text::kLocalWrite);
          if (load) {
            if (d) d[i] = s.local_mem(lane, pe, a);
          } else {
            s.set_local_mem(lane, pe, a, src[i]);
          }
        }
      });
      return;
    }
    case Opcode::kPMov: {
      if (in.rd == 0) return;
      Word* const d = dest_preg();
      if (static_cast<PMovFunct>(in.funct) == PMovFunct::kBcast) {
        const auto sv = s.broadcast(t, in.rs);
        store_active(d, act, n, [=](std::size_t i) { return sv[i]; });
      } else {
        // Element i is PE i / L.
        store_active(d, act, n, [=](std::size_t i) {
          return truncate(static_cast<Word>(i / l), w);
        });
      }
      return;
    }
    default:
      throw SimulationError("exec_parallel: not a parallel opcode");
  }
}

/// Execute a reduction-class instruction (uses the reduction network).
/// One pass of the lane-wide network (net::reduce_lanes) reduces every
/// lane at once, its operator dispatched once per instruction. Dead lanes
/// are reduced too, but only live lanes' scalar results are written.
template <typename S>
void exec_reduction(S& s, ThreadId t, const Instruction& in) {
  const auto& cfg = s.config();
  const unsigned w = cfg.word_width;
  const std::uint32_t p = cfg.num_pes;
  const std::uint32_t l = s.lanes();
  const std::uint8_t* const act = activity_row(s, t, in.mask);

  if (in.op == Opcode::kRSel) {
    // Multiple-response resolver: parallel-prefix over the flag vector.
    const std::uint8_t* const flags = activity_row(s, t, in.rs);
    const auto f = static_cast<RSelFunct>(in.funct);
    if (in.rd == 0) return;  // flag 0 is hardwired; writes are dropped
    expect(in.rd < cfg.num_flag_regs, "parallel flag out of range");
    std::uint8_t* const d = s.pflag_row(t, in.rd);
    // The first responder is the MINU tree over responders' element
    // indices, which order a lane's PEs; with no responder the identity
    // (all ones) matches no element.
    const Word* const first = net::reduce_lanes<net::ReduceOp::kMinU>(
        p, l, 32, [=](std::size_t i) {
          return (act[i] != 0) & (flags[i] != 0) ? static_cast<Word>(i) : ~Word{0};
        });
    // Like every parallel row, the rewrite of a dead lane's flags is an
    // architectural no-op.
    for (std::uint32_t pe = 0; pe < p; ++pe)
      for (std::uint32_t lane = 0; lane < l; ++lane) {
        const std::size_t i = std::size_t{pe} * l + lane;
        const bool is_first = i == first[lane];
        const bool r = f == RSelFunct::kFirst
                           ? is_first
                           // kClearFirst: source flags minus the first
                           : flags[i] && !is_first;
        if (act[i]) d[i] = r ? 1 : 0;
      }
    return;
  }

  const auto f = static_cast<RedFunct>(in.funct);
  switch (f) {
    case RedFunct::kCount_:
    case RedFunct::kAny:
    case RedFunct::kFAnd:
    case RedFunct::kFOr: {
      // The response counter's adder tree is wide enough for an exact
      // count (paper §6.4); the architectural result is then truncated
      // to the word width when written to the destination register. The
      // flag AND asks the same tree whether no active PE lacks the flag.
      const std::uint8_t* const flags = activity_row(s, t, in.rs);
      const bool want = f != RedFunct::kFAnd;
      const Word* const r = net::reduce_lanes<net::ReduceOp::kCountFlags>(
          p, l, w, [=](std::size_t i) {
            return static_cast<Word>((act[i] != 0) & ((flags[i] != 0) == want));
          });
      switch (f) {
        case RedFunct::kFAnd:
        case RedFunct::kFOr:
          s.for_live([&](std::uint32_t lane) {
            s.set_sflag(lane, t, in.rd, (r[lane] != 0) == (f == RedFunct::kFOr));
          });
          break;
        case RedFunct::kAny:
          s.set_sreg_lanes(t, in.rd, [=](std::uint32_t lane) -> Word { return r[lane] != 0; });
          break;
        default:
          s.set_sreg_lanes(t, in.rd, [=](std::uint32_t lane) { return r[lane]; });
          break;
      }
      break;
    }
    case RedFunct::kGetPe:
      // Routed through the OR tree with a single enabled leaf; the
      // activity mask does not gate it (the CU selects the leaf
      // directly). The PE index is data, so lanes may disagree.
      s.for_live([&](std::uint32_t lane) {
        const Word idx = s.sreg(lane, t, in.rt);
        if (idx >= cfg.num_pes) return s.fault(lane, fault_text::kGetPe);
        s.set_sreg(lane, t, in.rd, s.preg(lane, t, in.rs, idx));
      });
      break;
    default: {
      const Word* const vals = value_row(s, t, in.rs);
      const Word* const r = dispatch<net::ReduceOp::kCountFlags>(
          detail::reduce_op_of(f), [&](auto op) {
            return net::reduce_lanes<op()>(p, l, w, net::value_leaves<op()>(vals, act, w));
          });
      s.set_sreg_lanes(t, in.rd, [=](std::uint32_t lane) { return r[lane]; });
      break;
    }
  }
}

/// Execute one instruction of thread `t` at `pc` for every live lane of
/// `s` and return the (shared) control outcome.
template <typename S>
ExecResult execute(S& s, ThreadId t, Addr pc, const Instruction& in) {
  using detail::alu;
  ExecResult res;
  res.next_pc = pc + 1;
  const auto& cfg = s.config();
  const unsigned w = cfg.word_width;

  switch (in.instr_class()) {
    case InstrClass::kParallel:
      exec_parallel(s, t, in);
      return res;
    case InstrClass::kReduction:
      exec_reduction(s, t, in);
      return res;
    case InstrClass::kScalar:
      break;
  }

  auto reg = [&](std::uint32_t lane, RegNum r) { return s.sreg(lane, t, r); };
  // Register r of every lane, read once per instruction.
  auto lanes_of = [&](RegNum r) { return s.sreg_lanes(t, r); };
  // rd <- value(lane), as one row loop over the lanes.
  auto write_rd = [&](auto value) { s.set_sreg_lanes(t, in.rd, value); };
  auto take = [&](Addr target) {
    res.next_pc = target;
    res.taken_branch = true;
  };
  const Addr branch_target =
      static_cast<Addr>(static_cast<std::int64_t>(pc) + 1 + in.imm);
  const Word simm = static_cast<Word>(in.imm);
  // Logical immediates zero-extend their 16-bit field (MIPS-style), so
  // lui+ori can synthesize any 32-bit constant.
  const Word zimm = simm & 0xFFFFu;

  switch (in.op) {
    case Opcode::kSys:
      if (in.is_halt()) res.halt = true;
      break;

    case Opcode::kSAlu: {
      const auto a = lanes_of(in.rs);
      const auto b = lanes_of(in.rt);
      dispatch<AluFunct::kCount>(static_cast<AluFunct>(in.funct), [&](auto f) {
        write_rd([=](std::uint32_t lane) { return alu<f()>(a[lane], b[lane], w); });
      });
      break;
    }
    case Opcode::kSCmp: {
      const auto a = lanes_of(in.rs);
      const auto b = lanes_of(in.rt);
      dispatch<CmpFunct::kCount>(static_cast<CmpFunct>(in.funct), [&](auto f) {
        s.for_live([&](std::uint32_t lane) {
          s.set_sflag(lane, t, in.rd, detail::cmp<f()>(a[lane], b[lane], w));
        });
      });
      break;
    }
    case Opcode::kSFlag:
      dispatch<FlagFunct::kCount>(static_cast<FlagFunct>(in.funct), [&](auto f) {
        s.for_live([&](std::uint32_t lane) {
          s.set_sflag(lane, t, in.rd,
                      detail::flag<f()>(s.sflag(lane, t, in.rs), s.sflag(lane, t, in.rt)));
        });
      });
      break;

    case Opcode::kAddi: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return a[lane] + simm; });
      break;
    }
    case Opcode::kAndi: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return a[lane] & zimm; });
      break;
    }
    case Opcode::kOri: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return a[lane] | zimm; });
      break;
    }
    case Opcode::kXori: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return a[lane] ^ zimm; });
      break;
    }
    case Opcode::kSlti: {
      const auto a = lanes_of(in.rs);
      const std::int32_t imm = in.imm;
      write_rd([=](std::uint32_t lane) -> Word { return sign_extend(a[lane], w) < imm ? 1 : 0; });
      break;
    }
    case Opcode::kSltiu: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) -> Word {
        return truncate(a[lane], w) < truncate(simm, w) ? 1 : 0;
      });
      break;
    }
    case Opcode::kSlli: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return alu<AluFunct::kSll>(a[lane], simm, w); });
      break;
    }
    case Opcode::kSrli: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return alu<AluFunct::kSrl>(a[lane], simm, w); });
      break;
    }
    case Opcode::kSrai: {
      const auto a = lanes_of(in.rs);
      write_rd([=](std::uint32_t lane) { return alu<AluFunct::kSra>(a[lane], simm, w); });
      break;
    }
    case Opcode::kLui:
      write_rd([&](std::uint32_t) { return simm << 16; });
      break;

    case Opcode::kLw:
      s.for_live([&](std::uint32_t lane) {
        const Addr a = reg(lane, in.rs) + simm;
        if (a >= cfg.scalar_mem_bytes) return s.fault(lane, fault_text::kScalarRead);
        s.set_sreg(lane, t, in.rd, s.scalar_mem(lane, a));
      });
      break;
    case Opcode::kSw:
      s.for_live([&](std::uint32_t lane) {
        const Word v = reg(lane, in.rd);
        const Addr a = reg(lane, in.rs) + simm;
        if (a >= cfg.scalar_mem_bytes) return s.fault(lane, fault_text::kScalarWrite);
        s.set_scalar_mem(lane, a, v);
      });
      break;

    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      constexpr CmpFunct kCond[] = {CmpFunct::kEq, CmpFunct::kNe, CmpFunct::kLt,
                                    CmpFunct::kGe, CmpFunct::kLtu, CmpFunct::kGeu};
      const CmpFunct c = kCond[static_cast<unsigned>(in.op) -
                               static_cast<unsigned>(Opcode::kBeq)];
      // The control value is the *decision*, not the operands: lanes
      // whose registers differ but branch the same way stay convergent.
      const auto a = lanes_of(in.rd);
      const auto b = lanes_of(in.rs);
      const bool taken = dispatch<CmpFunct::kCount>(c, [&](auto f) {
        return s.control([&](std::uint32_t lane) -> Word {
          return detail::cmp<f()>(a[lane], b[lane], w) ? 1 : 0;
        }) != 0;
      });
      if (taken) take(branch_target);
      break;
    }
    case Opcode::kBfset:
    case Opcode::kBfclr: {
      const bool set = s.control([&](std::uint32_t lane) -> Word {
        return s.sflag(lane, t, in.rd) ? 1 : 0;
      }) != 0;
      if (set == (in.op == Opcode::kBfset)) take(branch_target);
      break;
    }
    case Opcode::kJ:
      take(static_cast<Addr>(in.imm));
      break;
    case Opcode::kJal:
      write_rd([&](std::uint32_t) { return pc + 1; });
      take(static_cast<Addr>(in.imm));
      break;
    case Opcode::kJr:
      take(s.control([&](std::uint32_t lane) { return reg(lane, in.rs); }));
      break;

    case Opcode::kTCtl:
      switch (static_cast<TCtlFunct>(in.funct)) {
        case TCtlFunct::kSpawn: {
          // A spawn writes the shared thread table, so the entry PC is a
          // control value.
          const ThreadId child = s.allocate_thread(
              s.control([&](std::uint32_t lane) { return reg(lane, in.rs); }));
          res.spawned = child;
          write_rd([&](std::uint32_t) {
            return child == ArchState::kNoThread ? low_mask(w) : truncate(child, w);
          });
          break;
        }
        case TCtlFunct::kJoin: {
          const Word target =
              s.control([&](std::uint32_t lane) { return reg(lane, in.rs); });
          if (target >= s.num_threads())
            throw SimulationError("tjoin: thread id out of range");
          if (s.thread(target).state != ThreadState::kFree) {
            res.blocked_join = true;
            res.join_target = target;
          }
          break;
        }
        case TCtlFunct::kExit:
          res.exited = true;
          break;
        case TCtlFunct::kTid:
          write_rd([&](std::uint32_t) { return truncate(t, w); });
          break;
        case TCtlFunct::kNPes:
          write_rd([&](std::uint32_t) { return truncate(cfg.num_pes, w); });
          break;
        case TCtlFunct::kNThreads:
          write_rd([&](std::uint32_t) { return truncate(s.num_threads(), w); });
          break;
        case TCtlFunct::kCount:
          break;
      }
      break;

    case Opcode::kTMov: {
      const Word target =
          s.control([&](std::uint32_t lane) { return reg(lane, in.rt); });
      if (target >= s.num_threads())
        throw SimulationError("tput/tget: thread id out of range");
      if (static_cast<TMovFunct>(in.funct) == TMovFunct::kPut) {
        s.for_live([&](std::uint32_t lane) {
          s.set_sreg(lane, target, in.rd, reg(lane, in.rs));
        });
      } else {
        write_rd([&](std::uint32_t lane) { return s.sreg(lane, target, in.rs); });
      }
      break;
    }

    default:
      throw SimulationError("execute: unhandled opcode");
  }
  return res;
}

}  // namespace masc::datapath
