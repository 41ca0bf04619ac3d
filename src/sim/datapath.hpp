// The data semantics of every opcode, written once. The paper builds the
// scalar datapath "nearly identical to the PEs" (§6.3); likewise one
// datapath source runs over two lane-state views: SerialLanes (exec.cpp),
// one ArchState with a lane count of 1 fixed at compile time so the lane
// dimension compiles out, and BatchMachine (lane_batch.cpp), L jobs.
//
// Parallel rows are [t][r][pe][lane] (the serial [t][r][pe] at L = 1), so
// row loops run over P·L elements; broadcast-scalar operands are read per
// lane. A view S supplies, besides config() and lanes():
//   for_live(f)            f(lane) for every live lane
//   control(f) -> Word     a value that steers the shared control pass:
//                          serial returns f(0); lanes tap() it, ejecting
//                          divergent lanes to a serial replay
//   fault(lane, msg)       a data fault: serial throws SimulationError at
//                          the faulting PE, lower PEs written; lanes stop
//                          just that lane with the same message
//   sreg/set_sreg/sflag/set_sflag/preg    per-lane registers
//   broadcast(t, r)        sreg r of every lane, indexed by lane (serially
//                          a value, so row stores cannot alias it)
//   preg_row/pflag_row/zero_row/ones_row  P·L-element rows
//   column/act_column(row, lane)  one lane's P values for the reduction
//                          network (serially the row itself, no copy)
//   local_mem, scalar_mem/set_scalar_mem, thread table
// Address loops never run for dead lanes. Register-number and mask checks
// depend only on the instruction, so they are uniform; they fire even
// when the mask is all zero, mask first.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
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

/// f(i) for every active element i = pe·L + lane of a P·L row.
template <typename F>
void for_active(const std::uint8_t* act, std::size_t n, F&& f) {
  for (std::size_t i = 0; i < n; ++i)
    if (act[i]) f(i);
}

/// Execute a parallel-class instruction across the PE array of every
/// lane. Each opcode runs as a tight row loop the compiler can vectorize.
/// Writes to hardwired register/flag 0 have no architectural effect, so
/// those loops are skipped outright — except PLW, whose address bounds
/// checks must still fire.
template <typename S>
void exec_parallel(S& s, ThreadId t, const Instruction& in) {
  using detail::alu_op;
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
      const auto f = static_cast<AluFunct>(in.funct);
      const Word* const a = value_row(s, t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      for_active(act, n, [&](std::size_t i) { d[i] = alu_op(f, a[i], b[i], w); });
      return;
    }
    case Opcode::kPAluS: {
      // Broadcast-scalar form: the scalar value is the LEFT operand.
      if (in.rd == 0) return;
      Word* const d = dest_preg();
      const auto f = static_cast<AluFunct>(in.funct);
      const auto sv = s.broadcast(t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      for_active(act, n, [&](std::size_t i) { d[i] = alu_op(f, sv[i % l], b[i], w); });
      return;
    }
    case Opcode::kPImm: {
      if (in.rd == 0) return;
      Word* const d = dest_preg();
      const Word imm = truncate(static_cast<Word>(in.imm), w);
      const Word* const a = value_row(s, t, in.rs);
      auto alu = [&](AluFunct f) {
        for_active(act, n, [&](std::size_t i) { d[i] = alu_op(f, a[i], imm, w); });
      };
      switch (static_cast<PImmOp>(in.funct)) {
        case PImmOp::kAddi: alu(AluFunct::kAdd); break;
        case PImmOp::kAndi:
          for_active(act, n, [&](std::size_t i) { d[i] = a[i] & imm; });
          break;
        case PImmOp::kOri:
          for_active(act, n, [&](std::size_t i) { d[i] = a[i] | imm; });
          break;
        case PImmOp::kXori:
          for_active(act, n, [&](std::size_t i) { d[i] = a[i] ^ imm; });
          break;
        case PImmOp::kSlli: alu(AluFunct::kSll); break;
        case PImmOp::kSrli: alu(AluFunct::kSrl); break;
        case PImmOp::kSrai: alu(AluFunct::kSra); break;
        case PImmOp::kMovi:
          for_active(act, n, [&](std::size_t i) { d[i] = imm; });
          break;
        case PImmOp::kCount:
          break;
      }
      return;
    }
    case Opcode::kPCmp: {
      if (in.rd == 0) return;
      std::uint8_t* const d = dest_pflag();
      const auto f = static_cast<CmpFunct>(in.funct);
      const Word* const a = value_row(s, t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      for_active(act, n, [&](std::size_t i) {
        d[i] = detail::cmp_op(f, a[i], b[i], w) ? 1 : 0;
      });
      return;
    }
    case Opcode::kPCmpS: {
      if (in.rd == 0) return;
      std::uint8_t* const d = dest_pflag();
      const auto f = static_cast<CmpFunct>(in.funct);
      const auto sv = s.broadcast(t, in.rs);
      const Word* const b = value_row(s, t, in.rt);
      for_active(act, n, [&](std::size_t i) {
        d[i] = detail::cmp_op(f, sv[i % l], b[i], w) ? 1 : 0;
      });
      return;
    }
    case Opcode::kPFlag: {
      if (in.rd == 0) return;
      std::uint8_t* const d = dest_pflag();
      const auto f = static_cast<FlagFunct>(in.funct);
      const std::uint8_t* const a = activity_row(s, t, in.rs);
      const std::uint8_t* const b = activity_row(s, t, in.rt);
      for_active(act, n, [&](std::size_t i) {
        d[i] = detail::flag_op(f, a[i] != 0, b[i] != 0) ? 1 : 0;
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
            s.local_mem(lane, pe, a) = src[i];
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
        for_active(act, n, [&](std::size_t i) { d[i] = sv[i % l]; });
      } else {
        // Element i is PE i / L.
        for_active(act, n, [&](std::size_t i) {
          d[i] = truncate(static_cast<Word>(i / l), w);
        });
      }
      return;
    }
    default:
      throw SimulationError("exec_parallel: not a parallel opcode");
  }
}

/// Execute a reduction-class instruction (uses the reduction network).
/// Each lane's operands reach the network as one P-element column —
/// serially a span over the SoA row, with no copy.
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
    s.for_live([&](std::uint32_t lane) {
      const auto a = s.act_column(act, lane);
      const auto fl = s.column(flags, lane);
      // Index form of the resolver: no one-hot scratch vector.
      const std::size_t first = net::resolve_first_index(fl, a);
      for (std::size_t pe = 0; pe < p; ++pe) {
        if (!a[pe]) continue;
        d[pe * l + lane] = f == RSelFunct::kFirst
                               ? (pe == first ? 1 : 0)
                               // kClearFirst: source flags minus the first
                               : ((fl[pe] && pe != first) ? 1 : 0);
      }
    });
    return;
  }

  const auto f = static_cast<RedFunct>(in.funct);
  switch (f) {
    case RedFunct::kCount_:
    case RedFunct::kAny:
    case RedFunct::kFAnd:
    case RedFunct::kFOr: {
      const std::uint8_t* const flags = activity_row(s, t, in.rs);
      const bool to_flag = f == RedFunct::kFAnd || f == RedFunct::kFOr;
      const auto op = f == RedFunct::kFAnd ? net::ReduceOp::kAnd
                      : f == RedFunct::kFOr ? net::ReduceOp::kOr
                                            : net::ReduceOp::kCountFlags;
      s.for_live([&](std::uint32_t lane) {
        // The response counter's adder tree is wide enough for an exact
        // count (paper §6.4); the architectural result is then truncated
        // to the word width when written to the destination register.
        const Word r =
            net::flag_reduce(op, s.column(flags, lane), s.act_column(act, lane));
        if (to_flag)
          s.set_sflag(lane, t, in.rd, r != 0);
        else
          s.set_sreg(lane, t, in.rd, f == RedFunct::kAny ? (r != 0 ? 1 : 0) : r);
      });
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
      s.for_live([&](std::uint32_t lane) {
        s.set_sreg(lane, t, in.rd,
                   net::tree_reduce(detail::reduce_op_of(f), s.column(vals, lane),
                                    s.act_column(act, lane), w));
      });
      break;
    }
  }
}

/// Execute one instruction of thread `t` at `pc` for every live lane of
/// `s` and return the (shared) control outcome.
template <typename S>
ExecResult execute(S& s, ThreadId t, Addr pc, const Instruction& in) {
  using detail::alu_op;
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
  // rd <- value(lane), for every live lane.
  auto write_rd = [&](auto&& value) {
    s.for_live([&](std::uint32_t lane) { s.set_sreg(lane, t, in.rd, value(lane)); });
  };
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

    case Opcode::kSAlu:
      write_rd([&](std::uint32_t lane) {
        return alu_op(static_cast<AluFunct>(in.funct), reg(lane, in.rs),
                      reg(lane, in.rt), w);
      });
      break;
    case Opcode::kSCmp:
      s.for_live([&](std::uint32_t lane) {
        s.set_sflag(lane, t, in.rd,
                    detail::cmp_op(static_cast<CmpFunct>(in.funct), reg(lane, in.rs),
                                   reg(lane, in.rt), w));
      });
      break;
    case Opcode::kSFlag:
      s.for_live([&](std::uint32_t lane) {
        s.set_sflag(lane, t, in.rd,
                    detail::flag_op(static_cast<FlagFunct>(in.funct),
                                    s.sflag(lane, t, in.rs), s.sflag(lane, t, in.rt)));
      });
      break;

    case Opcode::kAddi:
      write_rd([&](std::uint32_t lane) { return reg(lane, in.rs) + simm; });
      break;
    case Opcode::kAndi:
      write_rd([&](std::uint32_t lane) { return reg(lane, in.rs) & zimm; });
      break;
    case Opcode::kOri:
      write_rd([&](std::uint32_t lane) { return reg(lane, in.rs) | zimm; });
      break;
    case Opcode::kXori:
      write_rd([&](std::uint32_t lane) { return reg(lane, in.rs) ^ zimm; });
      break;
    case Opcode::kSlti:
      write_rd([&](std::uint32_t lane) -> Word {
        return sign_extend(reg(lane, in.rs), w) < in.imm ? 1 : 0;
      });
      break;
    case Opcode::kSltiu:
      write_rd([&](std::uint32_t lane) -> Word {
        return truncate(reg(lane, in.rs), w) < truncate(simm, w) ? 1 : 0;
      });
      break;
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai: {
      const AluFunct f = in.op == Opcode::kSlli   ? AluFunct::kSll
                         : in.op == Opcode::kSrli ? AluFunct::kSrl
                                                  : AluFunct::kSra;
      write_rd([&](std::uint32_t lane) {
        return alu_op(f, reg(lane, in.rs), simm, w);
      });
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
      if (s.control([&](std::uint32_t lane) -> Word {
            return detail::cmp_op(c, reg(lane, in.rd), reg(lane, in.rs), w) ? 1 : 0;
          }) != 0)
        take(branch_target);
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
