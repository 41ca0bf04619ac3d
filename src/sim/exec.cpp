#include "sim/exec.hpp"

#include <span>

#include "common/bits.hpp"
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

using detail::alu_op;
using detail::cmp_op;
using detail::flag_op;
using detail::reduce_op_of;

/// The activity row of a masked parallel/reduction instruction: flag 0 is
/// hardwired to 1, so an unmasked instruction reads the all-ones row.
/// Bounds-checked once per operand (not per PE): decode() yields 5-bit
/// register and 3-bit mask fields, which can exceed the configured file
/// sizes, and the raw row pointers would otherwise read out of bounds.
const std::uint8_t* activity_row(const ArchState& st, ThreadId t, RegNum mask) {
  if (mask == 0) return st.ones_row();
  expect(mask < st.config().num_flag_regs, "parallel flag out of range");
  return st.pflag_row(t, mask);
}

/// Parallel-register source row: register 0 is hardwired to 0.
const Word* value_row(const ArchState& st, ThreadId t, RegNum r) {
  if (r == 0) return st.zero_row();
  expect(r < st.config().num_parallel_regs, "parallel register out of range");
  return st.preg_row(t, r);
}

/// Execute a parallel-class instruction across the PE array.
///
/// The per-PE state is stored structure-of-arrays (one contiguous row per
/// (thread, register)), so each opcode runs as a tight row loop the
/// compiler can vectorize, rather than a per-PE dispatch through the
/// bounds-checked scalar accessors. Writes to hardwired register/flag 0
/// have no architectural effect, so those loops are skipped outright —
/// except PLW, whose address bounds checks must still fire.
void exec_parallel(ArchState& st, ThreadId t, const Instruction& in) {
  const auto& cfg = st.config();
  const unsigned w = cfg.word_width;
  const std::uint32_t p = cfg.num_pes;
  const std::uint8_t* const act = activity_row(st, t, in.mask);

  // Mirror the range checks the scalar write accessors performed. These
  // fire unconditionally — even when the activity vector is all zeros, in
  // which case the seed's per-PE accessors never ran their check. That is
  // deliberately stricter: an encodable but out-of-range field in a
  // program word faults deterministically instead of depending on mask
  // contents. (Source operands are checked the same way, in value_row()
  // and activity_row().)
  auto check_preg = [&](RegNum r) {
    expect(r < cfg.num_parallel_regs, "parallel register out of range");
  };
  auto check_pflag = [&](RegNum f) {
    expect(f < cfg.num_flag_regs, "parallel flag out of range");
  };

  switch (in.op) {
    case Opcode::kPAlu: {
      if (in.rd == 0) return;
      check_preg(in.rd);
      const auto f = static_cast<AluFunct>(in.funct);
      const Word* const a = value_row(st, t, in.rs);
      const Word* const b = value_row(st, t, in.rt);
      Word* const d = st.preg_row(t, in.rd);
      for (std::size_t pe = 0; pe < p; ++pe)
        if (act[pe]) d[pe] = alu_op(f, a[pe], b[pe], w);
      return;
    }
    case Opcode::kPAluS: {
      // Broadcast-scalar form: the scalar value is the LEFT operand.
      if (in.rd == 0) return;
      check_preg(in.rd);
      const auto f = static_cast<AluFunct>(in.funct);
      const Word s = st.sreg(t, in.rs);
      const Word* const b = value_row(st, t, in.rt);
      Word* const d = st.preg_row(t, in.rd);
      for (std::size_t pe = 0; pe < p; ++pe)
        if (act[pe]) d[pe] = alu_op(f, s, b[pe], w);
      return;
    }
    case Opcode::kPImm: {
      if (in.rd == 0) return;
      check_preg(in.rd);
      const Word imm = truncate(static_cast<Word>(in.imm), w);
      const Word* const a = value_row(st, t, in.rs);
      Word* const d = st.preg_row(t, in.rd);
      switch (static_cast<PImmOp>(in.funct)) {
        case PImmOp::kAddi:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = alu_op(AluFunct::kAdd, a[pe], imm, w);
          break;
        case PImmOp::kAndi:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = a[pe] & imm;
          break;
        case PImmOp::kOri:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = a[pe] | imm;
          break;
        case PImmOp::kXori:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = a[pe] ^ imm;
          break;
        case PImmOp::kSlli:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = alu_op(AluFunct::kSll, a[pe], imm, w);
          break;
        case PImmOp::kSrli:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = alu_op(AluFunct::kSrl, a[pe], imm, w);
          break;
        case PImmOp::kSrai:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = alu_op(AluFunct::kSra, a[pe], imm, w);
          break;
        case PImmOp::kMovi:
          for (std::size_t pe = 0; pe < p; ++pe)
            if (act[pe]) d[pe] = imm;
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
      const Word* const a = value_row(st, t, in.rs);
      const Word* const b = value_row(st, t, in.rt);
      std::uint8_t* const d = st.pflag_row(t, in.rd);
      for (std::size_t pe = 0; pe < p; ++pe)
        if (act[pe]) d[pe] = cmp_op(f, a[pe], b[pe], w) ? 1 : 0;
      return;
    }
    case Opcode::kPCmpS: {
      if (in.rd == 0) return;
      check_pflag(in.rd);
      const auto f = static_cast<CmpFunct>(in.funct);
      const Word s = st.sreg(t, in.rs);
      const Word* const b = value_row(st, t, in.rt);
      std::uint8_t* const d = st.pflag_row(t, in.rd);
      for (std::size_t pe = 0; pe < p; ++pe)
        if (act[pe]) d[pe] = cmp_op(f, s, b[pe], w) ? 1 : 0;
      return;
    }
    case Opcode::kPFlag: {
      if (in.rd == 0) return;
      check_pflag(in.rd);
      const auto f = static_cast<FlagFunct>(in.funct);
      const std::uint8_t* const a = activity_row(st, t, in.rs);
      const std::uint8_t* const b = activity_row(st, t, in.rt);
      std::uint8_t* const d = st.pflag_row(t, in.rd);
      for (std::size_t pe = 0; pe < p; ++pe)
        if (act[pe]) d[pe] = flag_op(f, a[pe] != 0, b[pe] != 0) ? 1 : 0;
      return;
    }
    case Opcode::kPLw: {
      if (in.rd != 0) check_preg(in.rd);
      const Word* const base = value_row(st, t, in.rs);
      Word* const d = in.rd != 0 ? st.preg_row(t, in.rd) : nullptr;
      // The only row loops that can fault mid-array: the fault fires at
      // the lowest faulting PE with every lower PE already applied.
      for (PEIndex pe = 0; pe < p; ++pe) {
        if (!act[pe]) continue;
        const Addr a = truncate(base[pe] + static_cast<Word>(in.imm), 32);
        expect(a < cfg.local_mem_bytes, "local memory read out of range");
        if (d) d[pe] = st.local_mem_row(pe)[a];
      }
      return;
    }
    case Opcode::kPSw: {
      const Word* const base = value_row(st, t, in.rs);
      const Word* const src = value_row(st, t, in.rd);
      for (PEIndex pe = 0; pe < p; ++pe) {
        if (!act[pe]) continue;
        const Addr a = truncate(base[pe] + static_cast<Word>(in.imm), 32);
        expect(a < cfg.local_mem_bytes, "local memory write out of range");
        st.local_mem_row(pe)[a] = src[pe];
      }
      return;
    }
    case Opcode::kPMov: {
      if (in.rd == 0) return;
      check_preg(in.rd);
      Word* const d = st.preg_row(t, in.rd);
      if (static_cast<PMovFunct>(in.funct) == PMovFunct::kBcast) {
        const Word s = st.sreg(t, in.rs);
        for (std::size_t pe = 0; pe < p; ++pe)
          if (act[pe]) d[pe] = s;
      } else {
        for (std::size_t pe = 0; pe < p; ++pe)
          if (act[pe]) d[pe] = truncate(static_cast<Word>(pe), w);
      }
      return;
    }
    default:
      throw SimulationError("exec_parallel: not a parallel opcode");
  }
}

/// Execute a reduction-class instruction (uses the reduction network).
/// Operand vectors are passed to the network as spans over the SoA
/// register rows — no per-instruction gather copies.
void exec_reduction(ArchState& st, ThreadId t, const Instruction& in) {
  const auto& cfg = st.config();
  const unsigned w = cfg.word_width;
  const std::uint32_t p = cfg.num_pes;
  const std::span<const std::uint8_t> act{activity_row(st, t, in.mask), p};

  if (in.op == Opcode::kRSel) {
    // Multiple-response resolver: parallel-prefix over the flag vector.
    const std::span<const std::uint8_t> flags{activity_row(st, t, in.rs), p};
    // Index form of the resolver: no one-hot scratch vector on this
    // per-instruction path.
    const std::size_t first = net::resolve_first_index(flags, act);
    const auto f = static_cast<RSelFunct>(in.funct);
    if (in.rd == 0) return;  // flag 0 is hardwired; writes are dropped
    expect(in.rd < cfg.num_flag_regs, "parallel flag out of range");
    std::uint8_t* const d = st.pflag_row(t, in.rd);
    for (std::size_t pe = 0; pe < p; ++pe) {
      if (!act[pe]) continue;
      if (f == RSelFunct::kFirst)
        d[pe] = pe == first ? 1 : 0;
      else  // kClearFirst: source flags minus the first responder
        d[pe] = (flags[pe] && pe != first) ? 1 : 0;
    }
    return;
  }

  const auto f = static_cast<RedFunct>(in.funct);
  switch (f) {
    case RedFunct::kCount_:
    case RedFunct::kAny: {
      const std::span<const std::uint8_t> flags{activity_row(st, t, in.rs), p};
      // The response counter's adder tree is wide enough for an exact
      // count (paper §6.4); the architectural result is then truncated to
      // the word width when written to the destination register.
      const Word count = net::flag_reduce(net::ReduceOp::kCountFlags, flags, act);
      st.set_sreg(t, in.rd, f == RedFunct::kAny ? (count != 0 ? 1 : 0) : count);
      break;
    }
    case RedFunct::kFAnd:
    case RedFunct::kFOr: {
      const std::span<const std::uint8_t> flags{activity_row(st, t, in.rs), p};
      const auto op = f == RedFunct::kFAnd ? net::ReduceOp::kAnd : net::ReduceOp::kOr;
      st.set_sflag(t, in.rd, net::flag_reduce(op, flags, act) != 0);
      break;
    }
    case RedFunct::kGetPe: {
      const Word idx = st.sreg(t, in.rt);
      if (idx >= cfg.num_pes)
        throw SimulationError("getpe: PE index out of range");
      // Routed through the OR tree with a single enabled leaf; the
      // activity mask does not gate it (the CU selects the leaf directly).
      st.set_sreg(t, in.rd, st.preg(t, in.rs, idx));
      break;
    }
    default: {
      const std::span<const Word> vals{value_row(st, t, in.rs), p};
      st.set_sreg(t, in.rd, net::tree_reduce(reduce_op_of(f), vals, act, w));
      break;
    }
  }
}

}  // namespace

ExecResult execute(ArchState& st, ThreadId t, Addr pc, const Instruction& in) {
  ExecResult res;
  res.next_pc = pc + 1;
  const auto& cfg = st.config();
  const unsigned w = cfg.word_width;

  switch (in.instr_class()) {
    case InstrClass::kParallel:
      exec_parallel(st, t, in);
      return res;
    case InstrClass::kReduction:
      exec_reduction(st, t, in);
      return res;
    case InstrClass::kScalar:
      break;
  }

  switch (in.op) {
    case Opcode::kSys:
      if (in.is_halt()) res.halt = true;
      break;

    case Opcode::kSAlu:
      st.set_sreg(t, in.rd,
                  alu_op(static_cast<AluFunct>(in.funct), st.sreg(t, in.rs),
                         st.sreg(t, in.rt), w));
      break;

    case Opcode::kSCmp:
      st.set_sflag(t, in.rd,
                   cmp_op(static_cast<CmpFunct>(in.funct), st.sreg(t, in.rs),
                          st.sreg(t, in.rt), w));
      break;

    case Opcode::kSFlag:
      st.set_sflag(t, in.rd,
                   flag_op(static_cast<FlagFunct>(in.funct),
                           st.sflag(t, in.rs), st.sflag(t, in.rt)));
      break;

    case Opcode::kAddi:
      st.set_sreg(t, in.rd, st.sreg(t, in.rs) + static_cast<Word>(in.imm));
      break;
    case Opcode::kAndi:
      // Logical immediates zero-extend their 16-bit field (MIPS-style),
      // so lui+ori can synthesize any 32-bit constant.
      st.set_sreg(t, in.rd, st.sreg(t, in.rs) & (static_cast<Word>(in.imm) & 0xFFFFu));
      break;
    case Opcode::kOri:
      st.set_sreg(t, in.rd, st.sreg(t, in.rs) | (static_cast<Word>(in.imm) & 0xFFFFu));
      break;
    case Opcode::kXori:
      st.set_sreg(t, in.rd, st.sreg(t, in.rs) ^ (static_cast<Word>(in.imm) & 0xFFFFu));
      break;
    case Opcode::kSlti:
      st.set_sreg(t, in.rd,
                  sign_extend(st.sreg(t, in.rs), w) < in.imm ? 1 : 0);
      break;
    case Opcode::kSltiu:
      st.set_sreg(t, in.rd,
                  truncate(st.sreg(t, in.rs), w) <
                          truncate(static_cast<Word>(in.imm), w)
                      ? 1 : 0);
      break;
    case Opcode::kSlli:
      st.set_sreg(t, in.rd, alu_op(AluFunct::kSll, st.sreg(t, in.rs),
                                   static_cast<Word>(in.imm), w));
      break;
    case Opcode::kSrli:
      st.set_sreg(t, in.rd, alu_op(AluFunct::kSrl, st.sreg(t, in.rs),
                                   static_cast<Word>(in.imm), w));
      break;
    case Opcode::kSrai:
      st.set_sreg(t, in.rd, alu_op(AluFunct::kSra, st.sreg(t, in.rs),
                                   static_cast<Word>(in.imm), w));
      break;
    case Opcode::kLui:
      st.set_sreg(t, in.rd, static_cast<Word>(in.imm) << 16);
      break;

    case Opcode::kLw:
      st.set_sreg(t, in.rd,
                  st.scalar_mem(st.sreg(t, in.rs) + static_cast<Word>(in.imm)));
      break;
    case Opcode::kSw:
      st.set_scalar_mem(st.sreg(t, in.rs) + static_cast<Word>(in.imm),
                        st.sreg(t, in.rd));
      break;

    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      const Word a = st.sreg(t, in.rd), b = st.sreg(t, in.rs);
      bool taken = false;
      switch (in.op) {
        case Opcode::kBeq: taken = cmp_op(CmpFunct::kEq, a, b, w); break;
        case Opcode::kBne: taken = cmp_op(CmpFunct::kNe, a, b, w); break;
        case Opcode::kBlt: taken = cmp_op(CmpFunct::kLt, a, b, w); break;
        case Opcode::kBge: taken = cmp_op(CmpFunct::kGe, a, b, w); break;
        case Opcode::kBltu: taken = cmp_op(CmpFunct::kLtu, a, b, w); break;
        case Opcode::kBgeu: taken = cmp_op(CmpFunct::kGeu, a, b, w); break;
        default: break;
      }
      if (taken) {
        res.next_pc = static_cast<Addr>(
            static_cast<std::int64_t>(pc) + 1 + in.imm);
        res.taken_branch = true;
      }
      break;
    }
    case Opcode::kBfset:
    case Opcode::kBfclr: {
      const bool set = st.sflag(t, in.rd);
      if (set == (in.op == Opcode::kBfset)) {
        res.next_pc = static_cast<Addr>(
            static_cast<std::int64_t>(pc) + 1 + in.imm);
        res.taken_branch = true;
      }
      break;
    }
    case Opcode::kJ:
      res.next_pc = static_cast<Addr>(in.imm);
      res.taken_branch = true;
      break;
    case Opcode::kJal:
      st.set_sreg(t, in.rd, pc + 1);
      res.next_pc = static_cast<Addr>(in.imm);
      res.taken_branch = true;
      break;
    case Opcode::kJr:
      res.next_pc = st.sreg(t, in.rs);
      res.taken_branch = true;
      break;

    case Opcode::kTCtl:
      switch (static_cast<TCtlFunct>(in.funct)) {
        case TCtlFunct::kSpawn: {
          const ThreadId child = st.allocate_thread(st.sreg(t, in.rs));
          res.spawned = child;
          st.set_sreg(t, in.rd,
                      child == ArchState::kNoThread ? low_mask(w)
                                                    : truncate(child, w));
          break;
        }
        case TCtlFunct::kJoin: {
          const Word target = st.sreg(t, in.rs);
          if (target >= st.num_threads())
            throw SimulationError("tjoin: thread id out of range");
          if (st.thread(target).state != ThreadState::kFree) {
            res.blocked_join = true;
            res.join_target = target;
          }
          break;
        }
        case TCtlFunct::kExit:
          res.exited = true;
          break;
        case TCtlFunct::kTid:
          st.set_sreg(t, in.rd, truncate(t, w));
          break;
        case TCtlFunct::kNPes:
          st.set_sreg(t, in.rd, truncate(cfg.num_pes, w));
          break;
        case TCtlFunct::kNThreads:
          st.set_sreg(t, in.rd, truncate(st.num_threads(), w));
          break;
        case TCtlFunct::kCount:
          break;
      }
      break;

    case Opcode::kTMov: {
      const Word target = st.sreg(t, in.rt);
      if (target >= st.num_threads())
        throw SimulationError("tput/tget: thread id out of range");
      if (static_cast<TMovFunct>(in.funct) == TMovFunct::kPut)
        st.set_sreg(target, in.rd, st.sreg(t, in.rs));
      else
        st.set_sreg(t, in.rd, st.sreg(target, in.rs));
      break;
    }

    default:
      throw SimulationError("execute: unhandled opcode");
  }
  return res;
}

}  // namespace masc
