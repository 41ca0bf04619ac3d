// The control unit of the Multithreaded ASC Processor (paper Fig. 3): one
// fetch unit, one rotating-priority scheduler, one instruction status
// table. This is the only copy of the control pass; both datapaths run
// through it — the serial Machine over one ArchState, and the lane
// batch (sim/lane_batch.cpp) over N jobs' state in lockstep.
//
// Timing model (full derivation in DESIGN.md §5): the machine is a
// single-issue, in-order, fine-grain multithreaded pipeline. Each cycle
// every active thread's oldest decoded instruction is hazard-checked
// against the instruction status table; the scheduler issues the first
// ready one in rotating-priority order. Issue = entering the SR stage.
// Stage offsets from the issue cycle i (b = broadcast latency,
// r = reduction latency, both Θ(log p)):
//
//   scalar:    EX i+1, MA i+2, WB i+3; result forwardable end of EX
//              (loads: end of MA; pipelined mul: end of EX2)
//   parallel:  B1..Bb i+1..i+b, PR i+b+1, EX i+b+2, MA i+b+3, WB i+b+4;
//              result forwardable end of EX (PE-internal paths)
//   reduction: B1..Bb, PR i+b+1, R1..Rr i+b+2..i+b+r+1, WB i+b+r+2;
//              result forwardable end of R_r — so a dependent scalar
//              (consumes at EX) or parallel (consumes at B1) instruction
//              of the same thread stalls up to b + r cycles (paper §4.2).
//
// Functional effects are applied at issue; the scoreboard separately
// models when values become *visible*, which is all that timing needs in
// an in-order machine (no speculation, no rollback).
//
// The datapath D derives from Pipeline<D> and supplies exactly four
// things, which the pipeline calls statically (no virtual dispatch on
// the per-cycle path):
//
//   ExecResult exec(ThreadId t, Addr pc, const Instruction&)
//       apply the instruction's data effects; report the control outcome
//   Word control_sreg(ThreadId t, RegNum r)
//       a scalar register whose value steers control (the TMOV target);
//       the lane datapath verifies it is uniform across lanes
//   ThreadContext& thread(ThreadId), num_threads(), active_thread_count()
//       the hardware thread table
//   InstrWord fetch(Addr pc)
//       instruction memory
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "isa/encoding.hpp"
#include "isa/operands.hpp"
#include "sim/arch_state.hpp"
#include "sim/exec.hpp"
#include "sim/scoreboard.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace masc {

/// Non-pipelined execution spends one cycle per classic stage with no
/// overlap (the pre-[7] ASC Processor baseline).
inline constexpr unsigned kSerialCpi = 5;
/// Taken control transfer: resolve at EX end (i+1), refetch IF (i+2),
/// ID (i+3), issue at i+4 — three bubble cycles for the thread.
inline constexpr unsigned kTakenPenalty = 4;
/// Untaken branch: the buffered fall-through may issue once the branch
/// has resolved at the end of EX — one bubble cycle.
inline constexpr unsigned kUntakenPenalty = 2;
/// A freshly spawned (or join-woken) thread refills IF/ID before issuing.
inline constexpr unsigned kStartupPenalty = 4;

/// Reductions routed through the maximum/minimum unit (affected by the
/// MaxMinUnitKind option).
inline bool uses_maxmin_unit(const Instruction& in) {
  if (in.op != Opcode::kRed) return false;
  const auto f = static_cast<RedFunct>(in.funct);
  return f == RedFunct::kMax || f == RedFunct::kMin ||
         f == RedFunct::kMaxU || f == RedFunct::kMinU;
}

template <typename Datapath>
class Pipeline {
 public:
  const MachineConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  Cycle now() const { return now_; }
  bool halted() const { return halted_; }
  bool finished() const {
    return (halted_ && now_ >= drain_end_) || all_exited_;
  }

  /// Advance one clock cycle. Returns false once the machine is finished.
  bool step();

  /// Run to completion (HALT, all threads exited, or the cycle limit).
  /// Returns true if the program finished, false on cycle-limit timeout.
  /// The limit is absolute, so chunked calls are cycle-for-cycle
  /// identical to one straight call.
  bool run(Cycle max_cycles = 100'000'000);

  /// Record per-instruction timing into the trace buffer.
  void enable_trace(std::size_t max_entries = 4096);
  const std::vector<TraceEntry>& trace() const { return trace_; }

 protected:
  explicit Pipeline(const MachineConfig& cfg);

  /// Predecode the program text and make thread 0 issuable at cycle 0.
  /// The datapath loads its own memories and thread table first.
  void load_text(const std::vector<InstrWord>& text);

  struct ThreadIssueState {
    Cycle ready_at = 0;       ///< earliest cycle the next instruction may issue
    Cycle pending_since = 0;  ///< when the current oldest instruction entered ID
    StallCause blocked_on = StallCause::kNone;
  };

  /// One slot of the predecode table: everything about an instruction
  /// that does not depend on runtime state. In hardware decode and
  /// operand analysis run every cycle; on the host the program text is
  /// immutable, so load_text() computes each of these exactly once and
  /// the per-cycle issue logic reduces to table lookups.
  struct DecodedEntry {
    Instruction instr;
    OperandInfo info;
    unsigned avail_off = 1;  ///< avail_offset(instr), config-resolved
    unsigned ex_off = 1;     ///< ex_offset(instr), config-resolved
    bool uses_falkoff_maxmin = false;
    bool valid = false;      ///< decode succeeded at load time
  };

  struct HazardCheck {
    Cycle earliest = 0;
    StallCause cause = StallCause::kNone;
  };

  Datapath& dp() { return static_cast<Datapath&>(*this); }

  const DecodedEntry& decoded(Addr pc);
  DecodedEntry make_entry(InstrWord word) const;
  HazardCheck earliest_issue(ThreadId t, const DecodedEntry& de);
  void issue(ThreadId t, const DecodedEntry& de);
  /// Per-cycle issue stage for fine-grain MT and SMT (`max_issues` = 1
  /// for fine-grain, issue_width for SMT).
  void issue_stage_finegrain(std::uint32_t max_issues);
  /// Per-cycle issue stage for the coarse-grain baseline (§5).
  void issue_stage_coarse();

  /// Cycle (relative to issue) at the end of which the result of `in` is
  /// forwardable to consumers.
  unsigned avail_offset(const Instruction& in) const;
  /// Offset of the EX stage (start of a sequential unit's occupancy).
  unsigned ex_offset(const Instruction& in) const;

  MachineConfig cfg_;
  Scoreboard scoreboard_;
  Stats stats_;
  std::vector<ThreadIssueState> tstate_;
  /// Predecode table covering the loaded program text; PCs past the text
  /// (a wild jump into zeroed instruction memory) fall back to the
  /// shared single-slot cache below, preserving seed decode semantics.
  std::vector<DecodedEntry> predecoded_;
  Addr fallback_pc_ = ~Addr{0};
  DecodedEntry fallback_entry_;
  Cycle now_ = 0;
  ThreadId last_issued_ = 0;
  // Coarse-grain policy state: the resident thread and the cycle until
  // which the pipeline is busy flushing/refilling after a switch.
  ThreadId coarse_thread_ = 0;
  Cycle switch_until_ = 0;
  bool halted_ = false;
  Cycle drain_end_ = 0;
  bool all_exited_ = false;

  // Shared sequential functional units (structural hazards, paper §6.2).
  Cycle scalar_muldiv_free_ = 0;
  Cycle pe_muldiv_free_ = 0;
  // Bit-serial Falkoff max/min unit (predecessor-design option, §6.4):
  // one operation at a time across all threads.
  Cycle falkoff_free_ = 0;

  bool tracing_ = false;
  std::size_t trace_capacity_ = 0;
  std::vector<TraceEntry> trace_;

 private:
  static const MachineConfig& validated(const MachineConfig& cfg) {
    cfg.validate();
    return cfg;
  }
};

template <typename D>
Pipeline<D>::Pipeline(const MachineConfig& cfg)
    : cfg_(validated(cfg)), scoreboard_(cfg, cfg.effective_threads()) {
  tstate_.assign(cfg.effective_threads(), ThreadIssueState{});
  stats_.issued_by_thread.assign(cfg.effective_threads(), 0);
  stats_.thread_stalls.assign(cfg.effective_threads(), {});
}

template <typename D>
void Pipeline<D>::load_text(const std::vector<InstrWord>& text) {
  tstate_[0].ready_at = 0;
  tstate_[0].pending_since = 0;
  // Predecode the whole text once: decode + operand analysis + the
  // config-resolved latency offsets. The issue stage then never touches
  // the decoder again (hardware re-decodes every cycle; the host result
  // is identical because instruction memory is immutable).
  predecoded_.clear();
  predecoded_.reserve(text.size());
  for (const InstrWord w : text) predecoded_.push_back(make_entry(w));
  fallback_pc_ = ~Addr{0};
}

template <typename D>
typename Pipeline<D>::DecodedEntry Pipeline<D>::make_entry(InstrWord word) const {
  DecodedEntry de;
  try {
    de.instr = decode(word);
  } catch (const DecodeError&) {
    // Defer the error to the cycle that actually reaches this PC (seed
    // semantics: decode errors surface at execution, not at load).
    de.valid = false;
    return de;
  }
  de.valid = true;
  de.info = operands_of(de.instr);
  de.avail_off = avail_offset(de.instr);
  de.ex_off = ex_offset(de.instr);
  de.uses_falkoff_maxmin =
      uses_maxmin_unit(de.instr) && cfg_.maxmin_unit == MaxMinUnitKind::kFalkoff;
  return de;
}

template <typename D>
void Pipeline<D>::enable_trace(std::size_t max_entries) {
  tracing_ = true;
  trace_capacity_ = max_entries;
  trace_.reserve(max_entries);
}

template <typename D>
const typename Pipeline<D>::DecodedEntry& Pipeline<D>::decoded(Addr pc) {
  if (pc < predecoded_.size()) {
    const DecodedEntry& de = predecoded_[pc];
    // Re-run the decoder so the original DecodeError surfaces exactly
    // where the seed simulator would have thrown it.
    if (!de.valid) decode(dp().fetch(pc));
    return de;
  }
  // Wild jump past the text: zeroed instruction memory, not worth a
  // table — decode through the single-slot fallback cache.
  if (fallback_pc_ != pc) {
    fallback_entry_ = make_entry(dp().fetch(pc));
    if (!fallback_entry_.valid) decode(dp().fetch(pc));
    fallback_pc_ = pc;
  }
  return fallback_entry_;
}

template <typename D>
unsigned Pipeline<D>::avail_offset(const Instruction& in) const {
  const unsigned b = cfg_.broadcast_latency();
  const unsigned r = cfg_.reduction_latency();
  const unsigned w = cfg_.word_width;

  switch (in.instr_class()) {
    case InstrClass::kScalar: {
      if (in.op == Opcode::kLw) return 2;  // end of MA
      if (in.op == Opcode::kSAlu) {
        const auto f = static_cast<AluFunct>(in.funct);
        if (f == AluFunct::kMul)
          return cfg_.multiplier == MultiplierKind::kSequential ? w : 2;
        if (alu_uses_div(f)) return w;
      }
      return 1;  // end of EX
    }
    case InstrClass::kParallel: {
      if (in.op == Opcode::kPLw) return b + 3;  // end of PE MA
      if (in.op == Opcode::kPAlu || in.op == Opcode::kPAluS) {
        const auto f = static_cast<AluFunct>(in.funct);
        if (f == AluFunct::kMul)
          return cfg_.multiplier == MultiplierKind::kSequential ? b + 1 + w
                                                                : b + 3;
        if (alu_uses_div(f)) return b + 1 + w;
      }
      return b + 2;  // end of PE EX
    }
    case InstrClass::kReduction:
      // Falkoff-style max/min: bit-serial, one bit of the word per cycle
      // after the operands reach the array (the predecessor processors'
      // design, §6.4).
      if (uses_maxmin_unit(in) && cfg_.maxmin_unit == MaxMinUnitKind::kFalkoff)
        return b + 1 + w;
      // End of the last reduction stage; architectural WB is one later.
      return b + r + 1;
  }
  return 1;
}

template <typename D>
unsigned Pipeline<D>::ex_offset(const Instruction& in) const {
  return in.instr_class() == InstrClass::kScalar
             ? 1
             : cfg_.broadcast_latency() + 2;
}

template <typename D>
typename Pipeline<D>::HazardCheck Pipeline<D>::earliest_issue(
    ThreadId t, const DecodedEntry& de) {
  const unsigned b = cfg_.broadcast_latency();
  HazardCheck hc;
  hc.earliest = tstate_[t].ready_at;

  const Instruction& in = de.instr;
  const OperandInfo& info = de.info;

  auto raise = [&](Cycle e, StallCause c) {
    if (e > hc.earliest) {
      hc.earliest = e;
      hc.cause = c;
    }
  };

  auto classify_raw = [&](InstrClass producer, ReadPoint at) {
    if (producer == InstrClass::kReduction)
      return at == ReadPoint::kScalarEx ? StallCause::kReductionHazard
                                        : StallCause::kBroadcastReductionHazard;
    return StallCause::kDataHazard;
  };

  // RAW hazards. A value forwardable at the end of cycle A can feed a
  // consumer stage occurring in cycle A+1 or later; consumer stages are
  // EX/B1 at i+1 (delta 0) and the PE read/execute point at i+b+2
  // (delta b+1), so the constraint is i >= A - delta.
  for (std::uint32_t k = 0; k < info.num_reads; ++k) {
    const RegRead& rr = info.reads[k];
    if (rr.ref.hardwired()) continue;
    const auto& entry = scoreboard_.lookup(t, rr.ref);
    if (entry.avail == 0) continue;
    const Cycle delta = rr.at == ReadPoint::kParallelRead ? b + 1 : 0;
    const Cycle need = entry.avail > delta ? entry.avail - delta : 0;
    raise(need, classify_raw(entry.producer, rr.at));
  }

  // Inter-thread transfers touch the *target* thread's registers; the
  // target id is a read operand, so its functional value is valid by now.
  // It steers which scoreboard entry gates issue, so the datapath reads
  // it as a control value.
  if (in.op == Opcode::kTMov) {
    const Word target = dp().control_sreg(t, in.rt);
    if (target < dp().num_threads()) {
      if (static_cast<TMovFunct>(in.funct) == TMovFunct::kGet) {
        const auto& entry =
            scoreboard_.lookup(target, RegRef{RegSpace::kScalarGpr, in.rs});
        if (entry.avail != 0)
          raise(entry.avail, classify_raw(entry.producer, ReadPoint::kScalarEx));
      } else {
        const auto& entry =
            scoreboard_.lookup(target, RegRef{RegSpace::kScalarGpr, in.rd});
        if (entry.avail != 0) raise(entry.avail, StallCause::kWawHazard);
      }
    }
  }

  // WAW ordering: a register's visible values must appear in program
  // order, so a new writer may not become available before the pending
  // writer (interlock; matters when a short-latency write follows a
  // reduction to the same register).
  if (info.write && !info.write->hardwired()) {
    const auto& pending = scoreboard_.lookup(t, *info.write);
    if (pending.avail != 0) {
      const unsigned off = de.avail_off;
      const Cycle need = pending.avail + 1 > off ? pending.avail + 1 - off : 0;
      raise(need, StallCause::kWawHazard);
    }
  }

  // Structural hazards on the shared sequential multiplier/divider.
  const bool seq_mul = cfg_.multiplier == MultiplierKind::kSequential;
  const bool seq_div = cfg_.divider == DividerKind::kSequential;
  if ((info.uses_scalar_mul && seq_mul) || (info.uses_scalar_div && seq_div)) {
    const unsigned off = de.ex_off;
    const Cycle need = scalar_muldiv_free_ > off ? scalar_muldiv_free_ - off : 0;
    raise(need, StallCause::kStructuralHazard);
  }
  if ((info.uses_pe_mul && seq_mul) || (info.uses_pe_div && seq_div)) {
    const unsigned off = de.ex_off;
    const Cycle need = pe_muldiv_free_ > off ? pe_muldiv_free_ - off : 0;
    raise(need, StallCause::kStructuralHazard);
  }
  if (de.uses_falkoff_maxmin) {
    // The bit-serial unit serves one operation at a time, so concurrent
    // max/min requests from different threads collide — the §6.4 stall
    // the pipelined tree was introduced to remove.
    const unsigned off = de.ex_off;
    const Cycle need = falkoff_free_ > off ? falkoff_free_ - off : 0;
    raise(need, StallCause::kStructuralHazard);
  }

  if (hc.earliest == tstate_[t].ready_at && hc.cause == StallCause::kNone &&
      tstate_[t].ready_at > now_)
    hc.cause = StallCause::kControlPenalty;
  return hc;
}

template <typename D>
void Pipeline<D>::issue(ThreadId t, const DecodedEntry& de) {
  auto& ts = tstate_[t];
  auto& ctx = dp().thread(t);
  const Addr pc = ctx.pc;
  const Instruction& in = de.instr;
  const OperandInfo& info = de.info;

  // Illegal-unit checks (configuration-dependent instruction validity).
  if ((info.uses_scalar_mul || info.uses_pe_mul) &&
      cfg_.multiplier == MultiplierKind::kNone)
    throw SimulationError("MUL executed but no multiplier configured");
  if ((info.uses_scalar_div || info.uses_pe_div) &&
      cfg_.divider == DividerKind::kNone)
    throw SimulationError("DIV/REM executed but no divider configured");

  const ExecResult res = dp().exec(t, pc, in);
  const Cycle avail = now_ + de.avail_off;

  // Record the destination in the instruction status table.
  const InstrClass cls = in.instr_class();
  if (info.write && !info.write->hardwired())
    scoreboard_.record_write(t, *info.write, avail, cls);
  if (in.op == Opcode::kTMov &&
      static_cast<TMovFunct>(in.funct) == TMovFunct::kPut) {
    // rt is re-read AFTER execute: a TPUT to the issuing thread's own rt
    // has just changed it.
    const Word target = dp().control_sreg(t, in.rt);
    if (target < dp().num_threads() && in.rd != 0)
      scoreboard_.record_write(static_cast<ThreadId>(target),
                               RegRef{RegSpace::kScalarGpr, in.rd}, avail,
                               InstrClass::kScalar);
  }

  // Occupy sequential units.
  const bool seq_mul = cfg_.multiplier == MultiplierKind::kSequential;
  const bool seq_div = cfg_.divider == DividerKind::kSequential;
  if ((info.uses_scalar_mul && seq_mul) || (info.uses_scalar_div && seq_div))
    scalar_muldiv_free_ = avail + 1;
  if ((info.uses_pe_mul && seq_mul) || (info.uses_pe_div && seq_div))
    pe_muldiv_free_ = avail + 1;
  if (de.uses_falkoff_maxmin) falkoff_free_ = avail + 1;

  // Thread continuation.
  ctx.pc = res.next_pc;
  Cycle next_ready = now_ + 1;
  if (!cfg_.pipelined_execution) next_ready = now_ + kSerialCpi;
  if (in.is_branch())
    next_ready = now_ + (res.taken_branch ? kTakenPenalty : kUntakenPenalty);
  if (res.blocked_join) {
    ctx.state = ThreadState::kWaiting;
    ctx.join_target = res.join_target;
  }
  if (res.exited) {
    ctx.state = ThreadState::kFree;
    // Wake joiners.
    for (ThreadId j = 0; j < dp().num_threads(); ++j) {
      auto& jc = dp().thread(j);
      if (jc.state == ThreadState::kWaiting && jc.join_target == t) {
        jc.state = ThreadState::kActive;
        tstate_[j].ready_at = now_ + kStartupPenalty;
        tstate_[j].pending_since = tstate_[j].ready_at;
      }
    }
    // The machine finishes the moment the last context frees (keeps the
    // cycles == instructions + idle accounting identity exact).
    if (dp().active_thread_count() == 0) all_exited_ = true;
  }
  if (res.spawned != ArchState::kNoThread) {
    tstate_[res.spawned].ready_at = now_ + kStartupPenalty;
    tstate_[res.spawned].pending_since = tstate_[res.spawned].ready_at;
  }
  if (res.halt) {
    halted_ = true;
    drain_end_ = now_ + 4;  // scalar WB of HALT completes at now_+3
  }

  // Statistics and trace.
  ++stats_.instructions;
  ++stats_.issued_by_class[static_cast<std::size_t>(cls)];
  ++stats_.issued_by_thread[t];
  if (cls != InstrClass::kScalar) ++stats_.broadcast_ops;
  if (cls == InstrClass::kReduction) ++stats_.reduction_ops;
  if (tracing_ && trace_.size() < trace_capacity_) {
    TraceEntry e;
    e.thread = t;
    e.pc = pc;
    e.instr = in;
    e.cls = cls;
    e.pending_since = ts.pending_since;
    e.issue = now_;
    e.avail = avail;
    e.stalled_on = ts.blocked_on;
    e.taken_branch = res.taken_branch;
    trace_.push_back(e);
  }

  ts.ready_at = next_ready;
  ts.pending_since = next_ready;
  ts.blocked_on = StallCause::kNone;
  last_issued_ = t;
}

template <typename D>
void Pipeline<D>::issue_stage_finegrain(std::uint32_t max_issues) {
  const std::uint32_t T = dp().num_threads();
  std::uint32_t issued = 0;
  StallCause first_block = StallCause::kNone;
  bool any_live = false;

  // Evaluate every thread (hardware decodes all in parallel); issue the
  // first ready one(s) in rotating-priority order. SMT re-checks each
  // candidate just before issuing so that same-cycle co-issued
  // instructions can never be mutually dependent.
  const ThreadId rotate_from = last_issued_;
  for (std::uint32_t k = 0; k < T && issued < max_issues; ++k) {
    const ThreadId t = (rotate_from + 1 + k) % T;
    auto& ctx = dp().thread(t);
    if (ctx.state == ThreadState::kFree) continue;
    any_live = true;
    if (ctx.state == ThreadState::kWaiting) {
      ++stats_.thread_stalls[t][static_cast<std::size_t>(StallCause::kJoinWait)];
      if (first_block == StallCause::kNone) first_block = StallCause::kJoinWait;
      continue;
    }
    if (tstate_[t].ready_at > now_) {
      ++stats_.thread_stalls[t][static_cast<std::size_t>(StallCause::kControlPenalty)];
      if (first_block == StallCause::kNone) first_block = StallCause::kControlPenalty;
      continue;
    }
    const DecodedEntry& de = decoded(ctx.pc);
    const HazardCheck hc = earliest_issue(t, de);
    if (hc.earliest <= now_) {
      issue(t, de);
      ++issued;
    } else {
      ++stats_.thread_stalls[t][static_cast<std::size_t>(hc.cause)];
      tstate_[t].blocked_on = hc.cause;
      if (first_block == StallCause::kNone) first_block = hc.cause;
    }
  }

  if (issued == 0) {
    if (any_live) {
      ++stats_.idle_cycles;
      ++stats_.idle_by_cause[static_cast<std::size_t>(first_block)];
    } else {
      all_exited_ = true;  // every thread exited without HALT
    }
  }
}

template <typename D>
void Pipeline<D>::issue_stage_coarse() {
  const std::uint32_t T = dp().num_threads();

  if (dp().active_thread_count() == 0) {
    all_exited_ = true;
    return;
  }

  auto idle = [&](StallCause cause) {
    ++stats_.idle_cycles;
    ++stats_.idle_by_cause[static_cast<std::size_t>(cause)];
  };

  if (switch_until_ > now_) {  // mid-switch: pipeline flushing/refilling
    idle(StallCause::kThreadSwitch);
    return;
  }

  const auto& ctx = dp().thread(coarse_thread_);
  bool resident_runnable = false;
  StallCause resident_cause = StallCause::kJoinWait;
  Cycle resident_wait = ~Cycle{0};
  if (ctx.state == ThreadState::kActive) {
    if (tstate_[coarse_thread_].ready_at > now_) {
      resident_cause = StallCause::kControlPenalty;
      resident_wait = tstate_[coarse_thread_].ready_at - now_;
    } else {
      const DecodedEntry& de = decoded(ctx.pc);
      const HazardCheck hc = earliest_issue(coarse_thread_, de);
      if (hc.earliest <= now_) {
        issue(coarse_thread_, de);
        resident_runnable = true;
      } else {
        resident_cause = hc.cause;
        resident_wait = hc.earliest - now_;
      }
    }
  }
  if (resident_runnable) return;

  // The resident thread cannot issue. Paper §5: coarse-grain switches
  // only on stalls long enough to amortize the many-cycle switch, so
  // short hazards are waited out in place.
  if (resident_wait <= cfg_.switch_penalty) {
    ++stats_.thread_stalls[coarse_thread_][static_cast<std::size_t>(resident_cause)];
    idle(resident_cause);
    return;
  }

  // Long stall (or dead/waiting resident): switch to the next live thread.
  for (std::uint32_t k = 1; k <= T; ++k) {
    const ThreadId t = (coarse_thread_ + k) % T;
    if (t == coarse_thread_) break;
    if (dp().thread(t).state == ThreadState::kFree) continue;
    coarse_thread_ = t;
    switch_until_ = now_ + cfg_.switch_penalty;
    ++stats_.thread_switches;
    idle(StallCause::kThreadSwitch);
    return;
  }
  // No other live thread: wait in place.
  ++stats_.thread_stalls[coarse_thread_][static_cast<std::size_t>(resident_cause)];
  idle(resident_cause);
}

template <typename D>
bool Pipeline<D>::step() {
  if (finished()) return false;

  if (!halted_) {
    switch (cfg_.sched_policy) {
      case ThreadSchedPolicy::kFineGrain:
        issue_stage_finegrain(1);
        break;
      case ThreadSchedPolicy::kSmt:
        issue_stage_finegrain(cfg_.issue_width);
        break;
      case ThreadSchedPolicy::kCoarseGrain:
        issue_stage_coarse();
        break;
    }
  }

  ++now_;
  stats_.cycles = now_;
  return !finished();
}

template <typename D>
bool Pipeline<D>::run(Cycle max_cycles) {
  while (!finished()) {
    if (now_ >= max_cycles) return false;
    step();
  }
  return true;
}

}  // namespace masc
