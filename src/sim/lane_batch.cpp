#include "sim/lane_batch.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "sim/arch_state.hpp"
#include "sim/datapath.hpp"
#include "sim/pipeline.hpp"

namespace masc {

namespace {

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

/// Which of n indices (addresses, register rows) a run touched: a
/// bitmap, so each is listed once, and the list, so forgetting them
/// costs what touching them did. The bitmap's 64-bit words cannot alias
/// the machine's Word state, which a byte map would.
class TouchSet {
 public:
  explicit TouchSet(std::size_t n) : bits_((n + 63) / 64, 0) {}

  void add(std::size_t i) {
    std::uint64_t& word = bits_[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (word & bit) return;
    word |= bit;
    list_.push_back(i);
  }

  /// f(i) for every index touched since the last call; then none is.
  template <typename F>
  void forget(F&& f) {
    for (const std::size_t i : list_) {
      f(i);
      bits_[i / 64] = 0;
    }
    list_.clear();
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::size_t> list_;
};

/// N SweepJobs in lockstep: the L-lane state view of sim/datapath.hpp
/// under the one control pass (sim/pipeline.hpp). Control and timing
/// state is SHARED — one thread table, one scoreboard, one Stats —
/// because it is a function of the instruction sequence plus the control
/// values, which are verified uniform across live lanes before every use
/// (tap()). Data state is per-lane, lane index innermost. A snapshot of
/// the shared Stats at the cycle a lane stops is bit-identical to that
/// lane's own serial Stats.
///
/// A machine is built zeroed once and then reused, batch after batch
/// (see kept_machine()): reset() clears only what the last run touched
/// — its text and data image, the scalar and local-memory addresses it
/// stored to, and the parallel register and flag rows it used — so a
/// reused machine is indistinguishable from a fresh one.
class BatchMachine : public Pipeline<BatchMachine> {
 public:
  BatchMachine(const MachineConfig& cfg, std::uint32_t lanes)
      : Pipeline(cfg),
        L_(lanes),
        P_(cfg.num_pes),
        W_(cfg.word_width),
        scalar_stores_(cfg.scalar_mem_bytes),
        local_stores_(cfg.local_mem_bytes),
        preg_rows_(std::size_t{cfg.effective_threads()} * cfg.num_parallel_regs),
        pflag_rows_(std::size_t{cfg.effective_threads()} * cfg.num_flag_regs) {
    const std::size_t T = cfg_.effective_threads();
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
    bcast_pl_.resize(std::size_t{P_} * L_);
    taps_.resize(L_);
  }

  /// Host bytes of the per-lane state, which reuse saves re-zeroing.
  std::size_t footprint() const {
    return (scalar_mem_.size() + local_mem_.size() + pregs_.size() + instr_mem_.size()) *
               sizeof(Word) +
           pflags_.size();
  }

  /// Make the machine what construction made, for another batch of the
  /// same config and lane count.
  void reset() {
    reset_control();
    live_count_ = L_;
    std::fill(stop_.begin(), stop_.end(), LaneStop::kRunning);
    std::fill(fault_msg_.begin(), fault_msg_.end(), nullptr);
    std::fill(threads_.begin(), threads_.end(), ThreadContext{});
    std::fill_n(instr_mem_.begin(), std::exchange(text_words_, 0), 0);
    std::fill_n(scalar_mem_.begin(), std::exchange(image_words_, 0) * L_, 0);
    scalar_stores_.forget([&](std::size_t a) {
      std::fill_n(scalar_mem_.data() + a * L_, L_, 0);
    });
    local_stores_.forget([&](std::size_t a) {
      for (PEIndex pe = 0; pe < P_; ++pe)
        std::fill_n(local_mem_.data() + local_i(pe, static_cast<Addr>(a), 0), L_, 0);
    });
    // Scalar registers and flags are a few KB: zeroed whole.
    std::fill(sregs_.begin(), sregs_.end(), 0);
    std::fill(sflags_.begin(), sflags_.end(), 0);
    const std::size_t row = std::size_t{P_} * L_;
    preg_rows_.forget([&](std::size_t k) { std::fill_n(pregs_.data() + k * row, row, 0); });
    pflag_rows_.forget([&](std::size_t k) { std::fill_n(pflags_.data() + k * row, row, 0); });
  }

  /// Load the shared program image (text + entry; identical across
  /// lanes) and each lane's data segment. A lane whose data does not fit
  /// scalar memory faults exactly as its serial load() would.
  void load(const Program& shared, const std::vector<const Program*>& lane_data) {
    expect(shared.text.size() <= instr_mem_.size(),
           "program text exceeds instruction memory");
    std::copy(shared.text.begin(), shared.text.end(), instr_mem_.begin());
    text_words_ = shared.text.size();
    for (std::uint32_t lane = 0; lane < L_; ++lane) {
      const Program& p = *lane_data[lane];
      if (p.data.size() > cfg_.scalar_mem_bytes) {
        eject_fault(lane, fault_text::kDataTooBig);
        continue;
      }
      image_words_ = std::max(image_words_, p.data.size());
      for (std::size_t a = 0; a < p.data.size(); ++a)
        scalar_mem_[a * L_ + lane] = p.data[a];
    }
    threads_[0].state = ThreadState::kActive;
    threads_[0].pc = shared.entry;
    load_text(shared.text);
  }

  std::uint32_t live_count() const { return live_count_; }
  bool lane_live(std::uint32_t lane) const {
    return stop_[lane] == LaneStop::kRunning;
  }
  LaneStop stop(std::uint32_t lane) const { return stop_[lane]; }
  const char* fault_msg(std::uint32_t lane) const { return fault_msg_[lane]; }

  /// Driver-side masking: the lane's result has been recorded (finish,
  /// cancel, deadline); drop it from lockstep execution. The shared
  /// control state is unaffected — it never depended on this lane's data.
  void deactivate(std::uint32_t lane) {
    if (lane_live(lane)) stop_lane(lane, LaneStop::kDone);
  }

  /// A non-prevalidated throw escaped a batched step: every remaining
  /// live lane replays serially (always correct — a serial replay is the
  /// definition of the contract).
  void eject_all_live() {
    for_live([&](std::uint32_t lane) { stop_lane(lane, LaneStop::kReplay); });
  }

  // --- Lane-state view (sim/datapath.hpp) -------------------------------------
  // Reads/writes of architecturally out-of-range register numbers throw
  // SimulationError here regardless of the serial machine's exact
  // exception type: any throw from a batched step ejects the live lanes
  // to a serial replay, which then reproduces the serial error text.

  std::uint32_t lanes() const { return L_; }

  template <typename F>
  void for_live(F&& f) {
    for (std::uint32_t lane = 0; lane < L_; ++lane)
      if (lane_live(lane)) f(lane);
  }

  template <typename F>
  Word control(F&& f) {
    for_live([&](std::uint32_t lane) { taps_[lane] = f(lane); });
    return tap();
  }

  /// A per-lane data fault: the lane stops with the serial message. With
  /// no live lane left, the shared pass represents nobody and unwinds.
  void fault(std::uint32_t lane, const char* msg) {
    eject_fault(lane, msg);
    if (live_count_ == 0) throw AllLanesDead{};
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
  /// Register r of every lane, lane k's at [k].
  const Word* sreg_lanes(ThreadId t, RegNum r) const {
    if (r == 0) return zero_pl_.data();
    expect(r < cfg_.num_scalar_regs, "lane batch: scalar register out of range");
    return sregs_.data() + sreg_i(t, r, 0);
  }
  template <typename V>
  void set_sreg_lanes(ThreadId t, RegNum r, V value) {
    if (r == 0) return;
    expect(r < cfg_.num_scalar_regs, "scalar register out of range");
    Word* const d = sregs_.data() + sreg_i(t, r, 0);
    for (std::uint32_t lane = 0; lane < L_; ++lane) d[lane] = truncate(value(lane), W_);
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
  Word preg(std::uint32_t lane, ThreadId t, RegNum r, PEIndex pe) {
    if (r == 0) return 0;
    expect(r < cfg_.num_parallel_regs, "lane batch: parallel register out of range");
    return preg_row(t, r)[std::size_t{pe} * L_ + lane];
  }
  /// The scalar operand of a broadcast form as a P*L row, each lane's
  /// value repeated on every PE, so the row loop indexes it like any other
  /// operand. Dead lanes read a stale but in-bounds value; their row
  /// writes are architectural no-ops.
  const Word* broadcast(ThreadId t, RegNum r) {
    const Word* const v = sreg_lanes(t, r);
    for (std::uint32_t pe = 0; pe < P_; ++pe)
      std::copy_n(v, L_, bcast_pl_.begin() + std::size_t{pe} * L_);
    return bcast_pl_.data();
  }

  // [pe][lane] rows of P*L elements; reset() clears the rows handed out.
  Word* preg_row(ThreadId t, RegNum r) {
    const std::size_t k = std::size_t{t} * cfg_.num_parallel_regs + r;
    preg_rows_.add(k);
    return pregs_.data() + k * P_ * L_;
  }
  std::uint8_t* pflag_row(ThreadId t, RegNum f) {
    const std::size_t k = std::size_t{t} * cfg_.num_flag_regs + f;
    pflag_rows_.add(k);
    return pflags_.data() + k * P_ * L_;
  }
  const Word* zero_row() const { return zero_pl_.data(); }
  const std::uint8_t* ones_row() const { return ones_pl_.data(); }

  Word local_mem(std::uint32_t lane, PEIndex pe, Addr a) const {
    return local_mem_[local_i(pe, a, lane)];
  }
  void set_local_mem(std::uint32_t lane, PEIndex pe, Addr a, Word v) {
    local_stores_.add(a);
    local_mem_[local_i(pe, a, lane)] = v;
  }
  Word scalar_mem(std::uint32_t lane, Addr a) const {
    return scalar_mem_[std::size_t{a} * L_ + lane];
  }
  void set_scalar_mem(std::uint32_t lane, Addr a, Word v) {
    scalar_stores_.add(a);
    scalar_mem_[std::size_t{a} * L_ + lane] = truncate(v, W_);
  }

  // The thread table, shared by every lane.

  ThreadContext& thread(ThreadId t) { return threads_[t]; }

  ThreadId allocate_thread(Addr entry_pc) {
    return masc::allocate_thread(threads_, entry_pc);
  }

  std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

 private:
  friend class Pipeline<BatchMachine>;

  std::size_t sreg_i(ThreadId t, RegNum r, std::uint32_t lane) const {
    return (std::size_t{t} * cfg_.num_scalar_regs + r) * L_ + lane;
  }
  std::size_t sflag_i(ThreadId t, RegNum f, std::uint32_t lane) const {
    return (std::size_t{t} * cfg_.num_flag_regs + f) * L_ + lane;
  }
  std::size_t local_i(PEIndex pe, Addr a, std::uint32_t lane) const {
    return (std::size_t{pe} * cfg_.local_mem_bytes + a) * L_ + lane;
  }

  // --- Lane ejection ---------------------------------------------------------

  void stop_lane(std::uint32_t lane, LaneStop why) {
    stop_[lane] = why;
    --live_count_;
  }

  void eject_fault(std::uint32_t lane, const char* msg) {
    stop_lane(lane, LaneStop::kFault);
    fault_msg_[lane] = msg;
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
      if (!lane_live(lane)) continue;
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
      if (!lane_live(i)) continue;
      std::uint32_t count = 0;
      for (std::uint32_t j = 0; j < L_; ++j)
        if (lane_live(j) && taps_[j] == taps_[i]) ++count;
      if (count > best_count) {
        best_count = count;
        best = taps_[i];
      }
    }
    for (std::uint32_t lane = 0; lane < L_; ++lane)
      if (lane_live(lane) && taps_[lane] != best)
        stop_lane(lane, LaneStop::kReplay);
    return best;
  }

  // --- Control-pass hooks (sim/pipeline.hpp) -------------------------------

  /// Datapath hook of the control pass: the TMOV target.
  Word control_sreg(ThreadId t, RegNum r) {
    return control([&](std::uint32_t lane) { return sreg(lane, t, r); });
  }

  std::uint32_t active_thread_count() const {
    return masc::active_thread_count(threads_);
  }

  InstrWord fetch(Addr pc) const {
    expect(pc < instr_mem_.size(), "PC out of instruction memory");
    return instr_mem_[pc];
  }

  /// One instruction for every live lane.
  ExecResult exec(ThreadId t, Addr pc, const Instruction& in) {
    return datapath::execute(*this, t, pc, in);
  }

  // --- Fields ----------------------------------------------------------------

  const std::uint32_t L_;  ///< lanes
  const std::uint32_t P_;  ///< PEs
  const unsigned W_;       ///< word width

  std::vector<LaneStop> stop_;  ///< kRunning while the lane is live
  std::uint32_t live_count_ = 0;
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

  std::vector<Word> bcast_pl_;  ///< P*L broadcast operand (see broadcast())
  std::vector<Word> taps_;   ///< per-lane control tap values

  // What the run since the last reset() touched.
  std::size_t text_words_ = 0;   ///< loaded program text
  std::size_t image_words_ = 0;  ///< longest loaded data segment
  TouchSet scalar_stores_;  ///< scalar addresses stored to
  TouchSet local_stores_;   ///< local addresses stored to, on any PE
  TouchSet preg_rows_;      ///< [thread][reg] rows handed out
  TouchSet pflag_rows_;     ///< [thread][flag] rows handed out
};

/// The BatchMachines this thread ran lately, most recent last, kept for
/// reuse so a batch does not zero megabytes of fresh state: a sweep
/// worker keeps one per config and lane count, up to kKeptBytes in all.
constexpr std::size_t kKeptBytes = std::size_t{64} << 20;

/// A machine for `lanes` lanes of `cfg`, as construction makes it: a
/// kept one reset, or a new one, kept when it fits. `fresh` owns a
/// machine too large to keep.
BatchMachine& kept_machine(const MachineConfig& cfg, std::uint32_t lanes,
                           std::unique_ptr<BatchMachine>& fresh) {
  thread_local std::vector<std::unique_ptr<BatchMachine>> kept;
  for (auto it = kept.begin(); it != kept.end(); ++it)
    if ((*it)->lanes() == lanes && (*it)->config() == cfg) {
      std::rotate(it, it + 1, kept.end());
      kept.back()->reset();
      return *kept.back();
    }
  fresh = std::make_unique<BatchMachine>(cfg, lanes);
  std::size_t bytes = fresh->footprint();
  if (bytes > kKeptBytes) return *fresh;
  for (const auto& m : kept) bytes += m->footprint();
  while (bytes > kKeptBytes) {
    bytes -= kept.front()->footprint();
    kept.erase(kept.begin());
  }
  kept.push_back(std::move(fresh));
  return *kept.back();
}

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

    // A fresh result for lane l, identified as its serial run would be.
    auto lane_result = [&](std::uint32_t l, SweepStatus status) -> SweepResult& {
      const LaneJob& lj = lanes[batch[l]];
      SweepResult& r = results[batch[l]] = SweepResult{};
      r.index = lj.index;
      r.label = lj.job->label;
      r.seed = lj.job->seed;
      r.status = status;
      return r;
    };
    auto finish_lane = [&](BatchMachine& bm, std::uint32_t l,
                           SweepStatus status) {
      SweepResult& r = lane_result(l, status);
      r.finished = status == SweepStatus::kFinished;
      r.stats = bm.stats();
      bm.deactivate(l);
    };

    bool engine_ok = true;
    std::unique_ptr<BatchMachine> unkept;
    BatchMachine* bm = nullptr;
    try {
      bm = &kept_machine(lead.cfg, L, unkept);
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
        switch (bm->stop(l)) {
          case LaneStop::kDone:
            results[batch[l]].host_seconds = share;
            break;
          case LaneStop::kFault: {
            // Identical to the serial catch path: error status, the
            // fault message, default (empty-vector) Stats.
            SweepResult& r = lane_result(l, SweepStatus::kError);
            r.error = bm->fault_msg(l);
            r.host_seconds = share;
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
  for (const std::size_t k : replay)
    results[k] = run_sweep_job(*lanes[k].job, lanes[k].index);
  if (report) *report = rep;
  return results;
}

}  // namespace masc
