// Architectural state of the Multithreaded ASC Processor: memories,
// per-thread register contexts, and the hardware thread table.
//
// This state is shared between the cycle-accurate simulator and the fast
// functional simulator, which is what makes differential testing of the
// two meaningful: same state type, same execution semantics, different
// timing models.
#pragma once

#include <vector>

#include "assembler/program.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace masc {

class BinReader;
class BinWriter;

/// The messages of the faults a job's own data can raise. A serial run
/// throws them as SimulationError; a lane batch stops only the faulting
/// lane, with the same text (sim/datapath.hpp).
namespace fault_text {
inline constexpr char kScalarRead[] = "scalar memory read out of range";
inline constexpr char kScalarWrite[] = "scalar memory write out of range";
inline constexpr char kLocalRead[] = "local memory read out of range";
inline constexpr char kLocalWrite[] = "local memory write out of range";
inline constexpr char kGetPe[] = "getpe: PE index out of range";
inline constexpr char kDataTooBig[] = "program data exceeds scalar memory";
}  // namespace fault_text

/// Lifecycle of a hardware thread context (paper Fig. 3, thread status
/// table).
enum class ThreadState : std::uint8_t {
  kFree,     ///< context unallocated
  kActive,   ///< fetching/issuing
  kWaiting,  ///< blocked in TJOIN on another thread
};

struct ThreadContext {
  ThreadState state = ThreadState::kFree;
  Addr pc = 0;
  ThreadId join_target = 0;  ///< valid when state == kWaiting
};

/// TSPAWN's allocation: the lowest free context becomes active at
/// `entry_pc`; returns its id, or ArchState::kNoThread when none is free.
/// Shared by ArchState and the lane batch's one thread table.
ThreadId allocate_thread(std::vector<ThreadContext>& table, Addr entry_pc);
/// Contexts that are not free.
std::uint32_t active_thread_count(const std::vector<ThreadContext>& table);

class ArchState {
 public:
  explicit ArchState(const MachineConfig& cfg);

  /// Load a program image: text into instruction memory, data into scalar
  /// memory, entry PC into thread 0 (which becomes the only active thread).
  void load(const Program& program);

  const MachineConfig& config() const { return cfg_; }

  // --- Scalar side ----------------------------------------------------------
  Word sreg(ThreadId t, RegNum r) const;
  void set_sreg(ThreadId t, RegNum r, Word v);
  bool sflag(ThreadId t, RegNum f) const;
  void set_sflag(ThreadId t, RegNum f, bool v);
  Word scalar_mem(Addr a) const;
  void set_scalar_mem(Addr a, Word v);

  // --- Parallel side --------------------------------------------------------
  Word preg(ThreadId t, RegNum r, PEIndex pe) const;
  void set_preg(ThreadId t, RegNum r, PEIndex pe, Word v);
  bool pflag(ThreadId t, RegNum f, PEIndex pe) const;
  void set_pflag(ThreadId t, RegNum f, PEIndex pe, bool v);
  Word local_mem(PEIndex pe, Addr a) const;
  void set_local_mem(PEIndex pe, Addr a, Word v);

  // --- Hot-path row accessors -----------------------------------------------
  // The backing stores are laid out structure-of-arrays for the PE loops:
  // pregs_[thread][reg][pe] and pflags_[thread][flag][pe], so one
  // (thread, reg) pair is a contiguous num_pes-element row. The execute
  // stage iterates these rows directly (vectorizable), instead of one
  // bounds-checked accessor call per PE. Register/flag 0 is hardwired:
  // callers must route reads of row 0 through zero_row()/ones_row() and
  // skip writes entirely.
  Word* preg_row(ThreadId t, RegNum r) {
    return pregs_.data() + preg_index(t, r, 0);
  }
  const Word* preg_row(ThreadId t, RegNum r) const {
    return pregs_.data() + preg_index(t, r, 0);
  }
  std::uint8_t* pflag_row(ThreadId t, RegNum f) {
    return pflags_.data() + pflag_index(t, f, 0);
  }
  const std::uint8_t* pflag_row(ThreadId t, RegNum f) const {
    return pflags_.data() + pflag_index(t, f, 0);
  }
  Word* local_mem_row(PEIndex pe) {
    return local_mem_.data() + static_cast<std::size_t>(pe) * cfg_.local_mem_bytes;
  }
  /// num_pes zeros — the value row of hardwired register 0.
  const Word* zero_row() const { return zero_row_.data(); }
  /// num_pes ones — the value row of hardwired flag 0 (always active).
  const std::uint8_t* ones_row() const { return ones_row_.data(); }

  /// Bulk accessors used by the asclib data-binding API and by tests.
  std::vector<Word> read_preg_vector(ThreadId t, RegNum r) const;
  void write_preg_vector(ThreadId t, RegNum r, const std::vector<Word>& v);
  std::vector<Word> read_local_column(Addr a) const;   ///< one address across PEs
  void write_local_column(Addr a, const std::vector<Word>& v);

  // --- Instruction memory ---------------------------------------------------
  InstrWord fetch(Addr pc) const;
  std::size_t text_size() const { return instr_mem_.size(); }

  // --- Thread table -----------------------------------------------------------
  ThreadContext& thread(ThreadId t) { return threads_.at(t); }
  const ThreadContext& thread(ThreadId t) const { return threads_.at(t); }
  std::uint32_t num_threads() const { return static_cast<std::uint32_t>(threads_.size()); }
  /// Allocate a free context; returns the thread id or nullopt-like
  /// all-ones when none is free.
  ThreadId allocate_thread(Addr entry_pc) {
    return masc::allocate_thread(threads_, entry_pc);
  }
  std::uint32_t active_thread_count() const {
    return masc::active_thread_count(threads_);
  }

  static constexpr ThreadId kNoThread = ~ThreadId{0};

  // --- Checkpointing ----------------------------------------------------------
  /// Serialize all mutable state (memories, registers, thread table).
  /// Instruction memory is excluded: it is immutable after load(), so a
  /// restore target reloads the same Program first.
  void save(BinWriter& w) const;
  /// Inverse of save(). The ArchState must have been constructed with
  /// the same MachineConfig; throws BinError on a size mismatch.
  void restore(BinReader& r);

 private:
  std::size_t preg_index(ThreadId t, RegNum r, PEIndex pe) const {
    return (static_cast<std::size_t>(t) * cfg_.num_parallel_regs + r) * cfg_.num_pes + pe;
  }
  std::size_t pflag_index(ThreadId t, RegNum f, PEIndex pe) const {
    return (static_cast<std::size_t>(t) * cfg_.num_flag_regs + f) * cfg_.num_pes + pe;
  }

  MachineConfig cfg_;
  std::vector<InstrWord> instr_mem_;
  std::vector<Word> scalar_mem_;
  std::vector<Word> local_mem_;   ///< [pe][addr] flattened
  std::vector<Word> sregs_;       ///< [thread][reg]
  std::vector<std::uint8_t> sflags_;
  std::vector<Word> pregs_;       ///< [thread][reg][pe]
  std::vector<std::uint8_t> pflags_;
  std::vector<ThreadContext> threads_;
  std::vector<Word> zero_row_;            ///< num_pes zeros (register 0)
  std::vector<std::uint8_t> ones_row_;    ///< num_pes ones (flag 0)
};

}  // namespace masc
