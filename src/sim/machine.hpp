// The cycle-accurate Multithreaded ASC Processor model: the shared
// control pass (sim/pipeline.hpp, where the timing model is documented)
// over a single job's ArchState and the functional semantics of
// sim/exec.hpp.
#pragma once

#include <string>

#include "sim/arch_state.hpp"
#include "sim/exec.hpp"
#include "sim/pipeline.hpp"

namespace masc {

class Machine : public Pipeline<Machine> {
 public:
  explicit Machine(const MachineConfig& cfg);

  void load(const Program& program);

  ArchState& state() { return state_; }
  const ArchState& state() const { return state_; }

  /// Serialize the complete dynamic machine state — architectural state,
  /// instruction status table, cumulative statistics, and every internal
  /// timing register — into one binary blob (sim/checkpoint.cpp). A
  /// Machine constructed with the same config, loaded with the same
  /// program, and restore_state()d from the blob continues cycle-for-cycle
  /// and bit-for-bit identically to the original. The trace buffer is
  /// not part of the snapshot.
  std::string save_state() const;

  /// Inverse of save_state(). Call after load()ing the same program;
  /// throws BinError when the blob is malformed or was taken on a
  /// different (config, program) pair.
  void restore_state(const std::string& blob);

 private:
  friend class Pipeline<Machine>;

  // The datapath the control pass drives (see sim/pipeline.hpp).
  ExecResult exec(ThreadId t, Addr pc, const Instruction& in) {
    return execute(state_, t, pc, in);
  }
  Word control_sreg(ThreadId t, RegNum r) const { return state_.sreg(t, r); }
  ThreadContext& thread(ThreadId t) { return state_.thread(t); }
  std::uint32_t num_threads() const { return state_.num_threads(); }
  std::uint32_t active_thread_count() const {
    return state_.active_thread_count();
  }
  InstrWord fetch(Addr pc) const { return state_.fetch(pc); }

  ArchState state_;
};

extern template class Pipeline<Machine>;

}  // namespace masc
