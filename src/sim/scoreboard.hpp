// Instruction status table (paper Fig. 3): tracks, for every
// architectural register of every thread, when the most recent in-flight
// writer's value becomes forwardable, and which instruction class
// produced it. The decode-stage hazard check consults this to compute the
// earliest legal issue cycle of a candidate instruction.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "isa/instruction.hpp"
#include "isa/registers.hpp"
#include "sim/stats.hpp"

namespace masc {

class BinReader;
class BinWriter;

class Scoreboard {
 public:
  Scoreboard(const MachineConfig& cfg, std::uint32_t threads);

  struct Entry {
    Cycle avail = 0;             ///< end of cycle at which the value is
                                 ///< forwardable (0 = long since ready)
    InstrClass producer = InstrClass::kScalar;
  };

  // Inline: the issue stage looks registers up several times a cycle.
  const Entry& lookup(ThreadId t, RegRef ref) const {
    if (ref.hardwired()) return zero_;
    return entries_.at(index(t, ref));
  }
  void record_write(ThreadId t, RegRef ref, Cycle avail, InstrClass producer) {
    if (ref.hardwired()) return;
    auto& e = entries_.at(index(t, ref));
    e.avail = avail;
    e.producer = producer;
  }

  /// Checkpoint the full table (see Machine::save_state).
  void save(BinWriter& w) const;
  void restore(BinReader& r);  ///< throws BinError on a shape mismatch

 private:
  std::size_t index(ThreadId t, RegRef ref) const {
    std::size_t base = per_thread_ * t;
    switch (ref.space) {
      case RegSpace::kScalarGpr: break;
      case RegSpace::kScalarFlag: base += sgpr_; break;
      case RegSpace::kParallelGpr: base += sgpr_ + sflag_; break;
      case RegSpace::kParallelFlag: base += static_cast<std::size_t>(sgpr_) + sflag_ + pgpr_; break;
    }
    return base + ref.num;
  }

  std::uint32_t sgpr_, sflag_, pgpr_, pflag_;
  std::size_t per_thread_;
  std::vector<Entry> entries_;
  Entry zero_{};  ///< hardwired registers always resolve here
};

}  // namespace masc
