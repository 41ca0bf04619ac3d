#include "sim/scoreboard.hpp"

#include "common/binio.hpp"
#include "common/error.hpp"

namespace masc {

const char* to_string(StallCause c) {
  switch (c) {
    case StallCause::kNone: return "none";
    case StallCause::kReductionHazard: return "reduction";
    case StallCause::kBroadcastReductionHazard: return "broadcast-reduction";
    case StallCause::kDataHazard: return "data";
    case StallCause::kWawHazard: return "waw";
    case StallCause::kStructuralHazard: return "structural";
    case StallCause::kControlPenalty: return "control";
    case StallCause::kJoinWait: return "join";
    case StallCause::kThreadSwitch: return "thread-switch";
    case StallCause::kCauseCount: break;
  }
  return "?cause";
}

Scoreboard::Scoreboard(const MachineConfig& cfg, std::uint32_t threads)
    : sgpr_(cfg.num_scalar_regs),
      sflag_(cfg.num_flag_regs),
      pgpr_(cfg.num_parallel_regs),
      pflag_(cfg.num_flag_regs) {
  per_thread_ = static_cast<std::size_t>(sgpr_) + sflag_ + pgpr_ + pflag_;
  entries_.assign(per_thread_ * threads, Entry{});
}

void Scoreboard::save(BinWriter& w) const {
  // Field-by-field: Entry has padding that must not enter the blob.
  w.u64(entries_.size());
  for (const Entry& e : entries_) {
    w.u64(e.avail);
    w.u8(static_cast<std::uint8_t>(e.producer));
  }
}

void Scoreboard::restore(BinReader& r) {
  if (r.u64() != entries_.size())
    throw BinError("checkpoint does not match this machine configuration");
  for (Entry& e : entries_) {
    e.avail = r.u64();
    e.producer = static_cast<InstrClass>(r.u8());
  }
}

}  // namespace masc
