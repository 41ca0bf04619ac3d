// Machine checkpoint/restore.
//
// A checkpoint is the machine's complete dynamic state at a cycle
// boundary: because the simulator applies functional effects at issue
// and models visibility purely through cycle numbers (scoreboard,
// per-thread ready times, unit-free times), capturing those numbers
// plus the architectural state is sufficient for a bit-identical
// resume. The predecode table and the program image are *not* included;
// they are pure functions of (config, program), which the restore
// target re-derives by loading the same program first. The blob format
// is internal and same-host (common/binio.hpp); a version bump
// invalidates old blobs, which recovery treats as "restart the job from
// cycle zero" — still deterministic, just slower.
#include <string>

#include "common/binio.hpp"
#include "common/hash.hpp"
#include "sim/machine.hpp"

namespace masc {

namespace {

constexpr const char kMagic[] = "MASC-CKPT";
constexpr std::uint32_t kVersion = 1;

/// FNV-1a (common/hash.hpp) over the loaded program text: cheap identity
/// check so a blob cannot be restored into a machine running a different
/// program. 64 bits suffice here — a collision only mis-accepts a blob
/// the caller explicitly paired with the wrong program; the result cache
/// uses the 128-bit variant because its lookups are implicit.
std::uint64_t text_fingerprint(const ArchState& state) {
  std::uint64_t h = kFnv64OffsetBasis;
  for (std::size_t pc = 0; pc < state.text_size(); ++pc) {
    const std::uint32_t w = state.fetch(static_cast<Addr>(pc));
    for (int i = 0; i < 4; ++i)
      h = fnv1a64_byte(h, static_cast<std::uint8_t>((w >> (8 * i)) & 0xFF));
  }
  return h;
}

}  // namespace

std::string Machine::save_state() const {
  std::string blob;
  BinWriter w(blob);
  w.str(kMagic);
  w.u32(kVersion);
  w.str(config().name());
  w.u64(text_fingerprint(state_));

  w.u64(now_);
  w.u32(last_issued_);
  w.u32(coarse_thread_);
  w.u64(switch_until_);
  w.u64(drain_end_);
  w.u64(scalar_muldiv_free_);
  w.u64(pe_muldiv_free_);
  w.u64(falkoff_free_);
  w.u8(halted_ ? 1 : 0);
  w.u8(all_exited_ ? 1 : 0);

  w.u64(tstate_.size());
  for (const ThreadIssueState& ts : tstate_) {
    w.u64(ts.ready_at);
    w.u64(ts.pending_since);
    w.u8(static_cast<std::uint8_t>(ts.blocked_on));
  }

  state_.save(w);
  scoreboard_.save(w);
  save(stats_, w);
  return blob;
}

void Machine::restore_state(const std::string& blob) {
  BinReader r(blob);
  if (r.str() != kMagic) throw BinError("not a machine checkpoint");
  if (r.u32() != kVersion) throw BinError("unsupported checkpoint version");
  if (r.str() != config().name())
    throw BinError("checkpoint was taken on a different machine config");
  if (r.u64() != text_fingerprint(state_))
    throw BinError("checkpoint was taken on a different program");

  now_ = r.u64();
  last_issued_ = r.u32();
  coarse_thread_ = r.u32();
  switch_until_ = r.u64();
  drain_end_ = r.u64();
  scalar_muldiv_free_ = r.u64();
  pe_muldiv_free_ = r.u64();
  falkoff_free_ = r.u64();
  halted_ = r.u8() != 0;
  all_exited_ = r.u8() != 0;

  if (r.u64() != tstate_.size())
    throw BinError("checkpoint does not match this machine configuration");
  for (ThreadIssueState& ts : tstate_) {
    ts.ready_at = r.u64();
    ts.pending_since = r.u64();
    ts.blocked_on = static_cast<StallCause>(r.u8());
  }

  state_.restore(r);
  scoreboard_.restore(r);
  restore(stats_, r);
  if (!r.done()) throw BinError("trailing bytes after checkpoint");
  // The fallback decode slot and the hazard cache hold derived state;
  // drop them.
  fallback_pc_ = ~Addr{0};
  forget_hazards();
}

}  // namespace masc
