// Multi-chip MASC fabric: K cycle-accurate Machine chips joined by a
// simulated pipelined inter-chip reduction/broadcast network.
//
// The paper models one chip; its future-work section (and Tascade's
// cascaded cross-chip reduction trees) ask what happens when the
// reduction spans chips and the latency gets much deeper. The fabric
// answers that question in simulation: each chip keeps its intra-chip
// broadcast/reduction trees and scoreboard untouched, and a
// fabric-level scheduler advances all chips in cycle-lockstep chunks
// ("rounds"). Chips talk to the fabric through a
// small mailbox ABI in their scalar memory (software-visible, so guest
// programs drive collectives with ordinary lw/sw — no new ISA opcodes,
// in the associative spirit of keeping the control processor simple):
//
//   word  mailbox_base + 0  REQ        collective opcode, posted LAST by
//                                      the chip (0 = none; see CollectiveOp)
//   word  mailbox_base + 1  ADDR       scalar-word address of the payload
//   word  mailbox_base + 2  COUNT      payload length in words
//   word  mailbox_base + 3  ACK        completion sequence number,
//                                      written by the fabric (chips spin
//                                      on it; wraps at the word width)
//   word  mailbox_base + 4  CHIP_ID    written once by Fabric::load()
//   word  mailbox_base + 5  NUM_CHIPS  written once by Fabric::load();
//                                      reads 0 on a bare single Machine,
//                                      so kernels can skip the fabric
//                                      path and stay runnable on 1 chip
//
// A collective completes only when EVERY chip has posted a matching
// (op, count) request — the fabric reduces the K payloads elementwise,
// models the up-tree/down-tree latency of the configured topology, and
// delivers the combined vector back to every chip's ADDR followed by
// the ACK bump. Mismatched requests and chips that halt while others
// wait are protocol errors (FabricError), not deadlocks.
//
// Determinism contract (docs/MULTICHIP.md): chips advance in index
// order within a round, so fabric results are bit-identical across
// runs and across checkpoint/resume. Every FabricConfig knob changes
// simulated behavior, so all of them are part of sweep_cache_key() and
// of the checkpoint identity.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "sim/machine.hpp"
#include "sim/stats.hpp"

namespace masc {
class BinReader;
class BinWriter;
}  // namespace masc

namespace masc::fabric {

/// Guest-visible mailbox word offsets (from FabricConfig::mailbox_base).
inline constexpr Addr kMboxReq = 0;
inline constexpr Addr kMboxAddr = 1;
inline constexpr Addr kMboxCount = 2;
inline constexpr Addr kMboxAck = 3;
inline constexpr Addr kMboxChipId = 4;
inline constexpr Addr kMboxNumChips = 5;
inline constexpr Addr kMboxWords = 6;

/// Collective opcodes a chip may post in REQ. Every op is an
/// allreduce: all chips contribute COUNT words, all chips receive the
/// combined COUNT words (barrier moves no data, COUNT must be 0).
enum class CollectiveOp : std::uint8_t {
  kNone = 0,
  kBarrier = 1,
  kOr = 2,      ///< bitwise OR (BFS frontier merge)
  kSum = 3,     ///< wrapping unsigned sum
  kMaxU = 4,    ///< unsigned max
  kMinU = 5,    ///< unsigned min
};

const char* to_string(CollectiveOp op);

enum class Topology : std::uint8_t {
  kChain = 0,  ///< linear chain: depth K-1
  kTree = 1,   ///< binary reduction tree: depth ceil(log2 K)
};

const char* to_string(Topology t);

/// Parse "chain" / "tree"; throws ConfigError on anything else.
Topology parse_topology(const std::string& name);

/// Largest payload a single collective may carry, in words. Guards the
/// fabric against a buggy guest posting COUNT = 0xFFFF.
inline constexpr std::uint32_t kMaxCollectiveWords = 4096;

/// Inter-chip network parameters. Like MachineConfig this is a plain
/// aggregate: result_cache_test.cpp pins sizeof(FabricConfig) so a
/// field added here cannot silently miss sweep_cache_key(), name(),
/// or the checkpoint identity.
struct FabricConfig {
  std::uint32_t chips = 1;              ///< K simulated chips (1..256)
  Topology topology = Topology::kTree;  ///< inter-chip network shape
  std::uint32_t link_latency = 4;       ///< cycles per inter-chip hop
  std::uint32_t link_width_words = 1;   ///< words per flit on a link
  /// Lockstep granularity: chips advance this many cycles per round and
  /// the fabric resolves collectives only at round boundaries. Smaller
  /// = finer-grained (lower floor on observed collective latency),
  /// larger = faster host simulation.
  std::uint32_t chunk_cycles = 64;
  /// Scalar-word address of the 6-word mailbox in every chip's scalar
  /// memory. Must stay reachable by `li` at word_width 16, i.e.
  /// <= 32767, so guest code can materialize it in one pseudo-op.
  std::uint32_t mailbox_base = 31744;

  /// Throws ConfigError on out-of-range values.
  void validate() const;

  /// Hops from the leaves to the reduction root (0 when chips == 1).
  unsigned reduce_depth() const {
    if (chips <= 1) return 0;
    return topology == Topology::kChain ? chips - 1 : ceil_log2(chips);
  }

  /// Flits needed to move `words` payload words across one link.
  std::uint64_t flits(std::uint32_t words) const {
    if (words == 0) return 1;  // a barrier still occupies one flit slot
    return (words + link_width_words - 1) / link_width_words;
  }

  /// Modeled latency of one collective: payload up the reduce tree and
  /// the combined result back down, pipelined per flit —
  /// 2 * depth * link_latency + (flits - 1).
  Cycle collective_latency(std::uint32_t words) const {
    return 2ull * reduce_depth() * link_latency + (flits(words) - 1);
  }

  /// Rounds between request pickup and delivery (>= 1: delivery is
  /// never visible inside the round the request completed in).
  std::uint64_t delivery_rounds(std::uint32_t words) const {
    const Cycle lat = collective_latency(words);
    return lat == 0 ? 1 : (lat + chunk_cycles - 1) / chunk_cycles;
  }

  /// Canonical compact name, e.g. "c4.tree.l4.w1.q64.mb31744" — the
  /// fabric analogue of MachineConfig::name(), used for checkpoint
  /// identity and result labeling.
  std::string name() const;
};

/// log2 buckets for the collective-latency histogram: bucket i counts
/// collectives whose modeled latency L satisfies 2^i <= L+1 < 2^(i+1).
inline constexpr std::size_t kLatencyBuckets = 16;

/// Fleet-level counters the per-chip Stats cannot express.
struct FabricStats {
  std::uint64_t rounds = 0;           ///< lockstep rounds advanced
  std::uint64_t collectives = 0;      ///< completed collective ops
  std::array<std::uint64_t, 6> by_op{};  ///< indexed by CollectiveOp
  std::uint64_t payload_words = 0;    ///< logical words reduced (per op COUNT)
  std::uint64_t flits = 0;            ///< link flits per collective, summed
  std::uint64_t hops = 0;             ///< tree hops traversed (up + down)
  std::uint64_t link_busy_cycles = 0; ///< sum over links of flit occupancy
  Cycle max_latency = 0;              ///< worst modeled collective latency
  std::array<std::uint64_t, kLatencyBuckets> latency_hist{};
};

std::string to_json(const FabricStats& s);

void save(const FabricStats& s, BinWriter& w);
void restore(FabricStats& s, BinReader& r);

/// Guest protocol violation: mismatched collective requests, a chip
/// halting while the rest of the fleet waits in a collective, or a
/// payload descriptor pointing outside scalar memory.
class FabricError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// K Machines in cycle-lockstep plus the inter-chip network model.
class Fabric {
 public:
  /// Every chip gets the same MachineConfig (homogeneous fleet, like
  /// the paper's single-chip prototype tiled K times).
  Fabric(const MachineConfig& chip_cfg, const FabricConfig& cfg);

  /// Load the same program into every chip, then write CHIP_ID and
  /// NUM_CHIPS into each mailbox. Callers bind per-chip data (via
  /// chip(i).state()) after load, exactly as with a bare Machine.
  void load(const Program& program);

  std::uint32_t num_chips() const { return cfg_.chips; }
  Machine& chip(std::size_t i) { return chips_.at(i); }
  const Machine& chip(std::size_t i) const { return chips_.at(i); }
  const FabricConfig& config() const { return cfg_; }
  const MachineConfig& chip_config() const { return chip_cfg_; }

  /// Completed lockstep rounds.
  std::uint64_t rounds() const { return round_; }
  /// Fleet time: the furthest any chip has advanced.
  Cycle now() const;
  /// True when every chip has finished (halted + drained, or all
  /// threads exited).
  bool finished() const;

  /// Advance the fleet until every chip finishes or fleet time reaches
  /// `max_cycles` (absolute, like Machine::run — so chunked calls are
  /// cycle-identical to one straight call). Returns true iff finished.
  /// Throws FabricError on guest protocol violations.
  bool run(Cycle max_cycles = 100'000'000);

  /// Per-chip Stats summed into fleet totals; `cycles` is the max over
  /// chips (lockstep wall-clock), everything else is elementwise sum.
  Stats fleet_stats() const;
  const FabricStats& stats() const { return fstats_; }

  /// Versioned whole-fleet checkpoint: fabric scheduler state, any
  /// in-flight collective, FabricStats, and one Machine::save_state()
  /// blob per chip. Same idiom as src/sim/checkpoint.cpp; restore
  /// requires a Fabric constructed with the same configs and load()ed
  /// with the same program (each chip blob re-checks the program
  /// fingerprint). Bit-identical resume at any point, aligned or not.
  std::string save_state() const;
  void restore_state(const std::string& blob);

 private:
  /// One collective in flight between pickup and delivery.
  struct Pending {
    CollectiveOp op = CollectiveOp::kNone;
    std::uint32_t count = 0;
    std::uint64_t deliver_round = 0;
    std::vector<Word> data;   ///< combined payload (empty for barrier)
    std::vector<Word> addrs;  ///< per-chip payload address
  };

  void resolve_at_boundary();
  void collect_requests();
  void deliver_pending();

  MachineConfig chip_cfg_;
  FabricConfig cfg_;
  std::vector<Machine> chips_;
  bool loaded_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t seq_ = 0;  ///< ACK sequence (pre-increment, truncated to width)
  std::optional<Pending> pending_;
  FabricStats fstats_;
};

}  // namespace masc::fabric
