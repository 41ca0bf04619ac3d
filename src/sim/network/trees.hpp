// Broadcast/reduction network models (paper §6.4).
//
// Two levels of modeling live here:
//
// 1. *Value semantics*: tree_reduce() combines PE values in the exact
//    binary-tree node order of the hardware. For associative idempotent
//    operators this equals a fold, but the saturating sum unit is NOT
//    associative (saturation at an internal node is sticky), so emulating
//    the tree shape — leaves padded with the operator identity up to the
//    next power of two — is required for bit-exact fidelity.
//    reduce_lanes() is the form the simulator runs: every lane of a batch
//    (one lane serially) in one pass, the operator a template parameter.
//    tree_reduce(), flag_reduce() and resolve_first_index() reduce one
//    column; they are the reference the property tests pin it against.
//
// 2. *Pipeline structure*: PipelinedBroadcastTree / PipelinedReductionTree
//    model the stage registers of the k-ary broadcast tree and the binary
//    reduction trees: initiation rate of one operation per cycle and
//    latency ceil(log_k p) / ceil(log2 p). The cycle-accurate simulator
//    uses the equivalent analytic latencies; these classes exist so tests
//    can verify that the analytic formulas match an actual register-level
//    pipeline, and so the network can be studied in isolation (bench E6).
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/dispatch.hpp"
#include "common/saturate.hpp"
#include "common/types.hpp"

namespace masc::net {

/// Reduction operators supported by the hardware units.
enum class ReduceOp : std::uint8_t {
  kAnd, kOr,            // logic unit
  kMax, kMin,           // maximum/minimum unit, signed
  kMaxU, kMinU,         //   "      "       "  unsigned
  kSum, kSumU,          // sum unit (saturating)
  kCountFlags,          // response counter (input: 0/1 flags)
};

/// The operator identity: contributed by inactive PEs and by the padding
/// leaves that round the array up to a full binary tree.
template <ReduceOp Op>
constexpr Word identity(unsigned width) {
  if constexpr (Op == ReduceOp::kAnd || Op == ReduceOp::kMinU) return low_mask(width);
  else if constexpr (Op == ReduceOp::kMax) return signed_min_word(width);
  else if constexpr (Op == ReduceOp::kMin) return signed_max_word(width);
  else return 0;
}

/// Combine two values at one tree node.
template <ReduceOp Op>
constexpr Word combine(Word a, Word b, unsigned width) {
  using enum ReduceOp;
  if constexpr (Op == kAnd) return a & b;
  else if constexpr (Op == kOr) return a | b;
  else if constexpr (Op == kMax) return sign_extend(a, width) >= sign_extend(b, width) ? a : b;
  else if constexpr (Op == kMin) return sign_extend(a, width) <= sign_extend(b, width) ? a : b;
  else if constexpr (Op == kMaxU) return a < b ? b : a;
  else if constexpr (Op == kMinU) return b < a ? b : a;
  else if constexpr (Op == kSum) return sat_add_signed(a, b, width);
  else if constexpr (Op == kSumU) return sat_add_unsigned(a, b, width);
  // The adder tree of the response counter is sized to hold an exact
  // count of up to p responders; it cannot overflow.
  else return a + b;
}

/// The word a PE's value feeds the tree: truncated to the word width, or
/// 0/1 for the response counter.
template <ReduceOp Op>
constexpr Word leaf(Word v, unsigned width) {
  if constexpr (Op == ReduceOp::kCountFlags) return v != 0 ? 1 : 0;
  else return truncate(v, width);
}

inline Word identity_of(ReduceOp op, unsigned width) {
  return dispatch<ReduceOp::kCountFlags>(op, [&](auto o) { return identity<o()>(width); });
}

inline Word combine(ReduceOp op, Word a, Word b, unsigned width) {
  return dispatch<ReduceOp::kCountFlags>(op, [&](auto o) { return combine<o()>(a, b, width); });
}

/// Reduce a vector of per-PE values in hardware tree order. `active[i]`
/// false replaces values[i] with the identity. `width` is the machine
/// word width except for kCountFlags/kSum whose adder tree is wide enough
/// to never overflow on counts (the response counter produces an exact
/// count, paper §6.4) — pass the result width accordingly.
Word tree_reduce(ReduceOp op, std::span<const Word> values,
                 std::span<const std::uint8_t> active, unsigned width);

/// Convenience overload: all PEs active.
Word tree_reduce(ReduceOp op, std::span<const Word> values, unsigned width);

/// Reduce a 0/1 flag vector (response counter / flag AND / flag OR
/// trees) without materializing a Word vector. Only the associative flag
/// operators are legal here (kAnd, kOr, kCountFlags), for which a linear
/// fold is bit-identical to the hardware tree order.
Word flag_reduce(ReduceOp op, std::span<const std::uint8_t> flags,
                 std::span<const std::uint8_t> active);

/// Scratch words of the lane-wide network, reused across calls; each
/// sweep worker thread gets its own.
inline Word* lane_scratch(std::size_t n) {
  thread_local std::vector<Word> words;
  if (words.size() < n) words.resize(n);
  return words.data();
}

/// The leaves of a value reduction over a row, for reduce_lanes(): element
/// i's word, or the identity where its PE is inactive. Both loads are
/// unconditional, so the leaf pass vectorizes.
template <ReduceOp Op>
auto value_leaves(const Word* vals, const std::uint8_t* act, unsigned width) {
  const Word id = identity<Op>(width);
  return [=](std::size_t i) {
    const Word v = leaf<Op>(vals[i], width);
    return act[i] ? v : id;
  };
}

/// The lane-wide reduction network: reduces every lane of a [pe][lane]
/// row of p·l elements in one pass, lane index innermost, into an l-wide
/// accumulator. leaf(i) is the word element i = pe·l + lane feeds the
/// tree (the identity for an inactive PE); it must not fault on inactive
/// PEs, and it is taken by value so the loop can keep its captures in
/// registers. Returns the l results, lane k's at [k], in lane_scratch(),
/// valid until the next call on this thread. Per lane the result is the
/// word tree_reduce() gives for that lane's column, which the property
/// tests pin.
template <ReduceOp Op, typename Leaf>
const Word* reduce_lanes(std::uint32_t p, std::uint32_t l, unsigned width, Leaf leaf) {
  // The leaves first, in one flat pass over the whole row: the widest
  // loop, and the only one that reads the machine's rows. Every later
  // loop runs over word rows of l lanes, which vectorize.
  const std::uint32_t padded = std::uint32_t{1} << ceil_log2(p);
  const std::size_t n = std::size_t{p} * l;
  const std::size_t m = std::size_t{padded} * l;
  Word* const row = lane_scratch(m + m / 2);
  for (std::size_t i = 0; i < n; ++i) row[i] = leaf(i);
  if constexpr (Op != ReduceOp::kSum && Op != ReduceOp::kSumU) {
    // Associative: a linear fold equals the tree (see tree_reduce()).
    // PE 0's row accumulates.
    for (std::uint32_t pe = 1; pe < p; ++pe) {
      const Word* const next = row + std::size_t{pe} * l;
      for (std::uint32_t lane = 0; lane < l; ++lane)
        row[lane] = combine<Op>(row[lane], next[lane], width);
    }
    return row;
  } else {
    // Saturating sum keeps the exact hardware tree: padding leaves past p
    // hold the identity, and each level combines nodes 2j and 2j+1 of
    // every lane into node j, alternating between two buffers.
    std::fill(row + n, row + m, identity<Op>(width));
    Word* src = row;
    Word* dst = row + m;
    for (std::size_t nodes = padded; nodes > 1; nodes /= 2) {
      for (std::size_t j = 0; j < nodes / 2; ++j) {
        const Word* const x = src + 2 * j * l;
        const Word* const y = x + l;
        for (std::uint32_t lane = 0; lane < l; ++lane)
          dst[j * l + lane] = combine<Op>(x[lane], y[lane], width);
      }
      std::swap(src, dst);
    }
    return src;
  }
}

/// Multiple-response resolver (parallel-prefix network): index of the
/// first set flag among active PEs, or flags.size() when no PE responds.
/// Allocation-free; the reference for the resolver the datapath runs on
/// reduce_lanes().
std::size_t resolve_first_index(std::span<const std::uint8_t> flags,
                                std::span<const std::uint8_t> active);

/// One-hot vector form of the resolver (at most one element set, at
/// resolve_first_index()). Allocates its result; kept for tests and
/// callers that want the hardware's wire-level view.
std::vector<std::uint8_t> resolve_first(std::span<const std::uint8_t> flags,
                                        std::span<const std::uint8_t> active);

/// Exclusive prefix-OR across the flag vector — the internal value the
/// parallel-prefix network computes; exposed for property tests.
std::vector<std::uint8_t> exclusive_prefix_or(std::span<const std::uint8_t> flags);

// ---------------------------------------------------------------------------
// Register-level pipeline models
// ---------------------------------------------------------------------------

/// A pipelined k-ary broadcast tree: accepts one token per cycle, delivers
/// it to all leaves ceil(log_k p) cycles later.
class PipelinedBroadcastTree {
 public:
  PipelinedBroadcastTree(std::uint32_t num_pes, std::uint32_t arity);

  unsigned latency() const { return latency_; }

  /// Clock edge: shift the pipeline; returns the token that reached the
  /// leaves this cycle, if any.
  std::optional<Word> cycle(std::optional<Word> input);

 private:
  unsigned latency_;
  unsigned in_flight_ = 0;  ///< tokens in the pipe; 0 → cycle() is a no-op
  std::deque<std::optional<Word>> stages_;
};

/// A pipelined binary reduction tree over p leaves: one new operand vector
/// may enter per cycle; its scalar result emerges ceil(log2 p) cycles
/// later. Internally keeps real per-level node registers so that the
/// stage-by-stage dataflow (and the non-associativity of saturating sum)
/// is faithfully represented.
class PipelinedReductionTree {
 public:
  PipelinedReductionTree(std::uint32_t num_pes, ReduceOp op, unsigned width);

  unsigned latency() const { return latency_; }

  /// Clock edge: shift all levels; optionally inject a new operand vector
  /// (values already masked: inactive PEs hold the identity). Returns the
  /// result leaving the root this cycle, if any.
  std::optional<Word> cycle(std::optional<std::span<const Word>> input);

 private:
  ReduceOp op_;
  unsigned width_;
  unsigned latency_;
  unsigned in_flight_ = 0;  ///< vectors in the pipe; 0 → cycle() skips the sweep
  std::uint32_t leaves_;  ///< padded to a power of two
  /// level_[l] holds the register contents after l combining stages;
  /// level_[0] is the (padded) input register row.
  std::vector<std::vector<Word>> level_;
  std::vector<std::uint8_t> level_valid_;
};

}  // namespace masc::net
