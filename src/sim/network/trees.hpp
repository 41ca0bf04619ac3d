// Broadcast/reduction network models (paper §6.4).
//
// Two levels of modeling live here:
//
// 1. *Value semantics*: tree_reduce() combines PE values in the exact
//    binary-tree node order of the hardware. For associative idempotent
//    operators this equals a fold, but the saturating sum unit is NOT
//    associative (saturation at an internal node is sticky), so emulating
//    the tree shape — leaves padded with the operator identity up to the
//    next power of two — is required for bit-exact fidelity whenever a
//    node saturates. reduce_lanes() is the form the simulator runs: every
//    lane of a batch (one lane serially) in one pass, the operator a
//    template parameter; its sums are exact and only a lane in which
//    some node may saturate takes the tree.
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

/// The saturating sums of reduce_lanes(): each lane's result word into
/// out[lane], from the p·l leaves of a [pe][lane] row; `col` has room
/// for a column padded to a power of two. Acc holds any sum of p leaves.
///
/// A node's word is the exact sum of the leaves below it until some node
/// saturates, so the tree's order shows in a result only when a node
/// saturates. Each lane's exact sums come first, in one pass over the
/// row: unsigned, of every leaf; signed, of the positive leaves and
/// of the negative leaves' magnitudes. Only a lane in which a node may
/// saturate with leaves of both signs takes the hardware tree.
template <ReduceOp Op, typename Acc>
void saturating_sums(const Word* row, std::uint32_t p, std::uint32_t l, unsigned width,
                     Word* col, Word* out) {
  thread_local std::vector<Acc> sums;
  if (sums.size() < 2 * std::size_t{l}) sums.resize(2 * std::size_t{l});
  std::fill_n(sums.data(), 2 * std::size_t{l}, Acc{0});
  Acc* const pos = sums.data();
  Acc* const neg = pos + l;
  for (std::uint32_t pe = 0; pe < p; ++pe) {
    const Word* const x = row + std::size_t{pe} * l;
    for (std::uint32_t lane = 0; lane < l; ++lane) {
      if constexpr (Op == ReduceOp::kSumU) {
        pos[lane] += x[lane];
      } else {
        // Shifts and masks, no compare: the loop vectorizes on SSE2.
        const auto v = static_cast<Word>(sign_extend(x[lane], width));
        const Word negative = static_cast<Word>(static_cast<SWord>(v) >> 31);
        pos[lane] += v & ~negative;
        neg[lane] += (Word{0} - v) & negative;
      }
    }
  }
  const std::uint32_t padded = std::uint32_t{1} << ceil_log2(p);
  const Word max = Op == ReduceOp::kSumU ? low_mask(width) : signed_max_word(width);
  for (std::uint32_t lane = 0; lane < l; ++lane) {
    if constexpr (Op == ReduceOp::kSumU) {
      // Every partial sum is at most the total, and a saturated node
      // saturates every node above it: the root is min(total, max).
      out[lane] = pos[lane] > max ? max : static_cast<Word>(pos[lane]);
    } else if (neg[lane] == 0 || pos[lane] == 0 ||
               (DWord{neg[lane]} <= DWord{max} + 1 && pos[lane] <= max)) {
      // Every partial sum lies between minus the negative leaves' sum
      // and the positive leaves' sum; both in range, no node saturates
      // and the root is the exact total. With leaves of one sign, as
      // unsigned, a saturated node saturates every node above it: the
      // root is the total clamped.
      const SDWord total = static_cast<SDWord>(pos[lane]) - static_cast<SDWord>(neg[lane]);
      const SDWord hi = max;
      out[lane] = truncate(static_cast<Word>(std::clamp(total, -hi - 1, hi)), width);
    } else {
      // Some node may saturate: the hardware tree, its padding leaves
      // past p holding the identity, each level combining nodes 2j and
      // 2j+1 into node j.
      for (std::uint32_t pe = 0; pe < p; ++pe) col[pe] = row[std::size_t{pe} * l + lane];
      std::fill(col + p, col + padded, identity<Op>(width));
      for (std::uint32_t nodes = padded; nodes > 1; nodes /= 2)
        for (std::uint32_t j = 0; j < nodes / 2; ++j)
          col[j] = combine<Op>(col[2 * j], col[2 * j + 1], width);
      out[lane] = col[0];
    }
  }
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
  // loop, and the only one that reads the machine's rows. max/min's are
  // sign-extended here, once, so that every fold compares them as they
  // are. Every later loop runs over word rows, which vectorize.
  constexpr bool extend = Op == ReduceOp::kMax || Op == ReduceOp::kMin;
  const std::size_t n = std::size_t{p} * l;
  const std::uint32_t padded = std::uint32_t{1} << ceil_log2(p);
  Word* const row = lane_scratch(n + padded + l);
  for (std::size_t i = 0; i < n; ++i)
    row[i] = extend ? static_cast<Word>(sign_extend(leaf(i), width)) : leaf(i);
  if constexpr (Op == ReduceOp::kSum || Op == ReduceOp::kSumU) {
    // Leaves are below 2^width, so width + ceil_log2(p) bits hold any
    // sum of them: 32-bit sums where they fit, twice the lanes a vector.
    Word* const col = row + n;
    Word* const out = col + padded;
    if (width + ceil_log2(p) <= 32)
      saturating_sums<Op, Word>(row, p, l, width, col, out);
    else
      saturating_sums<Op, DWord>(row, p, l, width, col, out);
    return out;
  } else {
    // Associative and commutative: any fold equals the tree (see
    // tree_reduce()). The upper half of the PEs' rows folds onto the
    // lower half, one flat loop per halving, until PE 0's row is left.
    const unsigned fold_width = extend ? 32 : width;
    for (std::uint32_t rows = p; rows > 1;) {
      const std::uint32_t half = rows / 2;
      const Word* const upper = row + std::size_t{rows - half} * l;
      for (std::size_t k = 0; k < std::size_t{half} * l; ++k)
        row[k] = combine<Op>(row[k], upper[k], fold_width);
      rows -= half;
    }
    if (extend)
      for (std::uint32_t lane = 0; lane < l; ++lane) row[lane] = truncate(row[lane], width);
    return row;
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
