#include "sim/network/trees.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace masc::net {

Word tree_reduce(ReduceOp op, std::span<const Word> values,
                 std::span<const std::uint8_t> active, unsigned width) {
  expect(values.size() == active.size(), "tree_reduce: size mismatch");
  const Word id = identity_of(op, width);

  // Every operator except saturating sum is associative, so a linear
  // fold over the leaves yields the same word as the padded binary tree
  // (a tree is just one parenthesization of the in-order sequence, and
  // identity-padding leaves drop out) — without materializing the tree.
  if (op != ReduceOp::kSum && op != ReduceOp::kSumU) {
    Word acc = id;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!active[i]) continue;
      const Word v = op == ReduceOp::kCountFlags ? (values[i] ? 1 : 0)
                                                 : truncate(values[i], width);
      acc = combine(op, acc, v, width);
    }
    return acc;
  }

  // Saturating sum is NOT associative (saturation at an internal node is
  // sticky), so emulate the exact hardware tree shape. The scratch row is
  // reused across calls; each sweep worker thread gets its own.
  const std::size_t padded = std::size_t{1} << ceil_log2(std::max<std::size_t>(values.size(), 1));
  thread_local std::vector<Word> row;
  row.assign(padded, id);
  for (std::size_t i = 0; i < values.size(); ++i)
    row[i] = active[i] ? truncate(values[i], width) : id;
  // Combine pairwise, level by level — exactly the hardware tree order.
  for (std::size_t n = padded; n > 1; n /= 2)
    for (std::size_t i = 0; i < n / 2; ++i)
      row[i] = combine(op, row[2 * i], row[2 * i + 1], width);
  return row[0];
}

Word tree_reduce(ReduceOp op, std::span<const Word> values, unsigned width) {
  thread_local std::vector<std::uint8_t> all;
  if (all.size() < values.size()) all.assign(values.size(), 1);
  return tree_reduce(op, values, std::span<const std::uint8_t>{all.data(), values.size()}, width);
}

Word flag_reduce(ReduceOp op, std::span<const std::uint8_t> flags,
                 std::span<const std::uint8_t> active) {
  expect(flags.size() == active.size(), "flag_reduce: size mismatch");
  switch (op) {
    case ReduceOp::kCountFlags: {
      Word count = 0;
      for (std::size_t i = 0; i < flags.size(); ++i)
        count += (active[i] && flags[i]) ? Word{1} : Word{0};
      return count;
    }
    case ReduceOp::kAnd: {
      for (std::size_t i = 0; i < flags.size(); ++i)
        if (active[i] && !flags[i]) return 0;
      return 1;
    }
    case ReduceOp::kOr: {
      for (std::size_t i = 0; i < flags.size(); ++i)
        if (active[i] && flags[i]) return 1;
      return 0;
    }
    default:
      throw SimulationError("flag_reduce: operator is not a flag reduction");
  }
}

std::vector<std::uint8_t> exclusive_prefix_or(std::span<const std::uint8_t> flags) {
  std::vector<std::uint8_t> out(flags.size(), 0);
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    out[i] = acc;
    acc = acc || flags[i] ? 1 : 0;
  }
  return out;
}

std::size_t resolve_first_index(std::span<const std::uint8_t> flags,
                                std::span<const std::uint8_t> active) {
  expect(flags.size() == active.size(), "resolve_first: size mismatch");
  // Equivalent to masking the flags, prefix-ORing, and picking the
  // survivor — but the "first responder among active PEs" the prefix
  // network computes is just the first set masked flag, so a single
  // allocation-free scan suffices. The prefix-network formulation
  // survives as exclusive_prefix_or() + the property test that pins the
  // two against each other.
  for (std::size_t i = 0; i < flags.size(); ++i)
    if (flags[i] && active[i]) return i;
  return flags.size();
}

std::vector<std::uint8_t> resolve_first(std::span<const std::uint8_t> flags,
                                        std::span<const std::uint8_t> active) {
  const std::size_t first = resolve_first_index(flags, active);
  std::vector<std::uint8_t> out(flags.size(), 0);
  if (first < out.size()) out[first] = 1;
  return out;
}

PipelinedBroadcastTree::PipelinedBroadcastTree(std::uint32_t num_pes,
                                               std::uint32_t arity)
    : latency_(ceil_log_k(num_pes, arity)) {
  stages_.assign(latency_, std::nullopt);
}

std::optional<Word> PipelinedBroadcastTree::cycle(std::optional<Word> input) {
  if (latency_ == 0) return input;  // single PE: wire, no registers
  // Idle fast path: an empty pipeline with no new token stays empty, so
  // the register shift is skipped entirely.
  if (in_flight_ == 0 && !input) return std::nullopt;
  if (input) ++in_flight_;
  stages_.push_front(input);
  std::optional<Word> out = stages_.back();
  stages_.pop_back();
  if (out) --in_flight_;
  return out;
}

PipelinedReductionTree::PipelinedReductionTree(std::uint32_t num_pes,
                                               ReduceOp op, unsigned width)
    : op_(op),
      width_(width),
      latency_(ceil_log2(num_pes)),
      leaves_(std::uint32_t{1} << ceil_log2(num_pes)) {
  level_.resize(latency_ + 1);
  for (unsigned l = 0; l <= latency_; ++l)
    level_[l].assign(leaves_ >> l, identity_of(op, width));
  level_valid_.assign(latency_ + 1, 0);
}

std::optional<Word> PipelinedReductionTree::cycle(
    std::optional<std::span<const Word>> input) {
  // Shift from the root backwards so each level consumes its predecessor's
  // *previous* contents — register semantics.
  std::optional<Word> out;
  if (latency_ == 0) {
    // Single PE: the "tree" is a wire.
    if (input) out = truncate((*input)[0], width_);
    return out;
  }
  // Idle fast path: with no operand vector in any level and none
  // entering, every stage would just shuffle invalid registers — skip
  // the whole O(p) combine sweep.
  if (in_flight_ == 0 && !input) return std::nullopt;
  if (input) ++in_flight_;
  for (unsigned l = latency_; l >= 1; --l) {
    if (level_valid_[l - 1]) {
      auto& dst = level_[l];
      const auto& src = level_[l - 1];
      for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = combine(op_, src[2 * i], src[2 * i + 1], width_);
      level_valid_[l] = 1;
    } else {
      level_valid_[l] = 0;
    }
  }
  if (level_valid_[latency_]) {
    out = level_[latency_][0];
    --in_flight_;
  }
  if (input) {
    expect(input->size() <= leaves_, "reduction input wider than tree");
    auto& in_row = level_[0];
    std::fill(in_row.begin(), in_row.end(), identity_of(op_, width_));
    for (std::size_t i = 0; i < input->size(); ++i)
      in_row[i] = truncate((*input)[i], width_);
    level_valid_[0] = 1;
  } else {
    level_valid_[0] = 0;
  }
  return out;
}

}  // namespace masc::net
