// Bit-manipulation helpers used across the ISA, networks, and datapaths.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/types.hpp"

namespace masc {

/// ceil(log2(n)) for n >= 1; the pipeline depth of a binary tree over n
/// leaves. ceil_log2(1) == 0 (a single PE needs no tree stage).
constexpr unsigned ceil_log2(std::uint64_t n) {
  assert(n >= 1);
  unsigned bits = 0;
  std::uint64_t cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++bits;
  }
  return bits;
}

/// ceil(log_k(n)) for n >= 1, k >= 2; depth of a k-ary broadcast tree.
constexpr unsigned ceil_log_k(std::uint64_t n, std::uint64_t k) {
  assert(n >= 1 && k >= 2);
  unsigned depth = 0;
  std::uint64_t cap = 1;
  while (cap < n) {
    cap *= k;
    ++depth;
  }
  return depth;
}

/// Mask covering the low `width` bits (width in [1, 32]).
constexpr Word low_mask(unsigned width) {
  assert(width >= 1 && width <= 32);
  return width == 32 ? ~Word{0} : ((Word{1} << width) - 1);
}

/// Truncate a word to the architectural width.
constexpr Word truncate(Word v, unsigned width) { return v & low_mask(width); }

/// Sign-extend the low `width` bits of v into a full SWord.
constexpr SWord sign_extend(Word v, unsigned width) {
  assert(width >= 1 && width <= 32);
  // Move the field's sign bit to bit 31 and shift back arithmetically:
  // branch-free, so row loops over it vectorize.
  const unsigned up = 32 - width;
  return static_cast<SWord>(v << up) >> up;
}

/// Extract bits [hi:lo] from an instruction word.
constexpr std::uint32_t bits(std::uint32_t word, unsigned hi, unsigned lo) {
  assert(hi >= lo && hi < 32);
  return (word >> lo) & low_mask(hi - lo + 1);
}

/// True if n is a power of two (n >= 1).
constexpr bool is_pow2(std::uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Number of set bits.
constexpr unsigned popcount(std::uint64_t v) {
  return static_cast<unsigned>(std::popcount(v));
}

}  // namespace masc
