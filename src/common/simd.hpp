// Compile-time host SIMD probe for `--batch-lanes auto` (ROADMAP item 1
// leftover; docs/PERF.md "Lane batching").
//
// Lane batching lays jobs out SoA with job-index innermost so the
// per-PE word ops vectorize across the batch. Machine words are 16-bit
// in every paper configuration, so the natural batch width is one SIMD
// register's worth of 16-bit lanes: AVX-512 -> 32, AVX2 -> 16,
// SSE2/NEON -> 8, scalar -> 4 (floor: even without vector units,
// batching amortizes the control pass — PR 9 measured gains at 4).
//
// The probe is compile-time on purpose: the tree is built natively for
// the serving host (no fat binaries), so the preprocessor view *is* the
// host's ISA, and a constexpr answer costs nothing at runtime.
#pragma once

#include <cstdint>

#include "common/metrics.hpp"

namespace masc {

struct SimdInfo {
  const char* isa;           ///< human-readable ISA name
  unsigned width_bits;       ///< widest usable vector register
  std::uint32_t auto_lanes;  ///< width_bits / 16-bit word, floored at 4
};

constexpr SimdInfo host_simd() {
#if defined(__AVX512F__)
  return {"avx512", 512, 32};
#elif defined(__AVX2__)
  return {"avx2", 256, 16};
#elif defined(__SSE2__) || defined(__x86_64__)
  return {"sse2", 128, 8};
#elif defined(__ARM_NEON) || defined(__aarch64__)
  return {"neon", 128, 8};
#else
  return {"scalar", 64, 4};
#endif
}

/// The members of the `"simd"` object in /stats:
///   {"isa":"avx2","width_bits":256,"auto_lanes":16}
inline void describe(metrics::Registry& r, const SimdInfo& s) {
  r.text("isa", s.isa);
  r.gauge("width_bits", s.width_bits, "simd_width_bits",
          "Host SIMD register width detected at build time");
  r.gauge("auto_lanes", s.auto_lanes, "auto_batch_lanes",
          "Lane count --batch-lanes auto resolves to on this build");
}

}  // namespace masc
