// Live observability counters for the simulation service.
//
// Everything a `{"op":"stats"}` request reports lives here: admission
// and completion counters, a log2 histogram of per-job host seconds,
// and aggregate simulated-work roll-ups (cycles, instructions, IPC,
// idle-by-cause) accumulated across every completed job. One mutex
// guards the lot — updates are once per job, not per cycle, so
// contention is irrelevant next to a simulation's runtime.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "common/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"

namespace masc::serve {

class ServeMetrics {
 public:
  /// Host-seconds histogram buckets: le_1ms, le_2ms, ... le_32768ms,
  /// then overflow. Log2 spacing covers microbenchmark jobs and
  /// half-minute monsters with 17 integers.
  static constexpr std::size_t kHistBuckets = 17;

  void on_accepted(std::uint64_t n);
  void on_rejected(std::uint64_t n);
  void on_batch(std::uint64_t jobs_in_batch);
  /// Classify one finished job by status and fold its stats into the
  /// aggregates (all statuses contribute host time; partial simulated
  /// work from cancelled/expired jobs counts too — it was paid for).
  void on_done(const SweepResult& r);

  /// Mean host seconds of completed jobs; `dflt` until the first one.
  double mean_job_seconds(double dflt) const;

  /// Declare the whole /stats object, which is also the whole Prometheus
  /// exposition (docs/SERVER.md "Prometheus metrics"). Queue depth,
  /// in-flight count and the number of job records the server still
  /// tracks (submitted and not yet released) are owned by the server
  /// (they are live state, not counters) and passed in, as are the
  /// result-cache snapshot (null when the cache is disabled) and the
  /// runner's lane-batching snapshot.
  void describe(metrics::Registry& r, std::size_t queue_depth,
                std::size_t in_flight, std::size_t queue_capacity,
                std::size_t jobs_tracked, const TieredCacheStats* cache,
                const SweepBatchStats& batch) const;

 private:
  mutable std::mutex mu_;

  std::uint64_t submitted_ = 0;   ///< jobs admitted to the queue
  std::uint64_t rejected_ = 0;    ///< jobs refused with queue_full
  std::uint64_t batches_ = 0;     ///< sweep dispatches issued
  std::uint64_t completed_ = 0;   ///< status == finished
  std::uint64_t cycle_limited_ = 0;
  std::uint64_t failed_ = 0;      ///< status == error
  std::uint64_t cancelled_ = 0;
  std::uint64_t deadline_exceeded_ = 0;

  std::array<std::uint64_t, kHistBuckets> host_ms_hist_{};
  double host_seconds_total_ = 0.0;

  // Aggregate simulated work across all jobs that produced stats.
  std::uint64_t cycles_total_ = 0;
  std::uint64_t instructions_total_ = 0;
  std::uint64_t idle_cycles_total_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(StallCause::kCauseCount)>
      idle_by_cause_total_{};
};

}  // namespace masc::serve
