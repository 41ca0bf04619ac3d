#include "serve/metrics.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/simd.hpp"

namespace masc::serve {

namespace {

/// Bucket index for a job that took `seconds` of host time: bucket k
/// holds jobs with ms in (2^(k-1), 2^k], bucket 0 holds <= 1 ms, the
/// last bucket collects everything above 2^(kHistBuckets-2) ms.
std::size_t hist_bucket(double seconds) {
  const double ms = seconds * 1e3;
  std::size_t b = 0;
  double bound = 1.0;
  while (b + 1 < ServeMetrics::kHistBuckets && ms > bound) {
    bound *= 2.0;
    ++b;
  }
  return b;
}

}  // namespace

void ServeMetrics::on_accepted(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  submitted_ += n;
}

void ServeMetrics::on_rejected(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  rejected_ += n;
}

void ServeMetrics::on_batch(std::uint64_t /*jobs_in_batch*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
}

void ServeMetrics::on_done(const SweepResult& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  switch (r.status) {
    case SweepStatus::kFinished: ++completed_; break;
    case SweepStatus::kCycleLimit: ++cycle_limited_; break;
    case SweepStatus::kError: ++failed_; break;
    case SweepStatus::kCancelled: ++cancelled_; break;
    case SweepStatus::kDeadlineExceeded: ++deadline_exceeded_; break;
  }
  ++host_ms_hist_[hist_bucket(r.host_seconds)];
  host_seconds_total_ += r.host_seconds;
  cycles_total_ += r.stats.cycles;
  instructions_total_ += r.stats.instructions;
  idle_cycles_total_ += r.stats.idle_cycles;
  for (std::size_t c = 0; c < idle_by_cause_total_.size(); ++c)
    idle_by_cause_total_[c] += r.stats.idle_by_cause[c];
}

double ServeMetrics::mean_job_seconds(double dflt) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t done = completed_ + cycle_limited_ + failed_ +
                             cancelled_ + deadline_exceeded_;
  if (done == 0) return dflt;
  return host_seconds_total_ / static_cast<double>(done);
}

std::string ServeMetrics::to_json(std::size_t queue_depth,
                                  std::size_t in_flight,
                                  std::size_t queue_capacity,
                                  std::size_t jobs_tracked,
                                  const TieredCacheStats* cache,
                                  const SweepBatchStats* batch) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"queue_depth\":" << queue_depth;
  os << ",\"queue_capacity\":" << queue_capacity;
  os << ",\"in_flight\":" << in_flight;
  os << ",\"jobs_tracked\":" << jobs_tracked;
  // Host SIMD probe: what `--batch-lanes auto` resolves to on this
  // build (docs/PERF.md "Lane batching").
  os << ",\"simd\":" << simd_stats_json();
  if (cache)
    os << ",\"cache\":{\"enabled\":true,"
       << masc::to_json(*cache).substr(1);  // splice the per-tier fields in
  else
    os << ",\"cache\":{\"enabled\":false}";
  if (batch) os << ",\"batch\":" << masc::to_json(*batch);
  os << ",\"counters\":{";
  os << "\"submitted\":" << submitted_;
  os << ",\"rejected\":" << rejected_;
  os << ",\"batches\":" << batches_;
  os << ",\"completed\":" << completed_;
  os << ",\"cycle_limited\":" << cycle_limited_;
  os << ",\"failed\":" << failed_;
  os << ",\"cancelled\":" << cancelled_;
  os << ",\"deadline_exceeded\":" << deadline_exceeded_;
  os << "}";
  os << ",\"host_ms_hist\":[";
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (b) os << ",";
    os << host_ms_hist_[b];
  }
  os << "]";
  os << ",\"host_seconds\":" << host_seconds_total_;
  os << ",\"aggregate\":{";
  os << "\"cycles\":" << cycles_total_;
  os << ",\"instructions\":" << instructions_total_;
  const double ipc = cycles_total_ == 0
                         ? 0.0
                         : static_cast<double>(instructions_total_) /
                               static_cast<double>(cycles_total_);
  os << ",\"ipc\":" << ipc;
  os << ",\"idle_cycles\":" << idle_cycles_total_;
  os << ",\"idle_by_cause\":{";
  bool first = true;
  for (std::size_t c = 1;
       c < static_cast<std::size_t>(StallCause::kCauseCount); ++c) {
    if (!first) os << ",";
    first = false;
    os << "\"" << to_string(static_cast<StallCause>(c))
       << "\":" << idle_by_cause_total_[c];
  }
  os << "}}}";
  return os.str();
}

std::string ServeMetrics::to_prometheus(std::size_t queue_depth,
                                        std::size_t in_flight,
                                        std::size_t queue_capacity,
                                        std::size_t jobs_tracked,
                                        const TieredCacheStats* cache,
                                        const SweepBatchStats* batch) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  auto gauge = [&](const char* name, auto value, const char* help) {
    os << "# HELP " << name << " " << help << "\n# TYPE " << name
       << " gauge\n" << name << " " << value << "\n";
  };
  auto counter = [&](const char* name, auto value, const char* help) {
    os << "# HELP " << name << " " << help << "\n# TYPE " << name
       << " counter\n" << name << " " << value << "\n";
  };
  gauge("masc_served_queue_depth", queue_depth, "Jobs waiting in the queue");
  gauge("masc_served_queue_capacity", queue_capacity, "Queue slots");
  gauge("masc_served_jobs_in_flight", in_flight,
        "Jobs in the currently dispatched batch");
  gauge("masc_served_jobs_tracked", jobs_tracked,
        "Job records held: submitted and not yet released");
  gauge("masc_served_simd_width_bits", host_simd().width_bits,
        "Host SIMD register width detected at build time");
  gauge("masc_served_auto_batch_lanes", host_simd().auto_lanes,
        "Lane count --batch-lanes auto resolves to on this build");
  counter("masc_served_jobs_submitted_total", submitted_,
          "Jobs admitted to the queue");
  counter("masc_served_jobs_rejected_total", rejected_,
          "Jobs refused with queue_full");
  counter("masc_served_batches_total", batches_, "Sweep dispatches issued");
  if (batch) {
    // Lane batching (docs/PERF.md "Lane batching"): one flush = one
    // lockstep dispatch of `occupancy` homogeneous jobs on one worker.
    counter("masc_served_batch_flushes_total", batch->batch_flushes,
            "Lane-batched lockstep dispatches");
    counter("masc_served_batch_jobs_total", batch->batched_jobs,
            "Jobs entered into a lane batch");
    counter("masc_served_batch_replayed_jobs_total", batch->replayed_jobs,
            "Lanes ejected to a serial replay (control divergence)");
    counter("masc_served_batch_faulted_lanes_total", batch->faulted_lanes,
            "Lanes masked out by a per-lane data fault");
    // Occupancy as a cumulative histogram: internal bucket b counts
    // flushes of [2^(b-1), 2^b) lanes, so its upper edge is 2^b - 1.
    os << "# HELP masc_served_batch_occupancy Lanes per batch flush\n"
       << "# TYPE masc_served_batch_occupancy histogram\n";
    std::uint64_t bcum = 0;
    const std::size_t nb = batch->occupancy.size();
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      bcum += batch->occupancy[b];
      os << "masc_served_batch_occupancy_bucket{le=\"" << ((1ULL << b) - 1)
         << "\"} " << bcum << "\n";
    }
    bcum += batch->occupancy[nb - 1];
    os << "masc_served_batch_occupancy_bucket{le=\"+Inf\"} " << bcum << "\n"
       << "masc_served_batch_occupancy_count " << bcum << "\n"
       << "masc_served_batch_occupancy_sum " << batch->batched_jobs << "\n";
  }
  os << "# HELP masc_served_jobs_done_total Completed jobs by final status\n"
     << "# TYPE masc_served_jobs_done_total counter\n";
  const std::pair<const char*, std::uint64_t> done[] = {
      {"finished", completed_},
      {"cycle_limit", cycle_limited_},
      {"error", failed_},
      {"cancelled", cancelled_},
      {"deadline_exceeded", deadline_exceeded_}};
  for (const auto& [status, count] : done)
    os << "masc_served_jobs_done_total{status=\"" << status << "\"} " << count
       << "\n";
  // The log2 host-time histogram, as a cumulative Prometheus histogram
  // in milliseconds (bucket k of the internal array is le 2^k ms).
  os << "# HELP masc_served_job_host_ms Per-job host wall time\n"
     << "# TYPE masc_served_job_host_ms histogram\n";
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b + 1 < kHistBuckets; ++b) {
    cum += host_ms_hist_[b];
    os << "masc_served_job_host_ms_bucket{le=\"" << (1ULL << b) << "\"} "
       << cum << "\n";
  }
  cum += host_ms_hist_[kHistBuckets - 1];
  os << "masc_served_job_host_ms_bucket{le=\"+Inf\"} " << cum << "\n"
     << "masc_served_job_host_ms_count " << cum << "\n"
     << "masc_served_job_host_ms_sum " << host_seconds_total_ * 1e3 << "\n";
  counter("masc_served_sim_cycles_total", cycles_total_,
          "Simulated cycles across all jobs");
  counter("masc_served_sim_instructions_total", instructions_total_,
          "Simulated instructions across all jobs");
  counter("masc_served_sim_idle_cycles_total", idle_cycles_total_,
          "Simulated idle PE-cycles across all jobs");
  os << "# HELP masc_served_sim_idle_cycles_by_cause_total Idle cycles by "
        "stall cause\n"
     << "# TYPE masc_served_sim_idle_cycles_by_cause_total counter\n";
  for (std::size_t c = 1;
       c < static_cast<std::size_t>(StallCause::kCauseCount); ++c)
    os << "masc_served_sim_idle_cycles_by_cause_total{cause=\""
       << to_string(static_cast<StallCause>(c)) << "\"} "
       << idle_by_cause_total_[c] << "\n";
  gauge("masc_served_cache_enabled", cache ? 1 : 0,
        "1 when the result cache is configured");
  if (cache) {
    counter("masc_served_cache_hits_total", cache->hits, "Result cache hits");
    counter("masc_served_cache_misses_total", cache->misses,
            "Result cache misses");
    counter("masc_served_cache_insertions_total", cache->insertions,
            "Result cache insertions");
    counter("masc_served_cache_evictions_total", cache->evictions,
            "Result cache LRU evictions");
    gauge("masc_served_cache_entries", cache->entries,
          "Live result cache entries");
    gauge("masc_served_cache_bytes", cache->bytes,
          "Live result cache charged bytes");
    gauge("masc_served_cache_capacity_bytes", cache->capacity_bytes,
          "Result cache byte budget");
    // Tier breakdown (docs/CACHE.md): L1 = RAM LRU, L2 = disk segment
    // store; `hits_total` above is the combined outcome.
    counter("masc_served_cache_l1_hits_total", cache->l1_hits,
            "Lookups served from the RAM tier");
    counter("masc_served_cache_l2_hits_total", cache->l2_hits,
            "Lookups served by promoting a disk record");
    counter("masc_served_cache_promotions_total", cache->promotions,
            "L2 -> L1 promotions");
    counter("masc_served_cache_demotions_total", cache->demotions,
            "Records written behind to the disk tier");
    counter("masc_served_cache_demote_drops_total", cache->demote_drops,
            "Write-behind records shed on queue overflow");
    counter("masc_served_cache_decode_failures_total", cache->decode_failures,
            "Disk records that failed to decode (served as misses)");
    counter("masc_served_cache_flights_led_total", cache->flights_led,
            "Single-flight computations claimed");
    counter("masc_served_cache_flights_joined_total", cache->flights_joined,
            "Lookups that waited behind an in-progress flight");
    counter("masc_served_cache_flights_served_total", cache->flights_served,
            "Waits resolved by the flight leader's publish");
    gauge("masc_served_cache_l2_enabled", cache->disk_enabled ? 1 : 0,
          "1 when a disk tier is attached");
    gauge("masc_served_cache_l2_open_failed",
          cache->disk_open_failed ? 1 : 0,
          "1 when --cache-dir was configured but could not be opened");
    if (cache->disk_enabled) {
      const CacheStoreStats& d = cache->disk;
      gauge("masc_served_cache_l2_entries", d.entries,
            "Live records in the disk tier");
      gauge("masc_served_cache_l2_bytes", d.bytes, "Disk tier segment bytes");
      gauge("masc_served_cache_l2_capacity_bytes", d.capacity_bytes,
            "Disk tier byte budget");
      gauge("masc_served_cache_l2_segments", d.segments,
            "Disk tier segment files");
      counter("masc_served_cache_l2_gets_total", d.gets, "Disk tier reads");
      counter("masc_served_cache_l2_read_hits_total", d.hits,
              "Disk tier reads that found a valid record");
      counter("masc_served_cache_l2_puts_total", d.puts,
              "Records appended to the disk tier");
      counter("masc_served_cache_l2_put_failures_total", d.put_failures,
              "Disk writes refused or failed (degraded path)");
      counter("masc_served_cache_l2_corrupt_skipped_total", d.corrupt_skipped,
              "Checksum-failed records skipped");
      counter("masc_served_cache_l2_torn_truncated_total", d.torn_truncated,
              "Torn segment tails cut during recovery");
      counter("masc_served_cache_l2_records_evicted_total", d.records_evicted,
              "Live records lost with retired segments");
      counter("masc_served_cache_l2_records_salvaged_total",
              d.records_salvaged,
              "Live records recompacted before segment retirement");
      gauge("masc_served_cache_l2_degraded", d.degraded ? 1 : 0,
            "1 when disk writes are disabled after a hard failure");
    }
  }
  return os.str();
}

}  // namespace masc::serve
