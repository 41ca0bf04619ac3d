#include "serve/metrics.hpp"

#include "common/simd.hpp"

namespace masc::serve {

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
  ++host_ms_hist_[metrics::log2_bucket(r.host_seconds * 1e3,
                                       metrics::Edge::kPow2, kHistBuckets)];
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

void ServeMetrics::describe(metrics::Registry& r, std::size_t queue_depth,
                            std::size_t in_flight, std::size_t queue_capacity,
                            std::size_t jobs_tracked,
                            const TieredCacheStats* cache,
                            const SweepBatchStats& batch) const {
  const std::lock_guard<std::mutex> lock(mu_);
  r.gauge("queue_depth", queue_depth, "queue_depth",
          "Jobs waiting in the queue");
  r.gauge("queue_capacity", queue_capacity, "queue_capacity", "Queue slots");
  r.gauge("in_flight", in_flight, "jobs_in_flight",
          "Jobs in the currently dispatched batch");
  r.gauge("jobs_tracked", jobs_tracked, "jobs_tracked",
          "Job records held: submitted and not yet released");
  // Host SIMD probe: what `--batch-lanes auto` resolves to on this
  // build (docs/PERF.md "Lane batching").
  r.begin("simd");
  masc::describe(r, host_simd());
  r.end();
  r.begin("cache");
  masc::describe(r, cache);
  r.end();
  r.begin("batch");
  masc::describe(r, batch);
  r.end();
  r.begin("counters");
  r.counter("submitted", submitted_, "jobs_submitted_total",
            "Jobs admitted to the queue");
  r.counter("rejected", rejected_, "jobs_rejected_total",
            "Jobs refused with queue_full");
  r.counter("batches", batches_, "batches_total", "Sweep dispatches issued");
  constexpr const char* kDone = "Completed jobs by final status";
  r.counter("completed", completed_, "jobs_done_total", kDone,
            {"status", "finished"});
  r.counter("cycle_limited", cycle_limited_, "jobs_done_total", kDone,
            {"status", "cycle_limit"});
  r.counter("failed", failed_, "jobs_done_total", kDone, {"status", "error"});
  r.counter("cancelled", cancelled_, "jobs_done_total", kDone,
            {"status", "cancelled"});
  r.counter("deadline_exceeded", deadline_exceeded_, "jobs_done_total", kDone,
            {"status", "deadline_exceeded"});
  r.end();
  r.histogram("host_ms_hist", host_ms_hist_, metrics::Edge::kPow2,
              host_seconds_total_ * 1e3, "job_host_ms",
              "Per-job host wall time");
  r.value("host_seconds", host_seconds_total_);
  r.begin("aggregate");
  r.counter("cycles", cycles_total_, "sim_cycles_total",
            "Simulated cycles across all jobs");
  r.counter("instructions", instructions_total_, "sim_instructions_total",
            "Simulated instructions across all jobs");
  r.value("ipc", cycles_total_ == 0
                     ? 0.0
                     : static_cast<double>(instructions_total_) /
                           static_cast<double>(cycles_total_));
  r.counter("idle_cycles", idle_cycles_total_, "sim_idle_cycles_total",
            "Simulated idle PE-cycles across all jobs");
  r.begin("idle_by_cause");
  for (std::size_t c = 1;
       c < static_cast<std::size_t>(StallCause::kCauseCount); ++c) {
    const char* cause = to_string(static_cast<StallCause>(c));
    r.counter(cause, idle_by_cause_total_[c], "sim_idle_cycles_by_cause_total",
              "Idle cycles by stall cause", {"cause", cause});
  }
  r.end();
  r.end();
}

}  // namespace masc::serve
