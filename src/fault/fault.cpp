#include "fault/fault.hpp"

#include <cstdlib>

namespace masc::fault {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

double parse_rate(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || v < 0.0 || v > 1.0)
    throw std::invalid_argument("fault plan: bad rate for " + key + ": \"" +
                                value + "\"");
  return v;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  if (end == value.c_str() || *end != '\0')
    throw std::invalid_argument("fault plan: bad integer for " + key +
                                ": \"" + value + "\"");
  return v;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("fault plan: expected key=value, got \"" +
                                  item + "\"");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") plan.seed = parse_u64(key, value);
    else if (key == "frame_drop") plan.frame_drop = parse_rate(key, value);
    else if (key == "frame_truncate") plan.frame_truncate = parse_rate(key, value);
    else if (key == "frame_delay") plan.frame_delay = parse_rate(key, value);
    else if (key == "frame_delay_ms")
      plan.frame_delay_ms = static_cast<std::uint32_t>(parse_u64(key, value));
    else if (key == "dispatch_fail") plan.dispatch_fail = parse_rate(key, value);
    else if (key == "chunk_kill") plan.chunk_kill = parse_rate(key, value);
    else if (key == "chunk_kill_at") plan.chunk_kill_at = parse_u64(key, value);
    else if (key == "backend_fail") plan.backend_fail = parse_rate(key, value);
    else if (key == "backend_fail_at") plan.backend_fail_at = parse_u64(key, value);
    else if (key == "cache_disk_fail") plan.cache_disk_fail = parse_rate(key, value);
    else if (key == "cache_disk_fail_at") plan.cache_disk_fail_at = parse_u64(key, value);
    else if (key == "max_faults") plan.max_faults = parse_u64(key, value);
    else
      throw std::invalid_argument("fault plan: unknown key \"" + key + "\"");
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan),
      // Independent streams per category: the decision sequence at one
      // hook site is unaffected by how often the other sites fire.
      frame_rng_(plan.seed ^ 0x66726d65ULL),
      dispatch_rng_(plan.seed ^ 0x64737063ULL),
      chunk_rng_(plan.seed ^ 0x63686e6bULL),
      backend_rng_(plan.seed ^ 0x626b6e64ULL),
      cache_disk_rng_(plan.seed ^ 0x6364736bULL) {}

bool FaultInjector::fire(double rate, Rng& rng) {
  if (rate <= 0.0) return false;
  if (counts_.total() >= plan_.max_faults) return false;
  // Draw even at rate >= 1 so the decision index advances uniformly.
  const double u =
      static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;  // [0, 1)
  return u < rate;
}

FrameFault FaultInjector::on_frame_send() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fire(plan_.frame_drop, frame_rng_)) {
    ++counts_.frames_dropped;
    return FrameFault::kDrop;
  }
  if (fire(plan_.frame_truncate, frame_rng_)) {
    ++counts_.frames_truncated;
    return FrameFault::kTruncate;
  }
  if (fire(plan_.frame_delay, frame_rng_)) {
    ++counts_.frames_delayed;
    return FrameFault::kDelay;
  }
  return FrameFault::kNone;
}

bool FaultInjector::on_dispatch() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fire(plan_.dispatch_fail, dispatch_rng_)) {
    ++counts_.dispatches_failed;
    return true;
  }
  return false;
}

bool FaultInjector::on_chunk() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t index = ++chunk_counter_;
  if (plan_.chunk_kill_at != 0 && index == plan_.chunk_kill_at &&
      counts_.total() < plan_.max_faults) {
    ++counts_.chunks_killed;
    return true;
  }
  if (fire(plan_.chunk_kill, chunk_rng_)) {
    ++counts_.chunks_killed;
    return true;
  }
  return false;
}

bool FaultInjector::on_backend_round() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t index = ++backend_counter_;
  // Unlike chunk_kill_at, *every* request from the trigger index on
  // fails (budgeted by max_faults): a breaker only opens on
  // consecutive failures, so a one-shot fault could never trip it.
  if (plan_.backend_fail_at != 0 && index >= plan_.backend_fail_at &&
      counts_.total() < plan_.max_faults) {
    ++counts_.backend_requests_failed;
    return true;
  }
  if (fire(plan_.backend_fail, backend_rng_)) {
    ++counts_.backend_requests_failed;
    return true;
  }
  return false;
}

bool FaultInjector::on_cache_disk_write() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t index = ++cache_disk_counter_;
  // backend_fail_at semantics: every write from the trigger index on
  // fails (budgeted by max_faults) — a disk does not un-fill itself, and
  // the degraded path is only proven if writes stay broken.
  if (plan_.cache_disk_fail_at != 0 && index >= plan_.cache_disk_fail_at &&
      counts_.total() < plan_.max_faults) {
    ++counts_.cache_disk_failures;
    return true;
  }
  if (fire(plan_.cache_disk_fail, cache_disk_rng_)) {
    ++counts_.cache_disk_failures;
    return true;
  }
  return false;
}

FaultCounts FaultInjector::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

void install(FaultInjector* injector) {
  g_injector.store(injector, std::memory_order_release);
}

FaultInjector* active() {
  return g_injector.load(std::memory_order_acquire);
}

}  // namespace masc::fault
