// Tiered result cache implementation (SweepResultCache, docs/CACHE.md):
// L1 RAM LRU + L2 disk segment store + write-behind demotion +
// single-flight. The SweepRunner integration lives in sweep.cpp.

#include "common/binio.hpp"
#include "sim/sweep.hpp"

namespace masc {

namespace {
constexpr std::uint8_t kCachedRunVersion = 1;
}

std::string encode_cached_run(const CachedSweepRun& run) {
  std::string out;
  BinWriter w(out);
  w.u8(kCachedRunVersion);
  w.u8(static_cast<std::uint8_t>(run.status));
  // restore(Stats&) validates thread_stalls' row count against the
  // destination (checkpoint semantics: the machine pre-sizes it); a
  // cached run decodes into a default Stats, so the codec must carry
  // the dimension itself.
  w.u64(run.stats.thread_stalls.size());
  save(run.stats, w);
  w.u8(run.fabric ? 1 : 0);
  if (run.fabric) fabric::save(*run.fabric, w);
  return out;
}

bool decode_cached_run(std::string_view payload, CachedSweepRun& out) {
  try {
    BinReader r(payload.data(), payload.size());
    if (r.u8() != kCachedRunVersion) return false;
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(SweepStatus::kDeadlineExceeded))
      return false;
    out.status = static_cast<SweepStatus>(status);
    const std::uint64_t stall_rows = r.u64();
    if (stall_rows > (1u << 20)) return false;  // implausible: corrupt
    out.stats.thread_stalls.resize(stall_rows);
    restore(out.stats, r);
    if (r.u8() != 0) {
      fabric::FabricStats fs;
      fabric::restore(fs, r);
      out.fabric = fs;
    } else {
      out.fabric.reset();
    }
    return r.done();
  } catch (const BinError&) {
    return false;
  }
}

SweepResultCache::SweepResultCache(std::size_t capacity_bytes, unsigned shards)
    : l1_(capacity_bytes, shards) {}

SweepResultCache::~SweepResultCache() {
  if (flusher_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(wb_mu_);
      wb_stop_ = true;
    }
    wb_cv_.notify_all();
    flusher_.join();
  }
}

void SweepResultCache::attach_disk(std::unique_ptr<CacheStore> store) {
  store_ = std::move(store);
  flusher_ = std::thread([this] { flusher_loop(); });
}

void SweepResultCache::note_disk_open_failure() {
  const std::lock_guard<std::mutex> lock(tier_mu_);
  disk_open_failed_ = true;
}

std::shared_ptr<const CachedSweepRun> SweepResultCache::lookup(
    const Hash128& key) {
  if (auto hit = l1_.lookup(key)) return hit;
  if (!store_) return nullptr;
  const auto payload = store_->get(key);
  if (!payload) return nullptr;
  auto run = std::make_shared<CachedSweepRun>();
  if (!decode_cached_run(*payload, *run)) {
    // Version skew or partial corruption the checksum missed: a miss,
    // never an error — the caller simulates and overwrites the record.
    const std::lock_guard<std::mutex> lock(tier_mu_);
    ++decode_failures_;
    return nullptr;
  }
  l1_.insert(key, run, cached_run_bytes(*run));  // promote
  {
    const std::lock_guard<std::mutex> lock(tier_mu_);
    ++l2_hits_;
  }
  return run;
}

void SweepResultCache::insert(const Hash128& key,
                              std::shared_ptr<const CachedSweepRun> value,
                              std::size_t bytes) {
  if (store_) enqueue_write(key, encode_cached_run(*value));
  l1_.insert(key, std::move(value), bytes);
}

std::optional<std::string> SweepResultCache::peek_encoded(const Hash128& key) {
  if (const auto hit = l1_.peek(key)) {
    const std::lock_guard<std::mutex> lock(enc_mu_);
    if (!(enc_key_ == key) || enc_src_.lock() != hit) {
      enc_key_ = key;
      enc_src_ = hit;
      enc_bytes_ = encode_cached_run(*hit);
    }
    return enc_bytes_;
  }
  if (!store_) return std::nullopt;
  return store_->get(key);
}

std::shared_ptr<const CachedSweepRun> SweepResultCache::begin_flight(
    const Hash128& key, bool* leader, std::chrono::milliseconds wait) {
  *leader = false;
  // Late re-check: the pre-pass lookup that sent the caller here ran a
  // while ago; a concurrent flight may have published since. peek() so
  // one logical lookup is not billed twice.
  if (auto v = l1_.peek(key)) return v;
  std::shared_ptr<Flight> flight;
  {
    const std::lock_guard<std::mutex> lock(flights_mu_);
    const auto it = flights_.find(key);
    if (it == flights_.end()) {
      flights_.emplace(key, std::make_shared<Flight>());
      {
        const std::lock_guard<std::mutex> tlock(tier_mu_);
        ++flights_led_;
      }
      *leader = true;
      return nullptr;
    }
    flight = it->second;
  }
  {
    const std::lock_guard<std::mutex> tlock(tier_mu_);
    ++flights_joined_;
  }
  std::unique_lock<std::mutex> flock(flight->mu);
  flight->cv.wait_for(flock, wait, [&] { return flight->done; });
  if (flight->done && flight->value) {
    const std::lock_guard<std::mutex> tlock(tier_mu_);
    ++flights_served_;
    return flight->value;
  }
  // Timed out or the leader aborted: compute independently.
  return nullptr;
}

void SweepResultCache::finish_flight(
    const Hash128& key, std::shared_ptr<const CachedSweepRun> value) {
  std::shared_ptr<Flight> flight;
  {
    const std::lock_guard<std::mutex> lock(flights_mu_);
    const auto it = flights_.find(key);
    if (it == flights_.end()) return;
    flight = it->second;
    flights_.erase(it);
  }
  {
    const std::lock_guard<std::mutex> flock(flight->mu);
    flight->done = true;
    flight->value = std::move(value);
  }
  flight->cv.notify_all();
}

void SweepResultCache::publish(const Hash128& key,
                               std::shared_ptr<const CachedSweepRun> value,
                               std::size_t bytes) {
  insert(key, value, bytes);
  finish_flight(key, std::move(value));
}

void SweepResultCache::abort_flight(const Hash128& key) {
  finish_flight(key, nullptr);
}

void SweepResultCache::enqueue_write(const Hash128& key, std::string payload) {
  {
    const std::lock_guard<std::mutex> lock(wb_mu_);
    if (!wb_stop_ && wb_queue_.size() < kWriteBehindSlots) {
      wb_queue_.emplace_back(key, std::move(payload));
      wb_cv_.notify_one();
      return;
    }
  }
  const std::lock_guard<std::mutex> lock(tier_mu_);
  ++demote_drops_;
}

void SweepResultCache::flusher_loop() {
  for (;;) {
    std::deque<std::pair<Hash128, std::string>> batch;
    {
      std::unique_lock<std::mutex> lock(wb_mu_);
      wb_cv_.wait(lock, [&] { return wb_stop_ || !wb_queue_.empty(); });
      if (wb_queue_.empty()) return;  // stop requested and drained
      batch.swap(wb_queue_);
      wb_in_flight_ = batch.size();
    }
    std::uint64_t written = 0;
    for (const auto& [key, payload] : batch)
      if (store_->put(key, payload, /*sync=*/false)) ++written;
    // One fsync per drained batch: write-behind amortizes durability
    // without ever blocking the insert path.
    store_->sync();
    {
      const std::lock_guard<std::mutex> lock(tier_mu_);
      demotions_ += written;
    }
    {
      const std::lock_guard<std::mutex> lock(wb_mu_);
      wb_in_flight_ = 0;
    }
    wb_done_.notify_all();
  }
}

void SweepResultCache::drain_writes() {
  if (!store_) return;
  std::unique_lock<std::mutex> lock(wb_mu_);
  wb_done_.wait(lock,
                [&] { return wb_queue_.empty() && wb_in_flight_ == 0; });
}

std::size_t SweepResultCache::flush_to_disk() {
  if (!store_) return 0;
  drain_writes();
  std::size_t written = 0;
  l1_.for_each([&](const Hash128& key,
                   const std::shared_ptr<const CachedSweepRun>& value,
                   std::size_t) {
    if (store_->put(key, encode_cached_run(*value), /*sync=*/false)) ++written;
  });
  store_->sync();
  {
    const std::lock_guard<std::mutex> lock(tier_mu_);
    demotions_ += written;
  }
  return written;
}

TieredCacheStats SweepResultCache::stats() const {
  TieredCacheStats out;
  static_cast<CacheStats&>(out) = l1_.stats();
  out.l1_hits = out.hits;
  const std::lock_guard<std::mutex> lock(tier_mu_);
  out.l2_hits = l2_hits_;
  out.promotions = l2_hits_;
  out.demotions = demotions_;
  out.demote_drops = demote_drops_;
  out.decode_failures = decode_failures_;
  out.flights_led = flights_led_;
  out.flights_joined = flights_joined_;
  out.flights_served = flights_served_;
  out.disk_open_failed = disk_open_failed_;
  // A tiered lookup that promoted from disk was counted as an L1 miss
  // on the way through; fold it back so hits/misses describe what the
  // caller experienced.
  out.hits += l2_hits_;
  out.misses -= l2_hits_ > out.misses ? out.misses : l2_hits_;
  if (store_) {
    out.disk_enabled = true;
    out.disk = store_->stats();
  }
  return out;
}

void describe(metrics::Registry& r, const TieredCacheStats* s) {
  r.gauge("enabled", s != nullptr, "cache_enabled",
          "1 when the result cache is configured");
  if (!s) return;
  r.counter("hits", s->hits, "cache_hits_total", "Result cache hits");
  r.counter("misses", s->misses, "cache_misses_total", "Result cache misses");
  r.counter("insertions", s->insertions, "cache_insertions_total",
            "Result cache insertions");
  r.counter("evictions", s->evictions, "cache_evictions_total",
            "Result cache LRU evictions");
  r.gauge("entries", s->entries, "cache_entries", "Live result cache entries");
  r.gauge("bytes", s->bytes, "cache_bytes", "Live result cache charged bytes");
  r.gauge("capacity_bytes", s->capacity_bytes, "cache_capacity_bytes",
          "Result cache byte budget");
  r.value("shards", s->shards);
  // Tier breakdown (docs/CACHE.md): L1 = RAM LRU, L2 = disk segment
  // store; `hits` above is the combined outcome.
  r.counter("l1_hits", s->l1_hits, "cache_l1_hits_total",
            "Lookups served from the RAM tier");
  r.counter("l2_hits", s->l2_hits, "cache_l2_hits_total",
            "Lookups served by promoting a disk record");
  r.counter("promotions", s->promotions, "cache_promotions_total",
            "L2 -> L1 promotions");
  r.counter("demotions", s->demotions, "cache_demotions_total",
            "Records written behind to the disk tier");
  r.counter("demote_drops", s->demote_drops, "cache_demote_drops_total",
            "Write-behind records shed on queue overflow");
  r.counter("decode_failures", s->decode_failures,
            "cache_decode_failures_total",
            "Disk records that failed to decode (served as misses)");
  r.begin("flights");
  r.counter("led", s->flights_led, "cache_flights_led_total",
            "Single-flight computations claimed");
  r.counter("joined", s->flights_joined, "cache_flights_joined_total",
            "Lookups that waited behind an in-progress flight");
  r.counter("served", s->flights_served, "cache_flights_served_total",
            "Waits resolved by the flight leader's publish");
  r.end();
  r.begin("l2");
  r.gauge("enabled", s->disk_enabled, "cache_l2_enabled",
          "1 when a disk tier is attached");
  r.gauge("open_failed", s->disk_open_failed, "cache_l2_open_failed",
          "1 when --cache-dir was configured but could not be opened");
  if (s->disk_enabled) {
    const CacheStoreStats& d = s->disk;
    r.gauge("entries", d.entries, "cache_l2_entries",
            "Live records in the disk tier");
    r.gauge("bytes", d.bytes, "cache_l2_bytes", "Disk tier segment bytes");
    r.gauge("segments", d.segments, "cache_l2_segments",
            "Disk tier segment files");
    r.gauge("capacity_bytes", d.capacity_bytes, "cache_l2_capacity_bytes",
            "Disk tier byte budget");
    r.counter("gets", d.gets, "cache_l2_gets_total", "Disk tier reads");
    r.counter("hits", d.hits, "cache_l2_read_hits_total",
              "Disk tier reads that found a valid record");
    r.counter("puts", d.puts, "cache_l2_puts_total",
              "Records appended to the disk tier");
    r.counter("put_failures", d.put_failures, "cache_l2_put_failures_total",
              "Disk writes refused or failed (degraded path)");
    r.counter("corrupt_skipped", d.corrupt_skipped,
              "cache_l2_corrupt_skipped_total",
              "Checksum-failed records skipped");
    r.counter("torn_truncated", d.torn_truncated,
              "cache_l2_torn_truncated_total",
              "Torn segment tails cut during recovery");
    r.value("segments_created", d.segments_created);
    r.value("segments_retired", d.segments_retired);
    r.counter("records_evicted", d.records_evicted,
              "cache_l2_records_evicted_total",
              "Live records lost with retired segments");
    r.counter("records_salvaged", d.records_salvaged,
              "cache_l2_records_salvaged_total",
              "Live records recompacted before segment retirement");
    r.gauge("degraded", d.degraded, "cache_l2_degraded",
            "1 when disk writes are disabled after a hard failure");
  }
  r.end();
}

}  // namespace masc
