// Content-addressed result cache: a sharded, byte-budgeted LRU map.
//
// Every simulation in this codebase is a pure function of its inputs
// (tests/sweep_test.cpp pins bit-identity across worker counts and
// chunking), so a repeated job can be answered from memory instead of
// re-paying the cycle-accurate cost. This container provides the
// mechanism: keys are 128-bit content hashes (common/hash.hpp) over the
// canonical inputs, values are shared_ptrs to immutable result objects,
// and the total footprint is bounded by a byte budget with per-shard
// LRU eviction.
//
// Concurrency: the key space is split across N independently locked
// shards (key.lo % shards), so concurrent hit/miss storms from many
// sweep workers and server sessions contend only when they collide on a
// shard. Counters are per-shard and aggregated on stats(); values are
// immutable once inserted, so a returned shared_ptr never needs its own
// lock.
//
// The cache is *semantically invisible*: a hit must be byte-identical
// to recomputation. Callers are responsible for (a) keying over every
// input that can affect the result and (b) never inserting a value that
// is not the full, deterministic output of a completed computation
// (sim/sweep.cpp refuses, e.g., fault-injected or early-stopped runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"

namespace masc {

/// Aggregated cache observability counters (monotonic except entries /
/// bytes, which are live gauges).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;        ///< live entries right now
  std::size_t bytes = 0;          ///< live charged bytes right now
  std::size_t capacity_bytes = 0;
  unsigned shards = 0;
};

template <typename Value>
class ResultCache {
 public:
  /// `capacity_bytes` bounds the sum of charged entry sizes; `shards`
  /// is clamped to [1, 256] and each shard gets an equal slice of the
  /// budget (rounded up, so tiny budgets still admit one entry).
  explicit ResultCache(std::size_t capacity_bytes, unsigned shards = 16)
      : capacity_bytes_(capacity_bytes) {
    if (shards < 1) shards = 1;
    if (shards > 256) shards = 256;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
    shard_capacity_ = (capacity_bytes + shards - 1) / shards;
  }

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up a key; a hit refreshes its LRU position and returns the
  /// immutable value. Counts one hit or one miss.
  std::shared_ptr<const Value> lookup(const Hash128& key) {
    Shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++s.misses;
      return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // most recently used
    return it->second->value;
  }

  /// lookup() without the hit/miss accounting (still refreshes LRU
  /// recency). For internal re-checks — single-flight claims, peer
  /// cache_get serving — where counting would double-bill one logical
  /// lookup and skew the hit-rate the operator sees.
  std::shared_ptr<const Value> peek(const Hash128& key) {
    Shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.index.find(key);
    if (it == s.index.end()) return nullptr;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->value;
  }

  /// Visit every live entry (shard by shard, under that shard's lock).
  /// `fn(key, value, bytes)` must not call back into the cache.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& sp : shards_) {
      const Shard& s = *sp;
      const std::lock_guard<std::mutex> lock(s.mu);
      for (const Entry& e : s.lru) fn(e.key, e.value, e.bytes);
    }
  }

  /// Insert (or refresh) a value charged at `bytes`, evicting this
  /// shard's least recently used entries until it fits. An entry larger
  /// than a whole shard's budget is not admitted (it would only evict
  /// everything and then be evicted itself by the next insert).
  void insert(const Hash128& key, std::shared_ptr<const Value> value,
              std::size_t bytes) {
    Shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock(s.mu);
    if (bytes > shard_capacity_) return;
    const auto it = s.index.find(key);
    if (it != s.index.end()) {
      // Deterministic inputs produce deterministic values, so a re-insert
      // carries the same bytes; just refresh recency and the charge.
      s.bytes -= it->second->bytes;
      s.bytes += bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    while (s.bytes + bytes > shard_capacity_ && !s.lru.empty()) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.index.erase(victim.key);
      s.lru.pop_back();
      ++s.evictions;
    }
    s.lru.push_front(Entry{key, std::move(value), bytes});
    s.index.emplace(key, s.lru.begin());
    s.bytes += bytes;
    ++s.insertions;
  }

  /// Snapshot of the aggregated counters across all shards.
  CacheStats stats() const {
    CacheStats out;
    out.capacity_bytes = capacity_bytes_;
    out.shards = static_cast<unsigned>(shards_.size());
    for (const auto& sp : shards_) {
      const Shard& s = *sp;
      const std::lock_guard<std::mutex> lock(s.mu);
      out.hits += s.hits;
      out.misses += s.misses;
      out.insertions += s.insertions;
      out.evictions += s.evictions;
      out.entries += s.index.size();
      out.bytes += s.bytes;
    }
    return out;
  }

  std::size_t capacity_bytes() const { return capacity_bytes_; }
  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

 private:
  struct Entry {
    Hash128 key;
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Hash128, typename std::list<Entry>::iterator,
                       Hash128Hasher>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_of(const Hash128& key) {
    // The digest is uniform; either half selects shards evenly.
    return *shards_[key.lo % shards_.size()];
  }

  std::size_t capacity_bytes_;
  std::size_t shard_capacity_;
  /// unique_ptr because Shard holds a mutex (immovable), and the vector
  /// is sized once in the constructor anyway.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace masc
