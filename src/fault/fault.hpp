// Deterministic fault injection for the serving stack.
//
// The resilience layer (journal, checkpoint/restore, client retry) is
// only trustworthy if every recovery path can be exercised on demand.
// This subsystem provides that: a seeded FaultPlan drives a
// FaultInjector whose decisions are a pure function of (seed, per-site
// decision index), so a failing fault run reproduces exactly from its
// printed plan. Hook sites live in serve/protocol.cpp (frame
// drop/delay/truncation), serve/server.cpp (dispatch failures), and
// sim/sweep.cpp (worker chunk kills).
//
// Cost when disabled: each hook site is one relaxed atomic load of a
// null pointer — nothing else. Installation is process-global and meant
// for tests and the masc-served --fault flag, not for concurrent
// injectors.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/random.hpp"

namespace masc::fault {

/// Thrown at a hook site when the injector kills the operation outright
/// (chunk kills, truncated frame writes).
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What to do with one outgoing protocol frame.
enum class FrameFault : std::uint8_t {
  kNone,      ///< deliver normally
  kDrop,      ///< swallow the frame: the peer never sees it
  kTruncate,  ///< send the header and a partial payload, then fail
  kDelay,     ///< deliver after FaultPlan::frame_delay_ms
};

/// Declarative fault schedule. Rates are probabilities in [0, 1];
/// `chunk_kill_at` names one absolute sweep-chunk index (1-based,
/// counted across the injector's lifetime) to kill deterministically.
/// `max_faults` caps the total number of injected faults so that
/// retry-based recovery always converges in tests.
struct FaultPlan {
  std::uint64_t seed = 0;
  double frame_drop = 0.0;
  double frame_truncate = 0.0;
  double frame_delay = 0.0;
  std::uint32_t frame_delay_ms = 5;
  double dispatch_fail = 0.0;
  double chunk_kill = 0.0;
  std::uint64_t chunk_kill_at = 0;
  /// Router-side hook (cluster/router.cpp): probability that one
  /// router→backend request is failed before touching the socket, as if
  /// the backend were unreachable. `backend_fail_at` instead names one
  /// absolute backend-request index (1-based) to start failing at, and
  /// every subsequent request also fails until max_faults runs out —
  /// the deterministic way to drive a breaker open in tests.
  double backend_fail = 0.0;
  std::uint64_t backend_fail_at = 0;
  /// Cache-store hook (common/cache_store.cpp): probability that one L2
  /// disk write is failed before touching the file, as if the disk were
  /// full. `cache_disk_fail_at` names the first write index (1-based) to
  /// fail at, and every later write also fails until max_faults runs
  /// out — writes must *stay* broken to prove the store degrades to
  /// simulation instead of erroring (docs/CACHE.md).
  double cache_disk_fail = 0.0;
  std::uint64_t cache_disk_fail_at = 0;
  std::uint64_t max_faults = ~std::uint64_t{0};

  /// Parse "key=value,key=value" specs, e.g.
  /// "seed=7,frame_drop=0.2,chunk_kill_at=3,max_faults=10".
  /// Throws std::invalid_argument on unknown keys or bad values.
  static FaultPlan parse(const std::string& spec);
};

/// Injected-fault tallies (for assertions and operator logs).
struct FaultCounts {
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_truncated = 0;
  std::uint64_t frames_delayed = 0;
  std::uint64_t dispatches_failed = 0;
  std::uint64_t chunks_killed = 0;
  std::uint64_t backend_requests_failed = 0;
  std::uint64_t cache_disk_failures = 0;
  std::uint64_t total() const {
    return frames_dropped + frames_truncated + frames_delayed +
           dispatches_failed + chunks_killed + backend_requests_failed +
           cache_disk_failures;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// Decide the fate of one outgoing frame.
  FrameFault on_frame_send();
  /// True when one batch dispatch should be bounced back to the queue.
  bool on_dispatch();
  /// Advances the global chunk counter; true when this chunk must die.
  bool on_chunk();
  /// Advances the backend-request counter; true when the router must
  /// treat this backend round as failed (see FaultPlan::backend_fail).
  bool on_backend_round();
  /// Advances the cache-disk-write counter; true when the cache store
  /// must fail this append (see FaultPlan::cache_disk_fail).
  bool on_cache_disk_write();

  FaultCounts counts() const;

 private:
  bool fire(double rate, Rng& rng);

  const FaultPlan plan_;
  mutable std::mutex mu_;
  Rng frame_rng_;
  Rng dispatch_rng_;
  Rng chunk_rng_;
  Rng backend_rng_;
  Rng cache_disk_rng_;
  std::uint64_t chunk_counter_ = 0;
  std::uint64_t backend_counter_ = 0;
  std::uint64_t cache_disk_counter_ = 0;
  FaultCounts counts_;
};

/// Install (or, with nullptr, remove) the process-global injector. The
/// caller keeps ownership and must uninstall before destroying it.
void install(FaultInjector* injector);

/// The installed injector, or nullptr. Hook sites call this first; the
/// nullptr fast path is a single acquire load (a plain load on x86),
/// which pairs with install()'s release store so a hook on another
/// thread never sees the injector before its construction.
FaultInjector* active();

/// RAII installation for tests: installs an injector built from `plan`
/// for the scope's lifetime.
class ScopedInjector {
 public:
  explicit ScopedInjector(const FaultPlan& plan) : injector_(plan) {
    install(&injector_);
  }
  ~ScopedInjector() { install(nullptr); }
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;

  FaultInjector& operator*() { return injector_; }
  FaultInjector* operator->() { return &injector_; }

 private:
  FaultInjector injector_;
};

}  // namespace masc::fault
