// masc-routerd: cluster router fronting N masc-served backends.
//
//   masc-routerd --backend HOST:PORT [--backend HOST:PORT ...] [options]
//     --port N             TCP port on 127.0.0.1; 0 = ephemeral (default 7734)
//     --backend HOST:PORT  a masc-served instance (repeatable; >= 1 required;
//                          a bare PORT means 127.0.0.1:PORT)
//     --least-queued       route by fewest outstanding jobs instead of
//                          cache-affinity rendezvous hashing (for fleets
//                          running with --cache-bytes 0)
//     --batch-lanes N      send "batch_lanes": N with every submit, which
//                          backends apply to each job that doesn't set its
//                          own — fleet-wide SIMD-over-jobs lane batching
//                          default (docs/PERF.md "Lane batching"); job text,
//                          results and cache keys are unchanged.
//                          "auto" picks N from the SIMD ISA this binary
//                          was compiled for (common/simd.hpp) and logs it
//     --io-threads N       epoll event-loop threads serving client
//                          sessions (default 2; docs/NET.md)
//     --no-peer-cache      disable tier-3 peer cache read-through: diverted
//                          or re-placed submits go straight to simulation
//                          instead of first asking the ring owner's cache
//                          (docs/CACHE.md)
//     --peer-timeout-ms N  budget for one peer cache round  (default 250)
//     --fail-threshold N   consecutive failures that open a breaker (default 3)
//     --cooldown-ms N      open-breaker dwell before a half-open probe
//                          (default 500)
//     --probe-ms N         background health-ping period; 0 = disabled
//                          (default 200)
//     --connect-timeout-ms N  health-probe TCP connect budget (default 2000)
//     --idle-timeout-ms N  reap client sessions idle this long; 0 = never
//     --fault SPEC         deterministic fault injector, e.g.
//                          "seed=7,backend_fail=0.2,max_faults=3" (testing)
//
// Clients speak the masc-served protocol to the router unchanged
// (masc-client just points at it). Every backend op is a round on a
// pipelined v2 channel of the client's event loop, so no client's
// request waits on another's backend. Prints "masc-routerd listening on
// 127.0.0.1:PORT" once ready; runs until {"op":"shutdown"} or
// SIGINT/SIGTERM. Topology, hashing, and breaker policy: docs/CLUSTER.md.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "cluster/router.hpp"
#include "common/simd.hpp"
#include "fault/fault.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

int usage() {
  std::fprintf(stderr,
               "usage: masc-routerd --backend HOST:PORT [--backend ...]\n"
               "  [--port N] [--least-queued] [--batch-lanes N|auto]\n"
               "  [--io-threads N]\n"
               "  [--no-peer-cache] [--peer-timeout-ms N] "
               "[--fail-threshold N] [--cooldown-ms N] [--probe-ms N]\n"
               "  [--connect-timeout-ms N] [--idle-timeout-ms N] "
               "[--fault SPEC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  masc::cluster::RouterOptions opts;
  opts.port = 7734;
  std::string fault_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) std::exit(usage());
      return argv[i];
    };
    try {
      if (arg == "--port")
        opts.port =
            static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
      else if (arg == "--backend")
        opts.backends.push_back(masc::cluster::BackendSpec::parse(next()));
      else if (arg == "--least-queued")
        opts.affinity = false;
      else if (arg == "--batch-lanes") {
        const std::string v = next();
        if (v == "auto") {
          const masc::SimdInfo si = masc::host_simd();
          opts.default_batch_lanes = si.auto_lanes;
          std::printf("masc-routerd: batch-lanes auto -> %u (%s, %u-bit)\n",
                      si.auto_lanes, si.isa, si.width_bits);
        } else {
          opts.default_batch_lanes =
              static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 0));
        }
      }
      else if (arg == "--no-peer-cache")
        opts.peer_read_through = false;
      else if (arg == "--peer-timeout-ms")
        opts.peer_timeout_ms = std::strtoull(next(), nullptr, 0);
      else if (arg == "--fail-threshold")
        opts.breaker.failure_threshold =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
      else if (arg == "--cooldown-ms")
        opts.breaker.open_cooldown_ms = std::strtoull(next(), nullptr, 0);
      else if (arg == "--probe-ms")
        opts.probe_interval_ms = std::strtoull(next(), nullptr, 0);
      else if (arg == "--connect-timeout-ms")
        opts.connect_timeout_ms = std::strtoull(next(), nullptr, 0);
      else if (arg == "--idle-timeout-ms")
        opts.idle_timeout_ms = std::strtoull(next(), nullptr, 0);
      else if (arg == "--io-threads")
        opts.io_threads =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
      else if (arg == "--fault")
        fault_spec = next();
      else
        return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "masc-routerd: %s\n", e.what());
      return 2;
    }
  }
  if (opts.backends.empty() || opts.breaker.failure_threshold == 0)
    return usage();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    std::unique_ptr<masc::fault::ScopedInjector> injector;
    if (!fault_spec.empty())
      injector = std::make_unique<masc::fault::ScopedInjector>(
          masc::fault::FaultPlan::parse(fault_spec));

    masc::cluster::Router router(opts);
    router.start();
    std::printf("masc-routerd listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(router.port()));
    std::fflush(stdout);
    while (!router.shutdown_requested() && g_signal == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    router.stop();
    std::printf("masc-routerd: stopped\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masc-routerd: %s\n", e.what());
    return 1;
  }
}
