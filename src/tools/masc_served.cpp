// masc-served: the MASC simulation service daemon.
//
//   masc-served [options]
//     --port N            TCP port on 127.0.0.1; 0 = ephemeral (default 7733)
//     --workers N         simulation worker threads; 0 = hardware (default 0)
//     --batch-lanes N     a free worker pulls up to N homogeneous queued
//                         jobs, across submits, and runs them in lockstep,
//                         for jobs that don't request their
//                         own "batch_lanes" (default 1; bit-identical —
//                         docs/PERF.md "Lane batching"; inert with
//                         --journal, whose jobs checkpoint on stop).
//                         "auto" picks the lane count from the SIMD ISA
//                         this binary was compiled for (common/simd.hpp)
//                         and logs the choice; the probe result is also
//                         in {"op":"stats"} under "simd".
//     --io-threads N      epoll event-loop threads serving connections
//                         (default 2; docs/NET.md)
//     --queue N           jobs queued and not yet pulled by a worker
//                         (default 256)
//     --max-cycles N      server-side cap on any job's cycle limit
//     --deadline-ms N     default wall-clock deadline per job; 0 = none
//     --cache-bytes N     result-cache byte budget; 0 = disabled (default 0).
//                         Repeat jobs are answered from memory at submit
//                         time, without taking queue slots.
//     --cache-shards N    result-cache lock shards            (default 16)
//     --cache-dir PATH    crash-durable disk tier for the result cache
//                         (docs/CACHE.md); survives restarts. Implies
//                         --cache-bytes 64MiB when unset. An unusable
//                         path degrades to RAM-only, never a dead server.
//     --cache-disk-bytes N     disk tier byte budget      (default 256 MiB)
//     --cache-segment-bytes N  disk segment rotation size   (default 8 MiB)
//     --journal PATH      crash-safe job journal; replayed on start
//     --ckpt-chunks N     journal running-job checkpoints every N sweep
//                         chunks (N x 65536 cycles); 0 = only on drain
//     --io-timeout-ms N   per-frame socket read/write budget; 0 = none
//     --idle-timeout-ms N reap sessions idle this long; 0 = never
//     --fault SPEC        install a deterministic fault injector, e.g.
//                         "seed=7,frame_drop=0.1,max_faults=5" (testing)
//
// Prints "masc-served listening on 127.0.0.1:PORT" once ready (scripts
// scrape the port when started with --port 0). Runs until a client
// sends {"op":"shutdown"} or the process receives SIGINT/SIGTERM.
// SIGTERM drains gracefully: in-flight jobs finish or checkpoint to the
// journal, queued jobs stay journaled, and the exit status is 0 — a
// restart on the same --journal resumes everything (docs/RELIABILITY.md).
// Protocol reference: docs/SERVER.md.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "common/simd.hpp"
#include "fault/fault.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

int usage() {
  std::fprintf(stderr,
               "usage: masc-served [--port N] [--workers N] [--batch-lanes N|auto]\n"
               "  [--io-threads N] [--queue N] "
               "[--max-cycles N] [--deadline-ms N] "
               "[--cache-bytes N] [--cache-shards N]\n  [--cache-dir PATH] "
               "[--cache-disk-bytes N] [--cache-segment-bytes N]\n"
               "  [--journal PATH] "
               "[--ckpt-chunks N] [--io-timeout-ms N] [--idle-timeout-ms N]\n"
               "  [--fault SPEC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  masc::serve::ServerOptions opts;
  opts.port = 7733;
  std::string fault_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) std::exit(usage());
      return argv[i];
    };
    if (arg == "--port")
      opts.port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--workers")
      opts.workers = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--batch-lanes") {
      const std::string v = next();
      if (v == "auto") {
        const masc::SimdInfo si = masc::host_simd();
        opts.batch_lanes = si.auto_lanes;
        std::printf("masc-served: batch-lanes auto -> %u (%s, %u-bit)\n",
                    si.auto_lanes, si.isa, si.width_bits);
      } else {
        opts.batch_lanes =
            static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 0));
      }
    }
    else if (arg == "--queue")
      opts.queue_capacity = std::strtoul(next(), nullptr, 0);
    else if (arg == "--max-cycles")
      opts.max_cycles_cap = std::strtoull(next(), nullptr, 0);
    else if (arg == "--deadline-ms")
      opts.default_deadline_ms = std::strtoull(next(), nullptr, 0);
    else if (arg == "--cache-bytes")
      opts.cache_bytes = std::strtoull(next(), nullptr, 0);
    else if (arg == "--cache-shards")
      opts.cache_shards = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--cache-dir")
      opts.cache_dir = next();
    else if (arg == "--cache-disk-bytes")
      opts.cache_disk_bytes = std::strtoull(next(), nullptr, 0);
    else if (arg == "--cache-segment-bytes")
      opts.cache_segment_bytes = std::strtoull(next(), nullptr, 0);
    else if (arg == "--journal")
      opts.journal_path = next();
    else if (arg == "--ckpt-chunks")
      opts.checkpoint_every_chunks =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--io-timeout-ms")
      opts.io_timeout_ms = std::strtoull(next(), nullptr, 0);
    else if (arg == "--idle-timeout-ms")
      opts.idle_timeout_ms = std::strtoull(next(), nullptr, 0);
    else if (arg == "--io-threads")
      opts.io_threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--fault")
      fault_spec = next();
    else
      return usage();
  }
  if (opts.queue_capacity == 0) return usage();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    std::unique_ptr<masc::fault::ScopedInjector> injector;
    if (!fault_spec.empty())
      injector = std::make_unique<masc::fault::ScopedInjector>(
          masc::fault::FaultPlan::parse(fault_spec));

    masc::serve::Server server(opts);
    server.start();
    std::printf("masc-served listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    while (!server.shutdown_requested() && g_signal == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (g_signal == SIGTERM) {
      // Graceful drain: finish or checkpoint what's running, leave the
      // rest journaled for the next start, and report a clean exit so
      // supervisors don't count the drain as a failure.
      server.drain();
      std::printf("masc-served: drained\n");
      return 0;
    }
    server.stop();
    std::printf("masc-served: stopped\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masc-served: %s\n", e.what());
    return 1;
  }
}
