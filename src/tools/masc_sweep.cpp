// masc-sweep: run a grid of independent cycle-accurate simulations
// (config × program × seed) across a worker thread pool, streaming one
// JSON object per job. This is the experiment-scale front door: a whole
// Fig. 4-style thread-count sweep or Fig. 5-style machine-size sweep is
// one invocation.
//
//   masc-sweep prog.s|prog.mo|prog.ascal [options]
//     --pes LIST       comma-separated PE counts        (default 16)
//     --threads LIST   comma-separated thread counts    (default 16)
//     --width LIST     comma-separated word widths      (default 16)
//     --arity K        broadcast tree arity             (default 2)
//     --seeds N        run each config with seeds 0..N-1 (default 1)
//     --workers N      worker threads; 0 = hardware     (default 0)
//     --batch-lanes N  run up to N homogeneous grid points in lockstep
//                      on one worker, job-index innermost (default 1;
//                      bit-identical results — docs/PERF.md "Lane
//                      batching")
//     --max-cycles N   per-job cycle limit              (default 100M)
//     --deadline-ms N  wall-clock deadline for every job, measured from
//                      sweep start; late jobs report deadline-exceeded
//     --chips LIST     comma-separated chip counts; any entry turns the
//                      job into a multi-chip fabric run (docs/MULTICHIP.md)
//     --fabric-topology T  chain|tree                   (default tree)
//     --link-latency N     cycles per inter-chip hop    (default 4)
//     --link-width N       words per flit               (default 1)
//     --fabric-chunk N     lockstep chunk cycles        (default 64)
//     --table          print an IPC summary table instead of JSON lines
//
// The grid is the cross product chips × pes × threads × width × seeds,
// ordered row-major in that nesting; output order equals grid order
// regardless of --workers (deterministic result ordering).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ascal/codegen.hpp"
#include "assembler/assembler.hpp"
#include "assembler/program_io.hpp"
#include "common/error.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace masc;

int usage() {
  std::fprintf(stderr,
               "usage: masc-sweep prog.s|prog.mo|prog.ascal [--pes LIST] "
               "[--threads LIST]\n  [--width LIST] [--arity K] [--seeds N] "
               "[--workers N]\n  [--batch-lanes N] "
               "[--max-cycles N] "
               "[--deadline-ms N] [--chips LIST] "
               "[--fabric-topology chain|tree]\n  [--link-latency N] "
               "[--link-width N] [--fabric-chunk N] [--table]\n");
  return 2;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Program load_input(const std::string& path) {
  if (has_suffix(path, ".mo")) return load_program_file(path);
  std::ifstream in(path);
  if (!in) throw AssemblyError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (has_suffix(path, ".ascal"))
    return assemble(ascal::compile(buf.str()).assembly);
  return assemble(buf.str());
}

std::vector<std::uint32_t> parse_list(const char* s) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty())
      out.push_back(static_cast<std::uint32_t>(std::strtoul(item.c_str(), nullptr, 0)));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::vector<std::uint32_t> pes{16}, threads{16}, widths{16};
  std::uint32_t arity = 2, seeds = 1, workers = 0;
  std::uint32_t batch_lanes = 1;
  Cycle max_cycles = 100'000'000;
  std::uint64_t deadline_ms = 0;
  bool table = false;
  std::vector<std::uint32_t> chip_counts;  // empty = plain single-Machine jobs
  fabric::FabricConfig fab_base;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) std::exit(usage());
      return argv[i];
    };
    if (arg == "--pes") pes = parse_list(next());
    else if (arg == "--threads") threads = parse_list(next());
    else if (arg == "--width") widths = parse_list(next());
    else if (arg == "--arity") arity = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--seeds") seeds = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--workers") workers = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--batch-lanes") batch_lanes = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--max-cycles") max_cycles = std::strtoul(next(), nullptr, 0);
    else if (arg == "--deadline-ms") deadline_ms = std::strtoull(next(), nullptr, 0);
    else if (arg == "--chips") chip_counts = parse_list(next());
    else if (arg == "--fabric-topology") {
      try { fab_base.topology = fabric::parse_topology(next()); }
      catch (const std::exception& e) {
        std::fprintf(stderr, "masc-sweep: %s\n", e.what());
        std::exit(2);
      }
    }
    else if (arg == "--link-latency") fab_base.link_latency = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--link-width") fab_base.link_width_words = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--fabric-chunk") fab_base.chunk_cycles = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--table") table = true;
    else if (!arg.empty() && arg[0] == '-') return usage();
    else if (input.empty()) input = arg;
    else return usage();
  }
  if (input.empty() || pes.empty() || threads.empty() || widths.empty() ||
      seeds == 0)
    return usage();

  try {
    const Program prog = load_input(input);

    // An empty chip list means "no fabric": one sentinel iteration that
    // leaves SweepJob::fabric unset.
    const bool use_fabric = !chip_counts.empty();
    if (!use_fabric) chip_counts.push_back(0);

    std::vector<SweepJob> jobs;
    jobs.reserve(static_cast<std::size_t>(chip_counts.size()) * pes.size() *
                 threads.size() * widths.size() * seeds);
    for (const auto c : chip_counts)
      for (const auto p : pes)
        for (const auto t : threads)
          for (const auto w : widths)
            for (std::uint32_t s = 0; s < seeds; ++s) {
              SweepJob job;
              job.cfg.num_pes = p;
              job.cfg.num_threads = t;
              job.cfg.word_width = w;
              job.cfg.broadcast_arity = arity;
              job.cfg.validate();
              job.program = prog;
              job.label = job.cfg.name();
              if (use_fabric) {
                fabric::FabricConfig fab = fab_base;
                fab.chips = c;
                fab.validate();
                job.fabric = fab;
                job.label = fab.name() + "x" + job.cfg.name();
              }
              job.seed = s;
              job.max_cycles = max_cycles;
              jobs.push_back(std::move(job));
            }

    if (deadline_ms > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(deadline_ms);
      for (auto& job : jobs) job.deadline = deadline;
    }

    SweepRunner runner(workers);
    runner.set_batch_lanes(batch_lanes);
    const auto results = runner.run(jobs);

    bool all_ok = true;
    if (table) {
      std::printf("%-24s %6s %12s %12s %8s %10s %s\n", "config", "seed",
                  "cycles", "instrs", "IPC", "host_sec", "status");
      for (const auto& r : results) {
        if (!r.error.empty()) {
          std::printf("%-24s %6llu ERROR: %s\n", r.label.c_str(),
                      static_cast<unsigned long long>(r.seed), r.error.c_str());
          all_ok = false;
          continue;
        }
        if (!r.finished) all_ok = false;
        std::printf("%-24s %6llu %12llu %12llu %8.4f %10.4f %s\n",
                    r.label.c_str(),
                    static_cast<unsigned long long>(r.seed),
                    static_cast<unsigned long long>(r.stats.cycles),
                    static_cast<unsigned long long>(r.stats.instructions),
                    r.stats.ipc(), r.host_seconds, to_string(r.status));
      }
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("%s\n", to_json(results[i], jobs[i].cfg).c_str());
        if (!results[i].error.empty() || !results[i].finished) all_ok = false;
      }
    }
    return all_ok ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masc-sweep: %s\n", e.what());
    return 1;
  }
}
