// masc-run: run a MASC program on the cycle-accurate simulator.
//
//   masc-run prog.s|prog.mo|prog.ascal [options]
//     --pes N        PE count               (default 16)
//     --threads N    hardware threads       (default 16)
//     --width N      word width 8|16|32     (default 16)
//     --arity K      broadcast tree arity   (default 2)
//     --chips K      simulate K chips on an inter-chip fabric
//                    (docs/MULTICHIP.md; enables the flags below)
//     --fabric-topology T   chain|tree      (default tree)
//     --link-latency N      cycles per inter-chip hop (default 4)
//     --link-width N        words per flit  (default 1)
//     --fabric-chunk N      lockstep chunk cycles (default 64)
//     --single       disable multithreading (baseline [7]-style timing)
//     --nonpipelined-net   combinational networks (baseline)
//     --serial       non-pipelined execution (baseline [6])
//     --max-cycles N cycle limit            (default 100M)
//     --trace[=N]    print pipeline diagram of the first N instructions
//     --stats        print the full statistics block
//     --json         print statistics as one JSON object (nothing else)
//     --func         run on the functional simulator instead
//     --regs         dump thread-0 scalar registers at exit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "ascal/codegen.hpp"
#include "assembler/assembler.hpp"
#include "assembler/program_io.hpp"
#include "fabric/fabric.hpp"
#include "sim/funcsim.hpp"
#include "sim/machine.hpp"

namespace {

using namespace masc;

int usage() {
  std::fprintf(stderr, "usage: masc-run prog.s|prog.mo [--pes N] [--threads N] "
                       "[--width N] [--arity K]\n  [--single] "
                       "[--nonpipelined-net] [--serial] [--max-cycles N]\n"
                       "  [--chips K] [--fabric-topology chain|tree] "
                       "[--link-latency N] [--link-width N]\n"
                       "  [--fabric-chunk N] "
                       "[--trace[=N]] [--stats] [--func] [--regs]\n");
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

void print_stats(const Stats& st) {
  std::printf("cycles        : %llu\n", static_cast<unsigned long long>(st.cycles));
  std::printf("instructions  : %llu (scalar %llu, parallel %llu, reduction %llu)\n",
              static_cast<unsigned long long>(st.instructions),
              static_cast<unsigned long long>(st.issued(InstrClass::kScalar)),
              static_cast<unsigned long long>(st.issued(InstrClass::kParallel)),
              static_cast<unsigned long long>(st.issued(InstrClass::kReduction)));
  std::printf("IPC           : %.4f\n", st.ipc());
  std::printf("idle cycles   : %llu\n", static_cast<unsigned long long>(st.idle_cycles));
  for (std::size_t c = 1; c < static_cast<std::size_t>(StallCause::kCauseCount); ++c)
    if (st.idle_by_cause[c])
      std::printf("  %-20s: %llu\n", to_string(static_cast<StallCause>(c)),
                  static_cast<unsigned long long>(st.idle_by_cause[c]));
  std::printf("per-thread issues:");
  for (const auto n : st.issued_by_thread)
    std::printf(" %llu", static_cast<unsigned long long>(n));
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  MachineConfig cfg;
  cfg.word_width = 16;
  Cycle max_cycles = 100'000'000;
  bool trace = false, stats = false, func = false, regs = false, json = false;
  std::size_t trace_n = 64;
  bool use_fabric = false;
  fabric::FabricConfig fab;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_u32 = [&](std::uint32_t& out) {
      if (++i >= argc) { std::exit(usage()); }
      out = static_cast<std::uint32_t>(std::strtoul(argv[i], nullptr, 0));
    };
    if (arg == "--pes") next_u32(cfg.num_pes);
    else if (arg == "--threads") next_u32(cfg.num_threads);
    else if (arg == "--width") { std::uint32_t w; next_u32(w); cfg.word_width = w; }
    else if (arg == "--arity") next_u32(cfg.broadcast_arity);
    else if (arg == "--single") cfg.multithreading = false;
    else if (arg == "--nonpipelined-net") cfg.pipelined_network = false;
    else if (arg == "--serial") { cfg.pipelined_execution = false; cfg.multithreading = false; }
    else if (arg == "--max-cycles") { std::uint32_t n; next_u32(n); max_cycles = n; }
    else if (arg == "--chips") { use_fabric = true; next_u32(fab.chips); }
    else if (arg == "--fabric-topology") {
      use_fabric = true;
      if (++i >= argc) std::exit(usage());
      try { fab.topology = fabric::parse_topology(argv[i]); }
      catch (const std::exception& e) {
        std::fprintf(stderr, "masc-run: %s\n", e.what());
        std::exit(2);
      }
    }
    else if (arg == "--link-latency") { use_fabric = true; next_u32(fab.link_latency); }
    else if (arg == "--link-width") { use_fabric = true; next_u32(fab.link_width_words); }
    else if (arg == "--fabric-chunk") { use_fabric = true; next_u32(fab.chunk_cycles); }
    else if (arg == "--stats") stats = true;
    else if (arg == "--json") json = true;
    else if (arg == "--func") func = true;
    else if (arg == "--regs") regs = true;
    else if (arg.rfind("--trace", 0) == 0) {
      trace = true;
      if (const auto eq = arg.find('='); eq != std::string::npos)
        trace_n = std::strtoul(arg.c_str() + eq + 1, nullptr, 0);
    } else if (!arg.empty() && arg[0] == '-') return usage();
    else if (input.empty()) input = arg;
    else return usage();
  }
  if (input.empty()) return usage();

  try {
    cfg.validate();
    const Program prog = load_input(input);

    if (func) {
      FuncSim f(cfg);
      f.load(prog);
      const bool ok = f.run(static_cast<std::uint64_t>(max_cycles));
      std::printf("%s after %llu instructions\n",
                  ok ? "finished" : "INSTRUCTION LIMIT",
                  static_cast<unsigned long long>(f.instructions()));
      if (regs)
        for (RegNum r = 1; r < cfg.num_scalar_regs; ++r)
          std::printf("  r%-2u = %u\n", r, f.state().sreg(0, r));
      return ok ? 0 : 3;
    }

    if (use_fabric) {
      fab.validate();
      fabric::Fabric f(cfg, fab);
      f.load(prog);
      const bool ok = f.run(max_cycles);
      const Stats fleet = f.fleet_stats();
      if (json) {
        std::printf("{\"chips\":%u,\"fleet\":%s,\"fabric\":%s}\n", fab.chips,
                    to_json(fleet).c_str(),
                    fabric::to_json(f.stats()).c_str());
        return ok ? 0 : 3;
      }
      std::printf("%s after %llu fleet cycles (%s x %s)\n",
                  ok ? "finished" : "CYCLE LIMIT",
                  static_cast<unsigned long long>(fleet.cycles),
                  fab.name().c_str(), cfg.name().c_str());
      if (stats) {
        print_stats(fleet);
        std::printf("fabric        : %s\n",
                    fabric::to_json(f.stats()).c_str());
      }
      if (regs)
        for (std::uint32_t k = 0; k < fab.chips; ++k) {
          std::printf("chip %u:\n", k);
          for (RegNum r = 1; r < cfg.num_scalar_regs; ++r)
            std::printf("  r%-2u = %u\n", r, f.chip(k).state().sreg(0, r));
        }
      return ok ? 0 : 3;
    }

    Machine m(cfg);
    if (trace) m.enable_trace(trace_n);
    m.load(prog);
    const bool ok = m.run(max_cycles);
    if (json) {
      std::printf("%s\n", to_json(m.stats()).c_str());
      return ok ? 0 : 3;
    }
    std::printf("%s after %llu cycles (%s)\n",
                ok ? "finished" : "CYCLE LIMIT",
                static_cast<unsigned long long>(m.stats().cycles),
                cfg.name().c_str());
    if (trace)
      std::fputs(render_pipeline_diagram(m.trace(), cfg, cfg.effective_threads() > 1)
                     .c_str(), stdout);
    if (stats) print_stats(m.stats());
    if (regs)
      for (RegNum r = 1; r < cfg.num_scalar_regs; ++r)
        std::printf("  r%-2u = %u\n", r, m.state().sreg(0, r));
    return ok ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masc-run: %s\n", e.what());
    return 1;
  }
}
