#include "common/config.hpp"

#include <sstream>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace masc {

unsigned MachineConfig::broadcast_latency() const {
  if (!pipelined_network) return 0;
  return ceil_log_k(num_pes, broadcast_arity);
}

unsigned MachineConfig::reduction_latency() const {
  if (!pipelined_network) return 0;
  return ceil_log2(num_pes);
}

void MachineConfig::validate() const {
  auto fail = [](const std::string& msg) { throw ConfigError(msg); };

  if (num_pes < 1) fail("num_pes must be >= 1");
  if (word_width != 8 && word_width != 16 && word_width != 32)
    fail("word_width must be 8, 16, or 32");
  if (num_threads < 1) fail("num_threads must be >= 1");
  if (num_scalar_regs < 2 || num_scalar_regs > 32)
    fail("num_scalar_regs must be in [2, 32]");
  if (num_parallel_regs < 2 || num_parallel_regs > 32)
    fail("num_parallel_regs must be in [2, 32]");
  if (num_flag_regs < 2 || num_flag_regs > 8)
    fail("num_flag_regs must be in [2, 8]");
  if (local_mem_bytes < word_width / 8)
    fail("local_mem_bytes too small for one word");
  if (broadcast_arity < 2) fail("broadcast_arity must be >= 2");
  if (issue_width < 1 || issue_width > 8) fail("issue_width must be in [1, 8]");
  if (sched_policy != ThreadSchedPolicy::kSmt && issue_width != 1)
    fail("issue_width > 1 requires the SMT scheduling policy");
  if (instr_mem_words < 1) fail("instr_mem_words must be >= 1");
  if (scalar_mem_bytes < word_width / 8)
    fail("scalar_mem_bytes too small for one word");
}

std::string MachineConfig::name() const {
  std::ostringstream os;
  os << "p" << num_pes << ".t" << effective_threads() << ".w" << word_width
     << ".k" << broadcast_arity;
  if (!pipelined_network) os << ".nonpipe";
  return os.str();
}

}  // namespace masc
