#include "sim/machine.hpp"

namespace masc {

template class Pipeline<Machine>;

Machine::Machine(const MachineConfig& cfg) : Pipeline(cfg), state_(cfg) {}

void Machine::load(const Program& program) {
  state_.load(program);
  load_text(program.text);
}

}  // namespace masc
