#include "sim/arch_state.hpp"

#include "common/binio.hpp"
#include "common/bits.hpp"

namespace masc {

ArchState::ArchState(const MachineConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  const std::size_t threads = cfg_.effective_threads();
  instr_mem_.assign(cfg_.instr_mem_words, 0);
  scalar_mem_.assign(cfg_.scalar_mem_bytes, 0);  // word-addressed
  local_mem_.assign(static_cast<std::size_t>(cfg_.num_pes) * cfg_.local_mem_bytes, 0);
  sregs_.assign(threads * cfg_.num_scalar_regs, 0);
  sflags_.assign(threads * cfg_.num_flag_regs, 0);
  pregs_.assign(threads * cfg_.num_parallel_regs * cfg_.num_pes, 0);
  pflags_.assign(threads * cfg_.num_flag_regs * cfg_.num_pes, 0);
  threads_.assign(threads, ThreadContext{});
  zero_row_.assign(cfg_.num_pes, 0);
  ones_row_.assign(cfg_.num_pes, 1);
}

void ArchState::load(const Program& program) {
  expect(program.text.size() <= instr_mem_.size(),
         "program text exceeds instruction memory");
  expect(program.data.size() <= scalar_mem_.size(),
         fault_text::kDataTooBig);
  std::copy(program.text.begin(), program.text.end(), instr_mem_.begin());
  std::copy(program.data.begin(), program.data.end(), scalar_mem_.begin());
  threads_[0].state = ThreadState::kActive;
  threads_[0].pc = program.entry;
}

Word ArchState::sreg(ThreadId t, RegNum r) const {
  if (r == 0) return 0;
  return sregs_.at(t * cfg_.num_scalar_regs + r);
}

void ArchState::set_sreg(ThreadId t, RegNum r, Word v) {
  if (r == 0) return;
  expect(r < cfg_.num_scalar_regs, "scalar register out of range");
  sregs_.at(t * cfg_.num_scalar_regs + r) = truncate(v, cfg_.word_width);
}

bool ArchState::sflag(ThreadId t, RegNum f) const {
  if (f == 0) return true;
  return sflags_.at(t * cfg_.num_flag_regs + f) != 0;
}

void ArchState::set_sflag(ThreadId t, RegNum f, bool v) {
  if (f == 0) return;
  expect(f < cfg_.num_flag_regs, "scalar flag out of range");
  sflags_.at(t * cfg_.num_flag_regs + f) = v ? 1 : 0;
}

Word ArchState::scalar_mem(Addr a) const {
  expect(a < scalar_mem_.size(), fault_text::kScalarRead);
  return scalar_mem_[a];
}

void ArchState::set_scalar_mem(Addr a, Word v) {
  expect(a < scalar_mem_.size(), fault_text::kScalarWrite);
  scalar_mem_[a] = truncate(v, cfg_.word_width);
}

Word ArchState::preg(ThreadId t, RegNum r, PEIndex pe) const {
  if (r == 0) return 0;
  return pregs_.at(preg_index(t, r, pe));
}

void ArchState::set_preg(ThreadId t, RegNum r, PEIndex pe, Word v) {
  if (r == 0) return;
  expect(r < cfg_.num_parallel_regs, "parallel register out of range");
  pregs_.at(preg_index(t, r, pe)) = truncate(v, cfg_.word_width);
}

bool ArchState::pflag(ThreadId t, RegNum f, PEIndex pe) const {
  if (f == 0) return true;
  return pflags_.at(pflag_index(t, f, pe)) != 0;
}

void ArchState::set_pflag(ThreadId t, RegNum f, PEIndex pe, bool v) {
  if (f == 0) return;
  expect(f < cfg_.num_flag_regs, "parallel flag out of range");
  pflags_.at(pflag_index(t, f, pe)) = v ? 1 : 0;
}

Word ArchState::local_mem(PEIndex pe, Addr a) const {
  expect(a < cfg_.local_mem_bytes, fault_text::kLocalRead);
  return local_mem_[static_cast<std::size_t>(pe) * cfg_.local_mem_bytes + a];
}

void ArchState::set_local_mem(PEIndex pe, Addr a, Word v) {
  expect(a < cfg_.local_mem_bytes, fault_text::kLocalWrite);
  local_mem_[static_cast<std::size_t>(pe) * cfg_.local_mem_bytes + a] =
      truncate(v, cfg_.word_width);
}

std::vector<Word> ArchState::read_preg_vector(ThreadId t, RegNum r) const {
  std::vector<Word> out(cfg_.num_pes);
  for (PEIndex pe = 0; pe < cfg_.num_pes; ++pe) out[pe] = preg(t, r, pe);
  return out;
}

void ArchState::write_preg_vector(ThreadId t, RegNum r, const std::vector<Word>& v) {
  expect(v.size() == cfg_.num_pes, "vector size != PE count");
  for (PEIndex pe = 0; pe < cfg_.num_pes; ++pe) set_preg(t, r, pe, v[pe]);
}

std::vector<Word> ArchState::read_local_column(Addr a) const {
  std::vector<Word> out(cfg_.num_pes);
  for (PEIndex pe = 0; pe < cfg_.num_pes; ++pe) out[pe] = local_mem(pe, a);
  return out;
}

void ArchState::write_local_column(Addr a, const std::vector<Word>& v) {
  expect(v.size() == cfg_.num_pes, "vector size != PE count");
  for (PEIndex pe = 0; pe < cfg_.num_pes; ++pe) set_local_mem(pe, a, v[pe]);
}

InstrWord ArchState::fetch(Addr pc) const {
  expect(pc < instr_mem_.size(), "PC out of instruction memory");
  return instr_mem_[pc];
}

ThreadId allocate_thread(std::vector<ThreadContext>& table, Addr entry_pc) {
  for (ThreadId t = 0; t < table.size(); ++t) {
    if (table[t].state == ThreadState::kFree) {
      table[t].state = ThreadState::kActive;
      table[t].pc = entry_pc;
      return t;
    }
  }
  return ArchState::kNoThread;
}

void ArchState::save(BinWriter& w) const {
  w.vec(scalar_mem_);
  w.vec(local_mem_);
  w.vec(sregs_);
  w.vec(sflags_);
  w.vec(pregs_);
  w.vec(pflags_);
  // Thread contexts field-by-field: struct padding must not leak into
  // the blob (checkpoint bytes are compared across runs in tests).
  w.u64(threads_.size());
  for (const ThreadContext& tc : threads_) {
    w.u8(static_cast<std::uint8_t>(tc.state));
    w.u32(tc.pc);
    w.u32(tc.join_target);
  }
}

void ArchState::restore(BinReader& r) {
  const std::size_t sizes[6] = {scalar_mem_.size(), local_mem_.size(),
                                sregs_.size(),      sflags_.size(),
                                pregs_.size(),      pflags_.size()};
  r.vec(scalar_mem_);
  r.vec(local_mem_);
  r.vec(sregs_);
  r.vec(sflags_);
  r.vec(pregs_);
  r.vec(pflags_);
  const std::size_t now[6] = {scalar_mem_.size(), local_mem_.size(),
                              sregs_.size(),      sflags_.size(),
                              pregs_.size(),      pflags_.size()};
  for (int i = 0; i < 6; ++i)
    if (sizes[i] != now[i])
      throw BinError("checkpoint does not match this machine configuration");
  if (r.u64() != threads_.size())
    throw BinError("checkpoint does not match this machine configuration");
  for (ThreadContext& tc : threads_) {
    tc.state = static_cast<ThreadState>(r.u8());
    tc.pc = r.u32();
    tc.join_target = r.u32();
  }
}

std::uint32_t active_thread_count(const std::vector<ThreadContext>& table) {
  std::uint32_t n = 0;
  for (const auto& t : table)
    if (t.state != ThreadState::kFree) ++n;
  return n;
}

}  // namespace masc
