#include "serve/protocol.hpp"

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "ascal/codegen.hpp"
#include "assembler/assembler.hpp"
#include "common/error.hpp"

namespace masc::serve {

MachineConfig config_from_json(const json::Value& v) {
  if (!v.is_object()) throw JsonError("\"config\" must be an object");
  MachineConfig cfg;
  cfg.num_pes = static_cast<std::uint32_t>(v.get_uint("pes", cfg.num_pes));
  cfg.num_threads =
      static_cast<std::uint32_t>(v.get_uint("threads", cfg.num_threads));
  cfg.word_width = static_cast<unsigned>(v.get_uint("width", cfg.word_width));
  cfg.broadcast_arity =
      static_cast<std::uint32_t>(v.get_uint("arity", cfg.broadcast_arity));
  cfg.issue_width =
      static_cast<std::uint32_t>(v.get_uint("issue_width", cfg.issue_width));
  cfg.switch_penalty = static_cast<std::uint32_t>(
      v.get_uint("switch_penalty", cfg.switch_penalty));
  cfg.multithreading = v.get_bool("multithreading", cfg.multithreading);
  cfg.pipelined_network =
      v.get_bool("pipelined_network", cfg.pipelined_network);
  cfg.pipelined_execution =
      v.get_bool("pipelined_execution", cfg.pipelined_execution);
  const std::string sched = v.get_string("sched", "fine");
  if (sched == "fine") cfg.sched_policy = ThreadSchedPolicy::kFineGrain;
  else if (sched == "coarse") cfg.sched_policy = ThreadSchedPolicy::kCoarseGrain;
  else if (sched == "smt") cfg.sched_policy = ThreadSchedPolicy::kSmt;
  else throw JsonError("unknown sched policy \"" + sched + "\"");
  cfg.validate();
  return cfg;
}

namespace {

enum class SourceKind : std::uint8_t { kSource, kAscal };

/// Process-wide memo of assembled programs (docs/SERVER.md "Program
/// memo"). Keyed by the exact program text and its kind: the hash only
/// picks a bucket, a hit needs full string equality. Sources are
/// admitted on their second sighting, so traffic that never repeats a
/// source (every batch job carries a fresh table) pays one hash per
/// miss and never churns the memo. Only successful assemblies are
/// stored: a bad program throws afresh on every submit.
class ProgramMemo {
 public:
  /// The stored program for (kind, text), or null. A miss records this
  /// sighting; `*admit` says whether the text had been sighted before,
  /// i.e. whether to insert() it once it has assembled.
  std::shared_ptr<const Program> find(SourceKind kind, const std::string& text,
                                      std::size_t hash, bool* admit) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const Entry* entry = lookup_locked(kind, text, hash)) {
      ++hits_;
      return entry->program;
    }
    std::size_t& slot = seen_[hash % kProgramMemoSightings];
    *admit = slot == hash;
    slot = hash;
    return nullptr;
  }

  void insert(SourceKind kind, const std::string& text, std::size_t hash,
              std::shared_ptr<const Program> program) {
    const std::lock_guard<std::mutex> lock(mu_);
    // A concurrent submit of the same text may have got here first.
    if (lookup_locked(kind, text, hash)) return;
    if (fifo_.size() == kProgramMemoEntries) {
      // Oldest first. Deque ends are pointer-stable, so the index stays
      // valid for every surviving entry.
      const Entry& victim = fifo_.front();
      const auto [b, e] = index_.equal_range(victim.hash);
      for (auto it = b; it != e; ++it)
        if (it->second == &victim) {
          index_.erase(it);
          break;
        }
      fifo_.pop_front();
    }
    fifo_.push_back(Entry{kind, hash, text, std::move(program)});
    index_.emplace(hash, &fifo_.back());
  }

  ProgramMemoStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return {fifo_.size(), hits_};
  }

 private:
  struct Entry {
    SourceKind kind;
    std::size_t hash;
    std::string text;
    std::shared_ptr<const Program> program;
  };

  const Entry* lookup_locked(SourceKind kind, const std::string& text,
                             std::size_t hash) const {
    const auto [b, e] = index_.equal_range(hash);
    for (auto it = b; it != e; ++it)
      if (it->second->kind == kind && it->second->text == text)
        return it->second;
    return nullptr;
  }

  mutable std::mutex mu_;
  std::deque<Entry> fifo_;  ///< insertion order; front is evicted first
  std::unordered_multimap<std::size_t, const Entry*> index_;
  std::array<std::size_t, kProgramMemoSightings> seen_{};
  std::uint64_t hits_ = 0;
};

ProgramMemo& program_memo() {
  static ProgramMemo memo;
  return memo;
}

Program assemble_memoized(SourceKind kind, const std::string& text) {
  ProgramMemo& memo = program_memo();
  const std::size_t hash = std::hash<std::string_view>{}(text) ^
                           (kind == SourceKind::kAscal ? 0x9e3779b97f4a7c15u : 0u);
  bool admit = false;
  if (auto program = memo.find(kind, text, hash, &admit)) return *program;
  Program program = kind == SourceKind::kSource
                        ? assemble(text)
                        : assemble(ascal::compile(text).assembly);
  const std::size_t bytes = text.size() +
                            program.text.size() * sizeof(InstrWord) +
                            program.data.size() * sizeof(Word);
  if (admit && bytes <= kProgramMemoMaxEntryBytes)
    memo.insert(kind, text, hash, std::make_shared<const Program>(program));
  return program;
}

}  // namespace

ProgramMemoStats program_memo_stats() { return program_memo().stats(); }

Program program_from_json(const json::Value& v) {
  if (!v.is_object()) throw JsonError("\"program\" must be an object");
  if (const json::Value* src = v.find("source"))
    return assemble_memoized(SourceKind::kSource, src->as_string());
  if (const json::Value* src = v.find("ascal"))
    return assemble_memoized(SourceKind::kAscal, src->as_string());
  const json::Value* text = v.find("text");
  if (!text)
    throw JsonError("program needs \"source\", \"ascal\", or \"text\"");
  Program prog;
  prog.text.reserve(text->as_array().size());
  for (const auto& w : text->as_array())
    prog.text.push_back(static_cast<InstrWord>(w.as_uint()));
  if (const json::Value* data = v.find("data")) {
    prog.data.reserve(data->as_array().size());
    for (const auto& w : data->as_array())
      prog.data.push_back(static_cast<Word>(w.as_uint()));
  }
  prog.entry = static_cast<Addr>(v.get_uint("entry", 0));
  return prog;
}

SweepJob job_from_json(const json::Value& v, std::uint32_t batch_lanes) {
  if (!v.is_object()) throw JsonError("job must be an object");
  SweepJob job;
  if (const json::Value* cfg = v.find("config"))
    job.cfg = config_from_json(*cfg);
  else
    job.cfg.validate();
  const json::Value* prog = v.find("program");
  if (!prog) throw JsonError("job needs a \"program\"");
  job.program = program_from_json(*prog);
  job.label = v.get_string("label", job.cfg.name());
  job.seed = v.get_uint("seed", 0);
  job.max_cycles = v.get_uint("max_cycles", job.max_cycles);
  // Host-execution knob: 0 inherits the server's --batch-lanes default,
  // 1 forces serial; never part of cache keys.
  job.batch_lanes =
      static_cast<std::uint32_t>(v.get_uint("batch_lanes", batch_lanes));
  return job;
}

}  // namespace masc::serve
