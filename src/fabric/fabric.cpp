#include "fabric/fabric.hpp"

#include <algorithm>
#include <sstream>

#include "common/binio.hpp"
#include "common/error.hpp"

namespace masc::fabric {

namespace {

constexpr const char kMagic[] = "MASC-FABRIC";
constexpr std::uint32_t kVersion = 1;

Word combine(CollectiveOp op, Word acc, Word v) {
  switch (op) {
    case CollectiveOp::kOr: return acc | v;
    case CollectiveOp::kSum: return acc + v;  // truncated at delivery
    case CollectiveOp::kMaxU: return std::max(acc, v);
    case CollectiveOp::kMinU: return std::min(acc, v);
    case CollectiveOp::kNone:
    case CollectiveOp::kBarrier: break;
  }
  return acc;
}

std::size_t latency_bucket(Cycle lat) {
  std::size_t b = 0;
  for (Cycle v = lat + 1; v > 1 && b + 1 < kLatencyBuckets; v >>= 1) ++b;
  return b;
}

}  // namespace

const char* to_string(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kNone: return "none";
    case CollectiveOp::kBarrier: return "barrier";
    case CollectiveOp::kOr: return "or";
    case CollectiveOp::kSum: return "sum";
    case CollectiveOp::kMaxU: return "maxu";
    case CollectiveOp::kMinU: return "minu";
  }
  return "?op";
}

const char* to_string(Topology t) {
  switch (t) {
    case Topology::kChain: return "chain";
    case Topology::kTree: return "tree";
  }
  return "?topology";
}

Topology parse_topology(const std::string& name) {
  if (name == "chain") return Topology::kChain;
  if (name == "tree") return Topology::kTree;
  throw ConfigError("unknown fabric topology '" + name +
                    "' (expected chain|tree)");
}

void FabricConfig::validate() const {
  if (chips < 1) throw ConfigError("chips must be >= 1");
  if (chips > 256) throw ConfigError("chips must be <= 256");
  if (topology != Topology::kChain && topology != Topology::kTree)
    throw ConfigError("unknown fabric topology");
  if (link_latency < 1) throw ConfigError("link_latency must be >= 1");
  if (link_latency > 65536) throw ConfigError("link_latency must be <= 65536");
  if (link_width_words < 1)
    throw ConfigError("link_width_words must be >= 1");
  if (link_width_words > kMaxCollectiveWords)
    throw ConfigError("link_width_words must be <= 4096");
  if (chunk_cycles < 1) throw ConfigError("chunk_cycles must be >= 1");
  if (chunk_cycles > (1u << 20))
    throw ConfigError("chunk_cycles must be <= 1048576");
  // The mailbox address must be materializable by `li` at every
  // supported word width (docs/MULTICHIP.md "Guest addressability").
  if (mailbox_base > 32767 - kMboxWords)
    throw ConfigError("mailbox_base must leave the 6-word mailbox below 32768");
}

std::string FabricConfig::name() const {
  std::ostringstream os;
  os << "c" << chips << "." << to_string(topology) << ".l" << link_latency
     << ".w" << link_width_words << ".q" << chunk_cycles << ".mb"
     << mailbox_base;
  return os.str();
}

std::string to_json(const FabricStats& s) {
  std::ostringstream os;
  os << "{\"rounds\":" << s.rounds;
  os << ",\"collectives\":" << s.collectives;
  os << ",\"by_op\":{";
  const char* names[] = {"none", "barrier", "or", "sum", "maxu", "minu"};
  bool first = true;
  for (std::size_t i = 1; i < s.by_op.size(); ++i) {
    if (!first) os << ",";
    first = false;
    os << "\"" << names[i] << "\":" << s.by_op[i];
  }
  os << "}";
  os << ",\"payload_words\":" << s.payload_words;
  os << ",\"flits\":" << s.flits;
  os << ",\"hops\":" << s.hops;
  os << ",\"link_busy_cycles\":" << s.link_busy_cycles;
  os << ",\"max_latency\":" << s.max_latency;
  os << ",\"latency_hist\":[";
  for (std::size_t i = 0; i < s.latency_hist.size(); ++i) {
    if (i) os << ",";
    os << s.latency_hist[i];
  }
  os << "]}";
  return os.str();
}

void save(const FabricStats& s, BinWriter& w) {
  w.u64(s.rounds);
  w.u64(s.collectives);
  for (const std::uint64_t v : s.by_op) w.u64(v);
  w.u64(s.payload_words);
  w.u64(s.flits);
  w.u64(s.hops);
  w.u64(s.link_busy_cycles);
  w.u64(s.max_latency);
  for (const std::uint64_t v : s.latency_hist) w.u64(v);
}

void restore(FabricStats& s, BinReader& r) {
  s.rounds = r.u64();
  s.collectives = r.u64();
  for (std::uint64_t& v : s.by_op) v = r.u64();
  s.payload_words = r.u64();
  s.flits = r.u64();
  s.hops = r.u64();
  s.link_busy_cycles = r.u64();
  s.max_latency = r.u64();
  for (std::uint64_t& v : s.latency_hist) v = r.u64();
}

Fabric::Fabric(const MachineConfig& chip_cfg, const FabricConfig& cfg)
    : chip_cfg_(chip_cfg), cfg_(cfg) {
  chip_cfg_.validate();
  cfg_.validate();
  if ((cfg_.mailbox_base + kMboxWords) > chip_cfg_.scalar_mem_bytes)
    throw ConfigError("mailbox does not fit in chip scalar memory");
  chips_.reserve(cfg_.chips);
  for (std::uint32_t k = 0; k < cfg_.chips; ++k) chips_.emplace_back(chip_cfg_);
}

void Fabric::load(const Program& program) {
  for (std::uint32_t k = 0; k < cfg_.chips; ++k) {
    Machine& m = chips_[k];
    m.load(program);
    const Addr base = cfg_.mailbox_base;
    m.state().set_scalar_mem(base + kMboxChipId, k);
    m.state().set_scalar_mem(base + kMboxNumChips, cfg_.chips);
  }
  loaded_ = true;
}

Cycle Fabric::now() const {
  Cycle t = 0;
  for (const Machine& m : chips_) t = std::max(t, m.now());
  return t;
}

bool Fabric::finished() const {
  for (const Machine& m : chips_)
    if (!m.finished()) return false;
  return true;
}

bool Fabric::run(Cycle max_cycles) {
  expect(loaded_, "Fabric::run before load");
  for (;;) {
    if (finished()) return true;
    const Cycle boundary =
        (round_ + 1) * static_cast<Cycle>(cfg_.chunk_cycles);
    if (boundary > max_cycles) {
      // Partial final chunk: advance to the absolute limit without
      // crossing a boundary (no collective can resolve here, which is
      // exactly what a straight run to `boundary` would also observe).
      if (now() >= max_cycles) return false;
      for (Machine& m : chips_)
        if (!m.finished()) m.run(max_cycles);
      return finished();
    }
    // Chips advance strictly in index order: this fixed order is what
    // makes the whole fleet deterministic.
    for (Machine& m : chips_)
      if (!m.finished()) m.run(boundary);
    ++round_;
    ++fstats_.rounds;
    resolve_at_boundary();
  }
}

void Fabric::resolve_at_boundary() {
  if (pending_) {
    if (round_ >= pending_->deliver_round) deliver_pending();
    // While a collective is in flight every chip is spinning on ACK;
    // no chip can legally post a new request, so skip the scan.
    return;
  }
  collect_requests();
}

void Fabric::collect_requests() {
  const Addr base = cfg_.mailbox_base;
  std::uint32_t posted = 0;
  bool any_finished_posted = false;
  for (const Machine& m : chips_) {
    const Word req = m.state().scalar_mem(base + kMboxReq);
    if (req != 0) {
      ++posted;
      if (m.finished()) any_finished_posted = true;
    }
  }
  if (posted == 0) return;
  if (any_finished_posted)
    throw FabricError("chip halted with a collective request still posted");
  std::uint32_t live = 0;
  for (const Machine& m : chips_)
    if (!m.finished()) ++live;
  if (posted < cfg_.chips) {
    // Some chips have posted, the rest are still computing — unless a
    // chip already exited, in which case the fleet can never complete
    // the collective: surface the deadlock instead of spinning forever.
    if (live < cfg_.chips)
      throw FabricError(
          "chip exited while other chips wait in a collective");
    return;
  }

  // Every chip has posted: validate the descriptors, combine payloads.
  const Word op_w = chips_[0].state().scalar_mem(base + kMboxReq);
  const Word count = chips_[0].state().scalar_mem(base + kMboxCount);
  if (op_w < 1 || op_w > 5)
    throw FabricError("unknown collective op " + std::to_string(op_w));
  const auto op = static_cast<CollectiveOp>(op_w);
  if (op == CollectiveOp::kBarrier && count != 0)
    throw FabricError("barrier must post COUNT = 0");
  if (op != CollectiveOp::kBarrier && count == 0)
    throw FabricError("collective payload COUNT must be >= 1");
  if (count > kMaxCollectiveWords)
    throw FabricError("collective payload exceeds " +
                      std::to_string(kMaxCollectiveWords) + " words");

  Pending p;
  p.op = op;
  p.count = count;
  p.addrs.reserve(cfg_.chips);
  for (std::uint32_t k = 0; k < cfg_.chips; ++k) {
    const ArchState& st = chips_[k].state();
    if (st.scalar_mem(base + kMboxReq) != op_w ||
        st.scalar_mem(base + kMboxCount) != count)
      throw FabricError("chip " + std::to_string(k) +
                        " posted a mismatched collective request");
    const Word addr = st.scalar_mem(base + kMboxAddr);
    if (count > 0) {
      if (static_cast<std::uint64_t>(addr) + count >
          chip_cfg_.scalar_mem_bytes)
        throw FabricError("collective payload out of scalar memory range");
      if (addr < base + kMboxWords &&
          static_cast<std::uint64_t>(addr) + count > base)
        throw FabricError("collective payload overlaps the mailbox");
    }
    p.addrs.push_back(addr);
    if (count > 0) {
      if (k == 0) {
        p.data.reserve(count);
        for (Word j = 0; j < count; ++j)
          p.data.push_back(st.scalar_mem(addr + j));
      } else {
        for (Word j = 0; j < count; ++j)
          p.data[j] = combine(op, p.data[j], st.scalar_mem(addr + j));
      }
    }
  }
  for (Machine& m : chips_) m.state().set_scalar_mem(base + kMboxReq, 0);

  const Cycle lat = cfg_.collective_latency(count);
  p.deliver_round = round_ + cfg_.delivery_rounds(count);
  pending_ = std::move(p);

  // Network accounting: one up-sweep and one down-sweep across the
  // active links. A chain has K-1 links end-to-end; a binary tree has
  // K-1 internal links as well, so the busy-cycle model is shared.
  const std::uint64_t f = cfg_.flits(count);
  const std::uint64_t links = cfg_.chips > 0 ? cfg_.chips - 1 : 0;
  ++fstats_.collectives;
  ++fstats_.by_op[static_cast<std::size_t>(op)];
  fstats_.payload_words += count;
  fstats_.flits += f;
  fstats_.hops += 2ull * cfg_.reduce_depth();
  fstats_.link_busy_cycles += 2ull * links * f;
  fstats_.max_latency = std::max(fstats_.max_latency, lat);
  ++fstats_.latency_hist[latency_bucket(lat)];
}

void Fabric::deliver_pending() {
  const Addr base = cfg_.mailbox_base;
  ++seq_;
  const Word ack = truncate(static_cast<Word>(seq_), chip_cfg_.word_width);
  for (std::uint32_t k = 0; k < cfg_.chips; ++k) {
    ArchState& st = chips_[k].state();
    for (Word j = 0; j < pending_->count; ++j)
      st.set_scalar_mem(pending_->addrs[k] + j, pending_->data[j]);
    st.set_scalar_mem(base + kMboxAck, ack);
  }
  pending_.reset();
}

Stats Fabric::fleet_stats() const {
  Stats out;
  const std::uint32_t nt = chip_cfg_.effective_threads();
  out.issued_by_thread.assign(nt, 0);
  out.thread_stalls.assign(nt, {});
  for (const Machine& m : chips_) {
    const Stats& s = m.stats();
    out.cycles = std::max(out.cycles, s.cycles);
    out.instructions += s.instructions;
    for (std::size_t i = 0; i < out.issued_by_class.size(); ++i)
      out.issued_by_class[i] += s.issued_by_class[i];
    out.idle_cycles += s.idle_cycles;
    for (std::size_t i = 0; i < out.idle_by_cause.size(); ++i)
      out.idle_by_cause[i] += s.idle_by_cause[i];
    for (std::size_t t = 0; t < s.issued_by_thread.size() && t < nt; ++t)
      out.issued_by_thread[t] += s.issued_by_thread[t];
    for (std::size_t t = 0; t < s.thread_stalls.size() && t < nt; ++t)
      for (std::size_t i = 0; i < s.thread_stalls[t].size(); ++i)
        out.thread_stalls[t][i] += s.thread_stalls[t][i];
    out.broadcast_ops += s.broadcast_ops;
    out.reduction_ops += s.reduction_ops;
    out.thread_switches += s.thread_switches;
  }
  return out;
}

std::string Fabric::save_state() const {
  std::string blob;
  BinWriter w(blob);
  w.str(kMagic);
  w.u32(kVersion);
  w.str(cfg_.name());
  w.str(chip_cfg_.name());
  w.u64(round_);
  w.u64(seq_);
  w.u8(pending_ ? 1 : 0);
  if (pending_) {
    w.u8(static_cast<std::uint8_t>(pending_->op));
    w.u32(pending_->count);
    w.u64(pending_->deliver_round);
    w.u64(pending_->data.size());
    for (const Word v : pending_->data) w.u32(v);
    w.u64(pending_->addrs.size());
    for (const Word v : pending_->addrs) w.u32(v);
  }
  save(fstats_, w);
  w.u32(cfg_.chips);
  for (const Machine& m : chips_) w.str(m.save_state());
  return blob;
}

void Fabric::restore_state(const std::string& blob) {
  expect(loaded_, "Fabric::restore_state before load");
  BinReader r(blob);
  if (r.str() != kMagic) throw BinError("not a fabric checkpoint");
  if (r.u32() != kVersion) throw BinError("unsupported fabric checkpoint version");
  if (r.str() != cfg_.name())
    throw BinError("checkpoint was taken on a different fabric config");
  if (r.str() != chip_cfg_.name())
    throw BinError("checkpoint was taken on a different chip config");
  round_ = r.u64();
  seq_ = r.u64();
  pending_.reset();
  if (r.u8() != 0) {
    Pending p;
    p.op = static_cast<CollectiveOp>(r.u8());
    p.count = r.u32();
    p.deliver_round = r.u64();
    const std::uint64_t nd = r.u64();
    p.data.reserve(nd);
    for (std::uint64_t i = 0; i < nd; ++i) p.data.push_back(r.u32());
    const std::uint64_t na = r.u64();
    if (na != cfg_.chips)
      throw BinError("fabric checkpoint pending-address count mismatch");
    p.addrs.reserve(na);
    for (std::uint64_t i = 0; i < na; ++i) p.addrs.push_back(r.u32());
    pending_ = std::move(p);
  }
  restore(fstats_, r);
  if (r.u32() != cfg_.chips)
    throw BinError("fabric checkpoint chip count mismatch");
  for (Machine& m : chips_) m.restore_state(r.str());
  if (!r.done()) throw BinError("trailing bytes after fabric checkpoint");
}

}  // namespace masc::fabric
