// fleetload: the load generator of the fleet benchmark (perfbench/run.py).
//
// It speaks only the public wire protocol (4-byte big-endian framing,
// JSON v1 and binary v2, docs/NET.md), so it builds with no library of
// the repository and keeps working across internal refactors.
//
//   fleetload --mode warm --spec FILE --router PORT --backend PORT --seed N
//   fleetload --mode run  --spec FILE --router PORT --backend PORT --seed N
//             --traffic hit|batch --rate R --concurrency C
//             --open-seconds S --capacity-seconds S [--trace 0|1]
//
// The spec lists cases, each a program text with the serial masc-sweep
// reference of its result. The hot set holds one job per case. A request
// is what `masc-client submit --wait` does: one submit, then one
// `result wait:true release:true` per returned id, in order. A hit
// request submits one job of the hot set; a batch request submits the
// spec's batch_jobs fresh jobs of one random case, which share a program
// text (so the fleet may lane-batch them) over random tables (so no
// cache can answer them).
//
// --mode warm runs every hot job once through the router, plus the probe
// job directly on the first backend, and exits. --mode run measures:
//   1. open loop: Poisson arrivals at --rate for --open-seconds, after a
//      discarded warm-up; latency counts from each request's scheduled
//      time, so a stall also charges the requests it delays;
//   2. capacity: closed loop, --concurrency requests outstanding, for
//      --capacity-seconds; completed requests per second.
// With --trace 1 the open phase also carries probes (router ping,
// backend ping, the probe hit direct and routed, every 10 ms), is
// bracketed by router stats snapshots, and its latencies are printed.
//
// Every job carries a label of its own. Every result must echo its job's
// label and carry the stats of its case's serial reference; any other
// outcome counts as a failed request. Prints one JSON object on stdout.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace {

using ns = std::int64_t;

ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr ns kMs = 1'000'000;
constexpr ns kSec = 1'000'000'000;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "fleetload: %s\n", msg.c_str());
  std::exit(1);
}

struct SplitMix64 {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// --- the spec: job config, cases and their serial references -------------

/// The result's "stats" object with "ipc" removed: the router re-renders
/// the one floating-point field with more digits than masc-sweep, and it
/// is derived from cycles and instructions, which stay compared.
std::string canonical_stats(std::string_view body) {
  const std::size_t at = body.find("\"stats\":{");
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + 8;
  int depth = 0;
  std::size_t end = start;
  for (; end < body.size(); ++end) {
    if (body[end] == '{') ++depth;
    if (body[end] == '}' && --depth == 0) break;
  }
  if (end == body.size()) return {};
  std::string s(body.substr(start, end - start + 1));
  const std::size_t ipc = s.find("\"ipc\":");
  if (ipc != std::string::npos) {
    const std::size_t comma = s.find(',', ipc);
    if (comma != std::string::npos) s.erase(ipc, comma - ipc + 1);
  }
  return s;
}

/// One program over a table of `records` words. The program never
/// branches on the table, so every job of a case has the stats of the
/// case's serial run, whatever its table; the cases differ in their stats.
struct Case {
  unsigned records = 0;
  std::string text;  // program text, already JSON-escaped
  std::string ref;   // canonical stats of its serial run
};

struct Spec {
  std::string config;  // JSON object
  std::uint64_t max_cycles = 0;
  unsigned batch_jobs = 0;  // jobs per batch request
  std::vector<Case> cases;
};

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open spec " + path);
  Spec spec;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("config ", 0) == 0) {
      spec.config = line.substr(7);
    } else if (line.rfind("max_cycles ", 0) == 0) {
      spec.max_cycles = std::strtoull(line.c_str() + 11, nullptr, 10);
    } else if (line.rfind("batch_jobs ", 0) == 0) {
      spec.batch_jobs =
          static_cast<unsigned>(std::strtoul(line.c_str() + 11, nullptr, 10));
    } else if (line.rfind("case ", 0) == 0) {
      // case RECORDS, then the program text and its masc-sweep output line.
      Case c;
      c.records = static_cast<unsigned>(std::strtoul(line.c_str() + 5, nullptr, 10));
      std::string ref_line;
      if (!std::getline(in, c.text) || !std::getline(in, ref_line))
        die("truncated case in spec");
      c.ref = canonical_stats(ref_line);
      if (c.records == 0 || c.ref.empty()) die("bad case in spec");
      spec.cases.push_back(std::move(c));
    } else if (!line.empty()) {
      die("bad spec line: " + line);
    }
  }
  if (spec.config.empty() || spec.max_cycles == 0 || spec.batch_jobs == 0 ||
      spec.cases.empty())
    die("incomplete spec");
  return spec;
}

/// One job of a case: its program over a table of random 12-bit records,
/// under a label of its own that its result must echo.
std::string job_json(const Spec& spec, unsigned kase, const std::string& label,
                     SplitMix64& rng) {
  const Case& c = spec.cases[kase];
  std::string j = "{\"config\":" + spec.config + ",\"label\":\"" + label +
                  "\",\"program\":{\"source\":\".data\\nrecs: .word ";
  for (unsigned i = 0; i < c.records; ++i) {
    if (i) j += ", ";
    j += std::to_string(rng.below(4096));
  }
  j += "\\n.text\\n" + c.text + "\"},\"max_cycles\":" +
       std::to_string(spec.max_cycles) + "}";
  return j;
}

// --- wire ----------------------------------------------------------------

constexpr unsigned char kV2Magic = 0xB2;
constexpr std::uint8_t kOpSubmit = 1, kOpResult = 2;
constexpr std::uint8_t kKindOk = 1;
constexpr std::size_t kMaxFrame = 16u << 20;

void append_frame(std::string& out, std::string_view payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  const char len[4] = {static_cast<char>(n >> 24), static_cast<char>(n >> 16),
                       static_cast<char>(n >> 8), static_cast<char>(n)};
  out.append(len, 4);
  out.append(payload);
}

std::uint32_t be32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (std::uint32_t{u[0]} << 24) | (std::uint32_t{u[1]} << 16) |
         (std::uint32_t{u[2]} << 8) | std::uint32_t{u[3]};
}

std::string v2_frame(std::uint8_t op, std::uint32_t id, std::string_view body) {
  std::string p;
  p.reserve(8 + body.size());
  p.push_back(static_cast<char>(kV2Magic));
  p.push_back(2);
  p.push_back(static_cast<char>(op));
  p.push_back(0);  // request
  for (int i = 0; i < 4; ++i) p.push_back(static_cast<char>(id >> (8 * i)));
  p.append(body);
  return p;
}

int connect_to(unsigned port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    die("connect to port " + std::to_string(port) + ": " + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) die("write: " + std::string(std::strerror(errno)));
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void read_exact(int fd, char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) die("connection closed during a blocking exchange");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

/// One blocking v1 round-trip (hello, stats), on a blocking socket.
std::string v1_exchange(int fd, std::string_view request) {
  std::string out;
  append_frame(out, request);
  write_all(fd, out);
  char len[4];
  read_exact(fd, len, 4);
  const std::uint32_t n = be32(len);
  if (n > kMaxFrame) die("oversized frame");
  std::string payload(n, '\0');
  read_exact(fd, payload.data(), n);
  return payload;
}

// --- percentiles -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

// --- the load generator ---------------------------------------------------

enum Phase { kWarm, kOpenWarmup, kOpen, kCap, kProbeDirect, kProbeRouted,
             kPhaseCount };

struct PhaseStats {
  std::vector<double> latency_us;  // scheduled time -> last result
  std::vector<double> lag_us;      // scheduled time -> submit written
  std::vector<double> submit_us;   // one submit round-trip
  std::vector<double> result_us;   // one result round-trip
  std::uint64_t completed = 0;
  ns window_start = 0, window_end = 0;
};

struct Request {
  Phase phase = kOpen;
  unsigned conn = 0;
  unsigned kase = 0;
  std::vector<std::string> labels;  // per job, in submit order
  ns due = 0;
  ns op_sent = 0;
  std::vector<std::uint64_t> ids;
  std::size_t next = 0;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  bool epollout = false;
};

struct Options {
  std::string mode, spec, traffic;
  unsigned router = 0, backend = 0;
  std::uint64_t seed = 0;
  double rate = 0;
  unsigned concurrency = 0;
  double open_seconds = 0, capacity_seconds = 0;
  bool trace = false;
};

class LoadGen {
 public:
  LoadGen(Options opt, Spec spec) : opt_(std::move(opt)), spec_(std::move(spec)) {
    // Precise open-loop send times: the default 50 us timer slack would
    // be charged to every request's latency.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (ep_ < 0 || tfd_ < 0) die("epoll/timerfd setup failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kTimerTag;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);

    SplitMix64 hot_rng{opt_.seed * 0x100000001B3ULL + 1};
    for (unsigned i = 0; i < spec_.cases.size(); ++i) {
      const std::string label = "hot" + std::to_string(i);
      hot_.push_back({i, label, "{\"op\":\"submit\",\"jobs\":[" +
                                    job_json(spec_, i, label, hot_rng) + "]}"});
    }
    rng_ = SplitMix64{opt_.seed * 0x100000001B3ULL + 2};
  }

  int run() {
    for (unsigned i = 0; i < kRouterConns; ++i) open_v2(opt_.router);
    if (opt_.mode == "warm") return warm();
    return measure();
  }

 private:
  static constexpr std::uint32_t kTimerTag = 0xFFFFFFFF;
  static constexpr unsigned kRouterConns = 4;

  struct HotJob {
    unsigned kase;
    std::string label;
    std::string submit;
  };

  unsigned open_v2(unsigned port) {
    const int fd = connect_to(port);
    const std::string hello =
        v1_exchange(fd, "{\"op\":\"hello\",\"versions\":[1,2]}");
    if (hello.find("\"version\":2") == std::string::npos)
      die("port " + std::to_string(port) + " does not offer protocol v2");
    return adopt(fd);
  }

  unsigned adopt(int fd) {
    const int flags = ::fcntl(fd, F_GETFL);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    conns_.push_back(Conn{fd, {}, {}, false});
    const auto idx = static_cast<unsigned>(conns_.size() - 1);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = idx;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) die("epoll_ctl add");
    return idx;
  }

  // --- modes ---

  int warm() {
    const unsigned direct = open_v2(opt_.backend);
    std::size_t next = 0;
    auto send_next = [&] {
      if (next >= hot_.size()) return;
      start_hot(kWarm, static_cast<unsigned>(next % kRouterConns), hot_[next],
                now_ns());
      ++next;
    };
    on_complete_ = [&](const Request& r) {
      if (r.phase == kWarm) send_next();
    };
    for (unsigned i = 0; i < 8; ++i) send_next();
    start_hot(kProbeDirect, direct, hot_[0], now_ns());
    loop_until([&] { return inflight_.empty() && next >= hot_.size(); },
               now_ns() + 120 * kSec);
    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"mismatched\":%llu}\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(mismatched_));
    return 0;
  }

  int measure() {
    int stats_fd = -1, stats_conn = -1;
    unsigned direct = 0;
    int ping_router = -1, ping_backend = -1;
    if (opt_.trace) {
      stats_fd = connect_to(opt_.router);
      stats_conn = static_cast<int>(adopt(stats_fd));
      direct = open_v2(opt_.backend);
      ping_router = static_cast<int>(adopt(connect_to(opt_.router)));
      ping_backend = static_cast<int>(adopt(connect_to(opt_.backend)));
    }

    // Open loop: warm-up then the measured window, one Poisson schedule.
    const ns warmup = kSec / 2;
    const ns open_len = static_cast<ns>(opt_.open_seconds * kSec);
    std::vector<ns> due;
    {
      double t = 0;
      const double span = static_cast<double>(warmup + open_len) / kSec;
      for (;;) {
        t += -std::log(1.0 - rng_.uniform()) / opt_.rate;
        if (t >= span) break;
        due.push_back(static_cast<ns>(t * kSec));
      }
    }
    std::string stats_before, stats_after;
    std::size_t next_due = 0;
    ns t0 = now_ns() + 20 * kMs;
    ns open_start = t0 + warmup, open_end = open_start + open_len;
    auto rr = 0u;
    ns next_probe = 0;
    bool ping_router_busy = false, ping_backend_busy = false;
    ns ping_router_sent = 0, ping_backend_sent = 0;
    std::vector<double> ping_router_us, ping_backend_us;
    bool stats_sent = false;
    v1_handler_ = [&](unsigned conn, ns t, std::string_view payload) {
      if (static_cast<int>(conn) == stats_conn) {
        stats_before = payload;
      } else if (static_cast<int>(conn) == ping_router) {
        ping_router_us.push_back(static_cast<double>(t - ping_router_sent) / 1e3);
        ping_router_busy = false;
      } else if (static_cast<int>(conn) == ping_backend) {
        ping_backend_us.push_back(static_cast<double>(t - ping_backend_sent) / 1e3);
        ping_backend_busy = false;
      }
    };
    bool probe_direct_busy = false, probe_routed_busy = false;
    on_complete_ = [&](const Request& r) {
      if (r.phase == kProbeDirect) probe_direct_busy = false;
      if (r.phase == kProbeRouted) probe_routed_busy = false;
    };
    timer_ = [&](ns now) -> ns {
      while (next_due < due.size() && t0 + due[next_due] <= now) {
        const ns d = t0 + due[next_due++];
        start_request(d < open_start ? kOpenWarmup : kOpen, rr++ % kRouterConns,
                      d);
      }
      if (opt_.trace && now >= open_start && now < open_end) {
        if (now >= next_probe) {
          next_probe = now + 10 * kMs;
          if (!ping_router_busy) {
            send_v1(static_cast<unsigned>(ping_router), "{\"op\":\"ping\"}");
            ping_router_busy = true;
            ping_router_sent = now;
          }
          if (!ping_backend_busy) {
            send_v1(static_cast<unsigned>(ping_backend), "{\"op\":\"ping\"}");
            ping_backend_busy = true;
            ping_backend_sent = now;
          }
          if (!probe_direct_busy) {
            start_hot(kProbeDirect, direct, hot_[0], now);
            probe_direct_busy = true;
          }
          if (!probe_routed_busy) {
            start_hot(kProbeRouted, 0, hot_[0], now);
            probe_routed_busy = true;
          }
        }
      }
      // The stats snapshot opening the window is asked for as it opens
      // and read whenever the router answers, so it stalls no arrival.
      if (opt_.trace && !stats_sent && now >= open_start) {
        send_v1(static_cast<unsigned>(stats_conn), "{\"op\":\"stats\"}");
        stats_sent = true;
      }
      ns next = next_due < due.size() ? t0 + due[next_due] : 0;
      if (opt_.trace && now < open_end) {
        const ns p = std::max(next_probe, open_start);
        if (next == 0 || p < next) next = p;
      }
      return next;
    };
    loop_until(
        [&] {
          return next_due >= due.size() && inflight_.empty() &&
                 !ping_router_busy && !ping_backend_busy &&
                 stats_sent == !stats_before.empty();
        },
        open_end + 60 * kSec);
    if (opt_.trace) {
      // Traffic has drained: a blocking exchange delays nothing now.
      const int flags = ::fcntl(stats_fd, F_GETFL);
      ::fcntl(stats_fd, F_SETFL, flags & ~O_NONBLOCK);
      stats_after = v1_exchange(stats_fd, "{\"op\":\"stats\"}");
    }
    timer_ = nullptr;

    // Capacity: closed loop, `concurrency` requests always outstanding;
    // the first quarter second is warm-up.
    PhaseStats& cp = stats_[kCap];
    const ns c0 = now_ns();
    cp.window_start = c0 + kSec / 4;
    cp.window_end = cp.window_start + static_cast<ns>(opt_.capacity_seconds * kSec);
    unsigned cap_rr = 0;
    on_complete_ = [&](const Request& r) {
      const ns t = now_ns();
      if (r.phase == kCap && t < cp.window_end)
        start_request(kCap, cap_rr++ % kRouterConns, t);
    };
    for (unsigned i = 0; i < opt_.concurrency; ++i)
      start_request(kCap, cap_rr++ % kRouterConns, c0);
    loop_until([&] { return inflight_.empty(); }, cp.window_end + 60 * kSec);

    const PhaseStats& op = stats_[kOpen];
    std::string o = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"mismatched\":" + std::to_string(mismatched_);
    o += ",\"open\":{\"requests\":" + std::to_string(op.completed) +
         ",\"p50_ms\":" + num(quantile(op.latency_us, 0.5) / 1e3) +
         ",\"p90_ms\":" + num(quantile(op.latency_us, 0.9) / 1e3) +
         ",\"lag_p99_us\":" + num(quantile(op.lag_us, 0.99)) +
         ",\"submit_p50_us\":" + num(quantile(op.submit_us, 0.5)) +
         ",\"result_p50_us\":" + num(quantile(op.result_us, 0.5)) + "}";
    o += ",\"capacity\":{\"requests\":" + std::to_string(cp.completed) +
         ",\"rps\":" +
         num(static_cast<double>(cp.completed) * kSec /
             static_cast<double>(cp.window_end - cp.window_start)) +
         "}";
    if (opt_.trace) {
      o += ",\"latencies_ms\":[";
      for (std::size_t i = 0; i < op.latency_us.size(); ++i)
        o += (i ? "," : "") + num(op.latency_us[i] / 1e3);
      o += "]";
      o += ",\"probes\":{\"samples\":" + std::to_string(ping_router_us.size()) +
           ",\"router_ping_p50_us\":" + num(quantile(ping_router_us, 0.5)) +
           ",\"router_ping_p99_us\":" + num(quantile(ping_router_us, 0.99)) +
           ",\"backend_ping_p50_us\":" + num(quantile(ping_backend_us, 0.5)) +
           ",\"direct_hit_p50_us\":" +
           num(quantile(stats_[kProbeDirect].latency_us, 0.5)) +
           ",\"routed_hit_p50_us\":" +
           num(quantile(stats_[kProbeRouted].latency_us, 0.5)) + "}";
      o += ",\"stats_before\":" + stats_before + ",\"stats_after\":" + stats_after;
    }
    o += "}";
    std::printf("%s\n", o.c_str());
    return 0;
  }

  // --- requests ---

  void start_request(Phase phase, unsigned conn, ns due) {
    if (opt_.traffic == "hit") {
      start_hot(phase, conn, hot_[rng_.below(hot_.size())], due);
      return;
    }
    const auto kase = static_cast<unsigned>(rng_.below(spec_.cases.size()));
    std::vector<std::string> labels;
    std::string body = "{\"op\":\"submit\",\"jobs\":[";
    for (unsigned i = 0; i < spec_.batch_jobs; ++i) {
      labels.push_back("job" + std::to_string(next_label_++));
      if (i) body += ",";
      body += job_json(spec_, kase, labels.back(), rng_);
    }
    body += "]}";
    start(phase, conn, kase, std::move(labels), body, due);
  }

  void start_hot(Phase phase, unsigned conn, const HotJob& h, ns due) {
    start(phase, conn, h.kase, {h.label}, h.submit, due);
  }

  void start(Phase phase, unsigned conn, unsigned kase,
             std::vector<std::string> labels, std::string_view submit, ns due) {
    ++attempted_;
    Request r;
    r.phase = phase;
    r.conn = conn;
    r.kase = kase;
    r.labels = std::move(labels);
    r.due = due;
    r.op_sent = now_ns();
    stats_[phase].lag_us.push_back(static_cast<double>(r.op_sent - due) / 1e3);
    const std::uint32_t id = send_v2(conn, kOpSubmit, submit);
    inflight_.emplace(id, std::move(r));
  }

  std::uint32_t send_v2(unsigned conn, std::uint8_t op, std::string_view body) {
    const std::uint32_t id = next_wire_id_++;
    append_frame(conns_[conn].out, v2_frame(op, id, body));
    return id;
  }

  void send_v1(unsigned conn, std::string_view body) {
    append_frame(conns_[conn].out, body);
  }

  void fail(Request& r, std::string_view why) {
    ++failed_;
    if (failed_ <= 5)
      std::fprintf(stderr, "fleetload: request failed: %.*s\n",
                   static_cast<int>(std::min<std::size_t>(why.size(), 300)),
                   why.data());
    finish(r, false);
  }

  void finish(Request& r, bool ok) {
    const ns t = now_ns();
    PhaseStats& ps = stats_[r.phase];
    // The capacity window counts every completion that lands inside it,
    // whenever its request started.
    if (ok && (r.phase != kCap ||
               (t >= ps.window_start && t <= ps.window_end))) {
      ps.latency_us.push_back(static_cast<double>(t - r.due) / 1e3);
      ++ps.completed;
    }
    if (on_complete_) on_complete_(r);
  }

  void on_v2(std::string_view payload, ns t) {
    if (payload.size() < 8) die("short v2 header");
    const auto op = static_cast<std::uint8_t>(payload[2]);
    const auto kind = static_cast<std::uint8_t>(payload[3]);
    std::uint32_t id = 0;
    for (int i = 0; i < 4; ++i)
      id |= std::uint32_t{static_cast<unsigned char>(payload[4 + i])} << (8 * i);
    const std::string_view body = payload.substr(8);
    auto node = inflight_.extract(id);
    if (node.empty()) die("response for unknown request id");
    Request& r = node.mapped();
    PhaseStats& ps = stats_[r.phase];
    const double rtt_us = static_cast<double>(t - r.op_sent) / 1e3;
    if (kind != kKindOk) return fail(r, body);
    if (op == kOpSubmit) {
      ps.submit_us.push_back(rtt_us);
      const std::size_t at = body.find("\"ids\":[");
      if (at == std::string_view::npos) return fail(r, body);
      const char* p = body.data() + at + 7;
      const char* end = body.data() + body.size();
      while (p < end && *p != ']') {
        char* stop = nullptr;
        r.ids.push_back(std::strtoull(p, &stop, 10));
        if (stop == p) return fail(r, body);
        p = stop;
        if (p < end && *p == ',') ++p;
      }
      if (r.ids.size() != r.labels.size()) return fail(r, body);
    } else if (op == kOpResult) {
      ps.result_us.push_back(rtt_us);
      if (body.find("\"status\":\"finished\"") == std::string_view::npos)
        return fail(r, body);
      const std::string label = "\"label\":\"" + r.labels[r.next] + "\"";
      if (body.find(label) == std::string_view::npos ||
          canonical_stats(body) != spec_.cases[r.kase].ref) {
        ++mismatched_;
        return fail(r, body);
      }
      ++r.next;
    } else {
      die("unexpected v2 op in a response");
    }
    if (r.next == r.ids.size()) return finish(r, true);
    r.op_sent = t;
    const std::string req = "{\"op\":\"result\",\"id\":" +
                            std::to_string(r.ids[r.next]) +
                            ",\"wait\":true,\"timeout_ms\":60000,"
                            "\"release\":true}";
    const std::uint32_t nid = send_v2(r.conn, kOpResult, req);
    inflight_.emplace(nid, std::move(r));
  }

  // --- event loop ---

  template <class Done>
  void loop_until(Done done, ns hard_deadline) {
    epoll_event evs[64];
    for (;;) {
      const ns now = now_ns();
      ns next_timer = timer_ ? timer_(now) : 0;
      flush_all();
      if (done()) return;
      if (now > hard_deadline) {
        // Whatever never answered is a failed request, not a hang.
        failed_ += inflight_.size();
        inflight_.clear();
        std::fprintf(stderr, "fleetload: requests timed out\n");
        return;
      }
      itimerspec its{};
      if (next_timer > 0) {
        its.it_value.tv_sec = next_timer / kSec;
        its.it_value.tv_nsec = next_timer % kSec;
      }
      ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
      const int n = ::epoll_wait(ep_, evs, 64, 50);
      if (n < 0 && errno != EINTR) die("epoll_wait");
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.u32 == kTimerTag) {
          std::uint64_t ticks;
          [[maybe_unused]] const ssize_t r = ::read(tfd_, &ticks, sizeof ticks);
          continue;
        }
        const unsigned ci = evs[i].data.u32;
        if (evs[i].events & EPOLLOUT) flush(ci);
        if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) read_conn(ci);
      }
    }
  }

  void read_conn(unsigned ci) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(conns_[ci].fd, buf, sizeof buf);
      if (n > 0) {
        conns_[ci].in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      die("a daemon closed its connection");
    }
    const ns t = now_ns();
    std::string& in = conns_[ci].in;
    std::size_t off = 0;
    while (in.size() - off >= 4) {
      const std::uint32_t len = be32(in.data() + off);
      if (len > kMaxFrame) die("oversized frame");
      if (in.size() - off - 4 < len) break;
      const std::string_view payload(in.data() + off + 4, len);
      if (!payload.empty() &&
          static_cast<unsigned char>(payload[0]) == kV2Magic)
        on_v2(payload, t);
      else if (v1_handler_)
        v1_handler_(ci, t, payload);
      off += 4 + len;
    }
    in.erase(0, off);
  }

  void flush(unsigned ci) {
    Conn& c = conns_[ci];
    while (!c.out.empty()) {
      const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      die("write to a daemon failed");
    }
    const bool want = !c.out.empty();
    if (want != c.epollout) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = ci;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.epollout = want;
    }
  }

  void flush_all() {
    for (unsigned i = 0; i < conns_.size(); ++i)
      if (!conns_[i].out.empty()) flush(i);
  }

  Options opt_;
  Spec spec_;
  int ep_ = -1, tfd_ = -1;
  std::vector<Conn> conns_;
  std::vector<HotJob> hot_;
  SplitMix64 rng_{0};
  std::uint64_t next_label_ = 0;
  std::unordered_map<std::uint32_t, Request> inflight_;
  std::uint32_t next_wire_id_ = 1;
  PhaseStats stats_[kPhaseCount];
  std::uint64_t attempted_ = 0, failed_ = 0, mismatched_ = 0;
  std::function<void(const Request&)> on_complete_;
  std::function<void(unsigned, ns, std::string_view)> v1_handler_;
  std::function<ns(ns)> timer_;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) die("missing value for " + a);
    const char* v = argv[++i];
    if (a == "--mode") opt.mode = v;
    else if (a == "--spec") opt.spec = v;
    else if (a == "--router") opt.router = static_cast<unsigned>(std::atoi(v));
    else if (a == "--backend") opt.backend = static_cast<unsigned>(std::atoi(v));
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--traffic") opt.traffic = v;
    else if (a == "--rate") opt.rate = std::atof(v);
    else if (a == "--concurrency") opt.concurrency = static_cast<unsigned>(std::atoi(v));
    else if (a == "--open-seconds") opt.open_seconds = std::atof(v);
    else if (a == "--capacity-seconds") opt.capacity_seconds = std::atof(v);
    else if (a == "--trace") opt.trace = std::atoi(v) != 0;
    else die("unknown flag " + a);
  }
  const bool warm = opt.mode == "warm";
  const bool run = opt.mode == "run" &&
                   (opt.traffic == "hit" || opt.traffic == "batch") &&
                   opt.rate > 0 && opt.concurrency > 0 &&
                   opt.open_seconds > 0 && opt.capacity_seconds > 0;
  if (opt.router == 0 || opt.backend == 0 || opt.spec.empty() || !(warm || run))
    die("usage: fleetload --mode warm|run --spec FILE --router PORT "
        "--backend PORT --seed N, and for --mode run: --traffic hit|batch "
        "--rate R --concurrency C --open-seconds S --capacity-seconds S");
  Spec spec = load_spec(opt.spec);
  return LoadGen(std::move(opt), std::move(spec)).run();
}
