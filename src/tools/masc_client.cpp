// masc-client: command-line front end for a running masc-served.
//
//   masc-client [--host H] [--port N] [retry opts] <command> [args]
//     --retries N                  retry transport failures and queue_full
//                                  rejections up to N times    (default 0)
//     --backoff-ms N               base retry delay; doubles per attempt,
//                                  jittered, honors the server's
//                                  retry_after_ms hint         (default 100)
//     --connect-timeout-ms N       TCP connect budget; 0 = OS  (default 0)
//     --io-timeout-ms N            per-frame I/O budget; 0 = none
//
//     ping                         round-trip check
//     stats [--watch SECS] [--count N]
//                                  print the server's /stats JSON; with
//                                  --watch, repeat every SECS seconds (one
//                                  JSON line per sample, forever unless
//                                  --count N bounds the samples)
//     metrics [--watch SECS] [--count N]
//                                  print the server's Prometheus text
//                                  exposition (the metrics_text op; works
//                                  against masc-served and masc-routerd)
//
// Watch loops hold ONE connection open across samples instead of
// reopening per poll; if the server goes away mid-watch the connection
// is reopened with jittered backoff (a note goes to stderr, samples
// resume when it returns) rather than killing the loop.
//     submit FILE [opts]           submit .s/.ascal source or a .mo image
//       --pes N --threads N --width N --arity N   machine geometry
//       --seeds N                  one job per seed 0..N-1   (default 1)
//       --label S                  result label              (default cfg name)
//       --max-cycles N             per-job cycle limit
//       --deadline-ms N            per-job wall-clock deadline
//       --key S                    idempotency key: resubmitting the same
//                                  key returns the original job ids
//       --wait                     block and print each result JSON line
//       --repeat N                 send the whole submit N times and print
//                                  per-request latency min/median/max (pairs
//                                  with the server's --cache-bytes: repeats
//                                  after the first hit the result cache).
//                                  Response JSON is printed only when N=1.
//     cache stats                  per-tier result-cache counters (JSON)
//     cache flush                  force L1 -> disk demotion + fsync
//                                  (incident response, docs/CACHE.md)
//     cache get KEY                probe one cache entry by its 32-hex-digit
//                                  content key; prints found/payload JSON
//     status ID                    job state
//     result ID [--wait] [--timeout-ms N] [--release]
//     cancel ID
//     extend ID [--deadline-ms N]  requeue a cancelled/deadline-stopped job
//                                  from its checkpoint with a fresh deadline
//     shutdown                     ask the daemon to exit
//
// Exit codes: 0 ok, 1 transport/file error, 2 usage, 3 server said no
// (queue_full, not_found, ...).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "assembler/program_io.hpp"
#include "common/error.hpp"
#include "serve/client.hpp"

namespace {

using namespace masc;

int usage() {
  std::fprintf(
      stderr,
      "usage: masc-client [--host H] [--port N] [--retries N] "
      "[--backoff-ms N]\n"
      "    [--connect-timeout-ms N] [--io-timeout-ms N] <command> [args]\n"
      "  ping | shutdown\n"
      "  stats [--watch SECS] [--count N]\n"
      "  metrics [--watch SECS] [--count N]\n"
      "  cache stats | cache flush | cache get KEY\n"
      "  submit FILE [--pes N] [--threads N] [--width N] [--arity N]\n"
      "         [--seeds N] [--label S] [--max-cycles N] [--deadline-ms N]\n"
      "         [--key S] [--wait] [--repeat N]\n"
      "  status ID\n"
      "  result ID [--wait] [--timeout-ms N] [--release]\n"
      "  cancel ID\n"
      "  extend ID [--deadline-ms N]\n");
  return 2;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw AssemblyError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Build the "program" object for FILE: source text travels as-is (the
/// server compiles it), .mo images travel as word arrays.
std::string program_json(const std::string& path) {
  std::ostringstream os;
  if (has_suffix(path, ".mo")) {
    const Program prog = load_program_file(path);
    os << "{\"text\":[";
    for (std::size_t i = 0; i < prog.text.size(); ++i) {
      if (i) os << ",";
      os << prog.text[i];
    }
    os << "],\"data\":[";
    for (std::size_t i = 0; i < prog.data.size(); ++i) {
      if (i) os << ",";
      os << prog.data[i];
    }
    os << "],\"entry\":" << prog.entry << "}";
  } else if (has_suffix(path, ".ascal")) {
    os << "{\"ascal\":\"" << json_escape(read_file(path)) << "\"}";
  } else {
    os << "{\"source\":\"" << json_escape(read_file(path)) << "\"}";
  }
  return os.str();
}

/// True when the response says ok; prints it either way.
bool print_response(const json::Value& resp, const std::string& raw) {
  std::printf("%s\n", raw.c_str());
  return resp.get_bool("ok", false);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7733;
  serve::RetryPolicy policy;
  std::uint64_t connect_timeout_ms = 0, io_timeout_ms = 0;
  std::vector<std::string> args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) std::exit(usage());
      return argv[i];
    };
    if (arg == "--host") host = next();
    else if (arg == "--port")
      port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--retries")
      policy.max_attempts =
          1 + static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    else if (arg == "--backoff-ms")
      policy.base_ms = std::strtoull(next(), nullptr, 0);
    else if (arg == "--connect-timeout-ms")
      connect_timeout_ms = std::strtoull(next(), nullptr, 0);
    else if (arg == "--io-timeout-ms")
      io_timeout_ms = std::strtoull(next(), nullptr, 0);
    else args.push_back(arg);
  }
  if (args.empty()) return usage();
  const std::string cmd = args[0];

  try {
    serve::Client client;
    client.set_frame_timeout_ms(io_timeout_ms);
    try {
      client.connect(host, port, connect_timeout_ms);
    } catch (const serve::ServeError&) {
      // connect() remembered the target; with retries, the first
      // request_with_retry reconnects with backoff. Without, fail now.
      if (policy.max_attempts <= 1) throw;
    }
    // The bytes of the last response, printed as received: re-serializing
    // the parsed value would re-render its floats at 17 digits.
    std::string raw;
    auto do_request = [&](const std::string& payload) {
      return client.request_with_retry(payload, policy, &raw);
    };
    // Watch loops hold the ONE connection above open across samples; a
    // transport failure reopens it with jittered backoff (note on
    // stderr) instead of dying — a restarting server costs a gap in
    // the samples, never the watch itself.
    serve::RetryPolicy watch_policy;
    watch_policy.base_ms = 200;
    watch_policy.max_ms = 5'000;
    Rng watch_rng{0x77617463'68726e67ULL};
    auto watch_request = [&](const std::string& payload) {
      for (unsigned attempt = 0;; ++attempt) {
        try {
          if (!client.connected()) client.connect(host, port, connect_timeout_ms);
          raw = client.request_raw(payload);
          return parse_json(raw);
        } catch (const serve::ServeError& e) {
          client.close();
          const std::uint64_t delay_ms = serve::backoff_delay_ms(
              watch_policy, std::min(attempt, 8u), 0, watch_rng);
          std::fprintf(stderr,
                       "masc-client: %s; reconnecting in %llu ms\n", e.what(),
                       static_cast<unsigned long long>(delay_ms));
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        }
      }
    };

    if (cmd == "ping" || cmd == "shutdown") {
      if (args.size() != 1) return usage();
      const json::Value resp = do_request("{\"op\":\"" + cmd + "\"}");
      return print_response(resp, raw) ? 0 : 3;
    }

    if (cmd == "stats" || cmd == "metrics") {
      double watch_secs = 0;
      std::uint64_t count = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--watch" && i + 1 < args.size())
          watch_secs = std::strtod(args[++i].c_str(), nullptr);
        else if (args[i] == "--count" && i + 1 < args.size())
          count = std::strtoull(args[++i].c_str(), nullptr, 0);
        else return usage();
      }
      const std::string payload = cmd == "stats" ? "{\"op\":\"stats\"}"
                                                 : "{\"op\":\"metrics_text\"}";
      auto print_sample = [&](const json::Value& resp) {
        if (cmd == "metrics" && resp.get_bool("ok", false)) {
          std::fputs(resp.get_string("text", "").c_str(), stdout);
        } else {
          std::printf("%s\n", raw.c_str());
        }
        std::fflush(stdout);
        return resp.get_bool("ok", false);
      };
      if (watch_secs <= 0) {
        if (count != 0) return usage();  // --count only makes sense watching
        return print_sample(do_request(payload)) ? 0 : 3;
      }
      // One sample per tick (a JSON line for stats, a text block for
      // metrics), flushed eagerly so `masc-client stats --watch 2 |
      // jq .` streams; runs until --count samples (0 = until
      // interrupted).
      for (std::uint64_t sample = 0; count == 0 || sample < count; ++sample) {
        if (sample > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(watch_secs));
        if (!print_sample(watch_request(payload))) return 3;
      }
      return 0;
    }

    if (cmd == "cache") {
      // Subcommands map 1:1 onto the cache_* protocol ops (docs/CACHE.md
      // "Protocol surface"); the raw response JSON is the output.
      if (args.size() < 2) return usage();
      const std::string sub = args[1];
      std::string payload;
      if (sub == "stats" && args.size() == 2)
        payload = "{\"op\":\"cache_stats\"}";
      else if (sub == "flush" && args.size() == 2)
        payload = "{\"op\":\"cache_flush\"}";
      else if (sub == "get" && args.size() == 3)
        payload =
            "{\"op\":\"cache_get\",\"key\":\"" + json_escape(args[2]) + "\"}";
      else
        return usage();
      const json::Value resp = do_request(payload);
      return print_response(resp, raw) ? 0 : 3;
    }

    if (cmd == "status" || cmd == "result" || cmd == "cancel" ||
        cmd == "extend") {
      if (args.size() < 2) return usage();
      std::ostringstream os;
      os << "{\"op\":\"" << cmd << "\",\"id\":" << args[1];
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--wait") os << ",\"wait\":true";
        else if (args[i] == "--release") os << ",\"release\":true";
        else if (args[i] == "--timeout-ms" && i + 1 < args.size())
          os << ",\"timeout_ms\":" << args[++i];
        else if (args[i] == "--deadline-ms" && i + 1 < args.size())
          os << ",\"deadline_ms\":" << args[++i];
        else return usage();
      }
      os << "}";
      const json::Value resp = do_request(os.str());
      return print_response(resp, raw) ? 0 : 3;
    }

    if (cmd == "submit") {
      if (args.size() < 2) return usage();
      const std::string file = args[1];
      std::uint32_t pes = 16, threads = 16, width = 16, arity = 2, seeds = 1;
      std::uint32_t repeat = 1;
      std::uint64_t max_cycles = 0, deadline_ms = 0;
      std::string label, key;
      bool wait = false;
      for (std::size_t i = 2; i < args.size(); ++i) {
        auto val = [&]() -> const char* {
          if (++i >= args.size()) std::exit(usage());
          return args[i].c_str();
        };
        if (args[i] == "--pes") pes = static_cast<std::uint32_t>(std::strtoul(val(), nullptr, 0));
        else if (args[i] == "--threads") threads = static_cast<std::uint32_t>(std::strtoul(val(), nullptr, 0));
        else if (args[i] == "--width") width = static_cast<std::uint32_t>(std::strtoul(val(), nullptr, 0));
        else if (args[i] == "--arity") arity = static_cast<std::uint32_t>(std::strtoul(val(), nullptr, 0));
        else if (args[i] == "--seeds") seeds = static_cast<std::uint32_t>(std::strtoul(val(), nullptr, 0));
        else if (args[i] == "--label") label = val();
        else if (args[i] == "--key") key = val();
        else if (args[i] == "--max-cycles") max_cycles = std::strtoull(val(), nullptr, 0);
        else if (args[i] == "--deadline-ms") deadline_ms = std::strtoull(val(), nullptr, 0);
        else if (args[i] == "--repeat") repeat = static_cast<std::uint32_t>(std::strtoul(val(), nullptr, 0));
        else if (args[i] == "--wait") wait = true;
        else return usage();
      }
      if (seeds == 0 || repeat == 0) return usage();
      // A keyed resubmit returns the ORIGINAL ids instead of running
      // anything, which would make the latency numbers meaningless.
      if (repeat > 1 && !key.empty()) {
        std::fprintf(stderr, "masc-client: --repeat and --key conflict\n");
        return 2;
      }

      const std::string prog = program_json(file);
      std::ostringstream os;
      os << "{\"op\":\"submit\"";
      if (deadline_ms > 0) os << ",\"deadline_ms\":" << deadline_ms;
      if (!key.empty()) os << ",\"key\":\"" << json_escape(key) << "\"";
      os << ",\"jobs\":[";
      for (std::uint32_t s = 0; s < seeds; ++s) {
        if (s) os << ",";
        os << "{\"config\":{\"pes\":" << pes << ",\"threads\":" << threads
           << ",\"width\":" << width << ",\"arity\":" << arity << "}"
           << ",\"program\":" << prog << ",\"seed\":" << s;
        if (!label.empty())
          os << ",\"label\":\"" << json_escape(label) << "\"";
        if (max_cycles > 0) os << ",\"max_cycles\":" << max_cycles;
        os << "}";
      }
      os << "]}";

      // NOTE: an un-keyed submit resent after a transport failure can
      // duplicate jobs; pass --key to make retries idempotent.
      const bool quiet = repeat > 1;
      std::vector<double> latency_ms;
      latency_ms.reserve(repeat);
      bool all_ok = true;
      for (std::uint32_t rep = 0; rep < repeat; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const json::Value resp = do_request(os.str());
        bool ok = quiet ? resp.get_bool("ok", false)
                        : print_response(resp, raw);
        if (ok && wait) {
          for (const auto& id : resp.find("ids")->as_array()) {
            const json::Value rresp = do_request(
                "{\"op\":\"result\",\"id\":" + std::to_string(id.as_uint()) +
                ",\"wait\":true,\"timeout_ms\":600000}");
            if (!quiet) std::printf("%s\n", raw.c_str());
            if (!rresp.get_bool("ok", false)) ok = false;
          }
        }
        latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
        if (!ok) all_ok = false;
      }
      if (repeat > 1) {
        std::sort(latency_ms.begin(), latency_ms.end());
        std::printf(
            "repeat: n=%u min=%.3fms median=%.3fms max=%.3fms\n", repeat,
            latency_ms.front(), latency_ms[latency_ms.size() / 2],
            latency_ms.back());
      }
      return all_ok ? 0 : 3;
    }

    std::fprintf(stderr, "masc-client: unknown command \"%s\"\n", cmd.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masc-client: %s\n", e.what());
    return 1;
  }
}
