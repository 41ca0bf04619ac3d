// Protocol v2 tests (docs/NET.md "Protocol v2"): codec invariants,
// hello negotiation, the headline bit-identity contract (a v2 response
// body is byte-for-byte the v1 response to the same request), binary
// cache_get against the JSON+base64 op, pipelining with out-of-order
// completion matched by request id, the json op (5) answering as v1
// does, a hostile-frame fuzz corpus
// (truncated headers, bad version/op/kind bytes, oversized payloads,
// interleaved v1/v2), a pipelined multi-client stress run checked
// against serial ground truth, and the router speaking v2 on both
// faces — client-to-router and router-to-backend.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assembler/assembler.hpp"
#include "cluster/router.hpp"
#include "common/base64.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/protocol_v2.hpp"
#include "serve/server.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace masc {
namespace {

using cluster::BackendSpec;
using cluster::Router;
using cluster::RouterOptions;
using serve::Client;
using serve::Server;
using serve::ServerOptions;
namespace v2 = serve::v2;
using namespace std::chrono_literals;

// --- helpers (mirroring serve_test.cpp) -------------------------------

std::string reduction_kernel(int rounds) {
  std::string src = "pindex p1\n";
  for (int i = 0; i < rounds; ++i) {
    src += "rsum r1, p1\n";
    src += "padds p2, r1, p1\n";
  }
  src += "halt\n";
  return src;
}

struct JobSpec {
  std::string source;
  std::uint32_t pes = 8;
  std::uint32_t threads = 4;
  std::uint64_t seed = 0;
  std::string label;
};

std::string job_json(const JobSpec& spec) {
  return "{\"config\":{\"pes\":" + std::to_string(spec.pes) +
         ",\"threads\":" + std::to_string(spec.threads) +
         ",\"width\":16},\"program\":{\"source\":\"" +
         json_escape(spec.source) + "\"},\"seed\":" +
         std::to_string(spec.seed) + ",\"label\":\"" +
         json_escape(spec.label) + "\"}";
}

std::string submit_request(const std::vector<std::string>& jobs) {
  std::string out = "{\"op\":\"submit\",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i) out += ",";
    out += jobs[i];
  }
  out += "]}";
  return out;
}

std::string result_request(std::uint64_t id, bool wait,
                           std::uint64_t timeout_ms = 30'000) {
  return "{\"op\":\"result\",\"id\":" + std::to_string(id) +
         ",\"wait\":" + (wait ? "true" : "false") +
         ",\"timeout_ms\":" + std::to_string(timeout_ms) + "}";
}

std::string serial_stats_json(const JobSpec& spec) {
  MachineConfig cfg;
  cfg.num_pes = spec.pes;
  cfg.num_threads = spec.threads;
  cfg.word_width = 16;
  cfg.validate();
  Machine m(cfg);
  m.load(assemble(spec.source));
  EXPECT_TRUE(m.run(100'000'000));
  return to_json(m.stats());
}

ServerOptions test_options() {
  ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.queue_capacity = 64;
  return opts;
}

/// Raw TCP connection for byte-level fuzzing, as in serve_test.cpp.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  int fd() const { return fd_; }

  void send_bytes(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  static std::string header(std::uint32_t len) {
    std::string h(4, '\0');
    h[0] = static_cast<char>((len >> 24) & 0xFF);
    h[1] = static_cast<char>((len >> 16) & 0xFF);
    h[2] = static_cast<char>((len >> 8) & 0xFF);
    h[3] = static_cast<char>(len & 0xFF);
    return h;
  }
  bool closed_by_peer(int timeout_ms) {
    std::string ignored;
    try {
      return !serve::read_frame(fd_, ignored,
                                static_cast<std::uint64_t>(timeout_ms),
                                static_cast<std::uint64_t>(timeout_ms));
    } catch (const serve::ServeTimeout&) {
      return false;
    } catch (const serve::ServeError&) {
      return true;
    }
  }

 private:
  int fd_ = -1;
};

/// A v2 message with an arbitrary (possibly invalid) header.
std::string raw_v2(unsigned char magic, unsigned char version,
                   unsigned char op, unsigned char kind, std::uint32_t id,
                   const std::string& body = "") {
  std::string out(v2::kHeaderBytes, '\0');
  out[0] = static_cast<char>(magic);
  out[1] = static_cast<char>(version);
  out[2] = static_cast<char>(op);
  out[3] = static_cast<char>(kind);
  out[4] = static_cast<char>(id & 0xFF);
  out[5] = static_cast<char>((id >> 8) & 0xFF);
  out[6] = static_cast<char>((id >> 16) & 0xFF);
  out[7] = static_cast<char>((id >> 24) & 0xFF);
  return out + body;
}

// --- codec ------------------------------------------------------------

TEST(ProtocolV2Codec, EncodeDecodeRoundTripsEveryField) {
  const std::string msg =
      v2::encode(v2::Op::kSubmit, v2::Kind::kRequest, 0xDEADBEEF, "{\"x\":1}");
  ASSERT_TRUE(v2::is_v2(msg));
  const v2::Frame f = v2::decode(msg);
  EXPECT_EQ(f.op, v2::Op::kSubmit);
  EXPECT_EQ(f.kind, v2::Kind::kRequest);
  EXPECT_EQ(f.request_id, 0xDEADBEEFu);
  EXPECT_EQ(f.body, "{\"x\":1}");

  EXPECT_FALSE(v2::is_v2("{\"op\":\"ping\"}"));  // '{' is v1
  EXPECT_FALSE(v2::is_v2(""));
}

TEST(ProtocolV2Codec, TruncatedHeaderIsFatalBadBytesAreNot) {
  // Shorter than the fixed header: the stream cannot be trusted.
  try {
    v2::decode(raw_v2(v2::kMagic, 2, 1, 0, 7).substr(0, 5));
    FAIL() << "truncated header must throw";
  } catch (const v2::V2Error& e) {
    EXPECT_TRUE(e.fatal());
  }
  // Unknown version: in-band error echoing the request id.
  try {
    v2::decode(raw_v2(v2::kMagic, 9, 1, 0, 42));
    FAIL() << "bad version must throw";
  } catch (const v2::V2Error& e) {
    EXPECT_FALSE(e.fatal());
    EXPECT_EQ(e.code(), "bad_version");
    EXPECT_EQ(e.request_id(), 42u);
  }
  // Unknown op on a request: in-band error.
  try {
    v2::decode(raw_v2(v2::kMagic, 2, 99, 0, 43));
    FAIL() << "bad op must throw";
  } catch (const v2::V2Error& e) {
    EXPECT_FALSE(e.fatal());
    EXPECT_EQ(e.code(), "unknown_op");
    EXPECT_EQ(e.request_id(), 43u);
  }
  // Unknown kind: in-band error.
  try {
    v2::decode(raw_v2(v2::kMagic, 2, 1, 7, 44));
    FAIL() << "bad kind must throw";
  } catch (const v2::V2Error& e) {
    EXPECT_FALSE(e.fatal());
    EXPECT_EQ(e.request_id(), 44u);
  }
  // An *error frame* echoing a garbage op byte must decode fine — the
  // op range is only enforced on request/ok frames.
  const v2::Frame err = v2::decode(raw_v2(v2::kMagic, 2, 99, 2, 45, "{}"));
  EXPECT_EQ(err.kind, v2::Kind::kError);
  EXPECT_EQ(err.request_id, 45u);
}

TEST(ProtocolV2Codec, CacheGetBodiesRoundTrip) {
  const Hash128 key{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const std::string req = v2::encode_cache_get_request(5, key);
  const v2::Frame f = v2::decode(req);
  EXPECT_EQ(f.op, v2::Op::kCacheGet);
  EXPECT_EQ(f.body.size(), 16u);
  const Hash128 back = v2::decode_cache_get_key(f.body, f.request_id);
  EXPECT_EQ(back.hi, key.hi);
  EXPECT_EQ(back.lo, key.lo);
  // Wrong body length: in-band error.
  EXPECT_THROW(v2::decode_cache_get_key("short", 5), v2::V2Error);

  const std::string record = "binary\x00record\xFF";
  std::string got;
  EXPECT_TRUE(v2::decode_cache_get_response(
      v2::decode(v2::encode_cache_get_hit(6, record)).body, 6, &got));
  EXPECT_EQ(got, record);
  EXPECT_FALSE(v2::decode_cache_get_response(
      v2::decode(v2::encode_cache_get_miss(7)).body, 7, &got));
  EXPECT_THROW(v2::decode_cache_get_response("", 8, &got), v2::V2Error);

  EXPECT_TRUE(v2::is_error_body("{\"ok\":false,\"error\":\"x\"}"));
  EXPECT_FALSE(v2::is_error_body("{\"ok\":true}"));
}

// --- negotiation ------------------------------------------------------

TEST(ProtocolV2, HelloNegotiatesTheHighestSharedVersion) {
  Server server(test_options());
  server.start();

  Client c;
  c.connect("127.0.0.1", server.port());
  EXPECT_EQ(c.protocol(), 1u);
  EXPECT_FALSE(c.negotiated());
  EXPECT_EQ(c.negotiate(), 2u);
  EXPECT_EQ(c.protocol(), 2u);
  EXPECT_TRUE(c.negotiated());

  // A v1-only client gets v1 and an advertisement of what exists.
  const json::Value v1only =
      c.request("{\"op\":\"hello\",\"versions\":[1]}");
  EXPECT_TRUE(v1only.get_bool("ok", false));
  EXPECT_EQ(v1only.get_uint("version", 0), 1u);
  ASSERT_NE(v1only.find("versions"), nullptr);
  EXPECT_EQ(v1only.find("versions")->as_array().size(), 2u);

  // Versions the server has never heard of fall back to 1, not an error.
  const json::Value future =
      c.request("{\"op\":\"hello\",\"versions\":[3,7]}");
  EXPECT_TRUE(future.get_bool("ok", false));
  EXPECT_EQ(future.get_uint("version", 0), 1u);

  // max_version=1 keeps the client on v1 without consulting the server.
  Client c1;
  c1.connect("127.0.0.1", server.port());
  EXPECT_EQ(c1.negotiate(/*max_version=*/1), 1u);
  EXPECT_EQ(c1.protocol(), 1u);
  server.stop();
}

// --- bit-identity -----------------------------------------------------

TEST(ProtocolV2, ResponsesAreBitIdenticalToV1) {
  ServerOptions opts = test_options();
  opts.cache_bytes = 16u << 20;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  ASSERT_EQ(c.negotiate(), 2u);

  JobSpec spec;
  spec.source = reduction_kernel(6);
  spec.label = "v2-identity";
  const std::string submit = submit_request({job_json(spec)});
  const json::Value sub = c.request_v2(v2::Op::kSubmit, submit);
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = sub.find("ids")->as_array()[0].as_uint();

  // Wait for completion over v2, then fetch the settled result over
  // both protocols: the bytes must match exactly.
  ASSERT_TRUE(
      c.request_v2(v2::Op::kResult, result_request(id, true))
          .get_bool("ok", false));
  const std::string req = result_request(id, false);
  const std::string via_v1 = c.request_raw(req);

  const std::uint32_t rid = c.send_v2(v2::Op::kResult, req);
  const Client::V2Response via_v2 = c.recv_v2();
  EXPECT_EQ(via_v2.request_id, rid);
  EXPECT_TRUE(via_v2.ok);
  EXPECT_EQ(via_v2.body, via_v1) << "v2 must carry the v1 bytes verbatim";
  EXPECT_NE(via_v2.body.find("\"stats\":" + serial_stats_json(spec)),
            std::string::npos);

  // Same for an error response: unknown job id, identical bytes.
  const std::string bad_req = result_request(999'999, false);
  const std::string bad_v1 = c.request_raw(bad_req);
  c.send_v2(v2::Op::kResult, bad_req);
  const Client::V2Response bad = c.recv_v2();
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.body, bad_v1);

  // And for stats: same request back-to-back with nothing running.
  const std::string stats_v1 = c.request_raw("{\"op\":\"stats\"}");
  const json::Value stats_v2 = c.request_v2(v2::Op::kStats, "{\"op\":\"stats\"}");
  EXPECT_TRUE(stats_v2.get_bool("ok", false));
  EXPECT_EQ(json::serialize(stats_v2),
            json::serialize(parse_json(stats_v1)));
  server.stop();
}

TEST(ProtocolV2, BinaryCacheGetMatchesTheJsonOp) {
  ServerOptions opts = test_options();
  opts.cache_bytes = 16u << 20;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  ASSERT_EQ(c.negotiate(), 2u);

  JobSpec spec;
  spec.source = reduction_kernel(5);
  spec.label = "donor";
  const json::Value sub =
      c.request_v2(v2::Op::kSubmit, submit_request({job_json(spec)}));
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = sub.find("ids")->as_array()[0].as_uint();
  ASSERT_TRUE(c.request_v2(v2::Op::kResult, result_request(id, true))
                  .get_bool("ok", false));

  const SweepJob job = serve::job_from_json(parse_json(job_json(spec)));
  const Hash128 key = sweep_cache_key(job);

  // v1: JSON + base64. v2: raw bytes. Same record.
  const json::Value hit = c.request("{\"op\":\"cache_get\",\"key\":\"" +
                                    to_hex(key) + "\"}");
  ASSERT_TRUE(hit.get_bool("found", false));
  const std::string v1_blob = base64_decode(hit.get_string("payload", ""));

  std::string v2_blob;
  ASSERT_TRUE(c.cache_get_v2(key, &v2_blob));
  EXPECT_EQ(v2_blob, v1_blob) << "binary cache_get must serve the same bytes";
  CachedSweepRun run;
  EXPECT_TRUE(decode_cached_run(v2_blob, run));

  // Unknown key: an honest miss on both protocols.
  std::string none;
  EXPECT_FALSE(c.cache_get_v2(Hash128{0, 0}, &none));
  server.stop();
}

TEST(ProtocolV2, JsonOpAnswersExactlyAsTheSameV1Request) {
  // Op 5 carries any v1 JSON request, dispatched by its "op" member (the
  // router forwards status, cancel and extend on it). Every answer is
  // the v1 answer's bytes, in an envelope of the matching kind.
  ServerOptions opts = test_options();
  opts.cache_bytes = 16u << 20;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec done;
  done.source = reduction_kernel(3);
  done.label = "done";
  JobSpec spin;
  spin.source = "loop: j loop\n";
  spin.label = "spin";
  const json::Value sub =
      c.request(submit_request({job_json(done), job_json(spin)}));
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t done_id = sub.find("ids")->as_array()[0].as_uint();
  const std::uint64_t spin_id = sub.find("ids")->as_array()[1].as_uint();
  ASSERT_TRUE(parse_json(c.request_raw(result_request(done_id, true)))
                  .get_bool("ok", false));
  const std::string spin_status =
      "{\"op\":\"status\",\"id\":" + std::to_string(spin_id) + "}";
  for (int i = 0; i < 2000; ++i) {
    if (parse_json(c.request_raw(spin_status)).get_string("state", "") ==
        "running")
      break;
    std::this_thread::sleep_for(2ms);
  }

  const std::string key =
      to_hex(sweep_cache_key(serve::job_from_json(parse_json(job_json(done)))));
  const std::string d = std::to_string(done_id);
  const std::string requests[] = {
      "{\"op\":\"status\",\"id\":" + d + "}",
      spin_status,
      "{\"op\":\"status\",\"id\":424242}",
      "{\"op\":\"cancel\",\"id\":" + d + "}",
      "{\"op\":\"cancel\",\"id\":424242}",
      "{\"op\":\"extend\",\"id\":" + d + ",\"deadline_ms\":1000}",
      "{\"op\":\"extend\",\"id\":" + std::to_string(spin_id) + "}",
      "{\"op\":\"extend\",\"id\":424242}",
      "{\"op\":\"cache_get\",\"key\":\"" + key + "\"}",
      "{\"op\":\"ping\"}",
      "{\"op\":\"flub\"}",
  };
  for (const std::string& req : requests) {
    const std::string v1 = c.request_raw(req);
    const std::uint32_t tag = c.send_v2(v2::Op::kJson, req);
    const Client::V2Response r = c.recv_v2();
    EXPECT_EQ(r.request_id, tag) << req;
    EXPECT_EQ(r.op, v2::Op::kJson) << req;
    EXPECT_EQ(r.ok, !v2::is_error_body(v1)) << req;
    EXPECT_EQ(r.body, v1) << req;
  }
  EXPECT_EQ(parse_json(c.request_raw("{\"op\":\"flub\"}"))
                .get_string("error", ""),
            "unknown_op");

  // An op byte past the table still earns an in-band error.
  RawConn raw(server.port());
  serve::write_frame(raw.fd(), raw_v2(v2::kMagic, 2, 6, 0, 77, spin_status));
  std::string answer;
  ASSERT_TRUE(serve::read_frame(raw.fd(), answer, 5000, 5000));
  const v2::Frame f = v2::decode(answer);
  EXPECT_EQ(f.kind, v2::Kind::kError);
  EXPECT_EQ(f.request_id, 77u);
  EXPECT_EQ(parse_json(std::string(f.body)).get_string("error", ""),
            "unknown_op");

  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(spin_id) + "}");
  server.stop();
}

// --- pipelining -------------------------------------------------------

TEST(ProtocolV2, PipelinedResponsesArriveOutOfOrderMatchedById) {
  // One worker, one long job hogging it: the quick job behind it stays
  // queued, so a pipelined result-wait on it parks while the stats
  // request pipelined *after* it overtakes — out-of-order completion.
  ServerOptions opts = test_options();
  opts.workers = 1;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  ASSERT_EQ(c.negotiate(), 2u);

  JobSpec hog;
  hog.source =
      "li r2, 200\n"
      "outer: li r1, 20000\n"
      "inner: addi r1, r1, -1\n"
      "bne r1, r0, inner\n"
      "addi r2, r2, -1\n"
      "bne r2, r0, outer\n"
      "halt\n";
  hog.label = "hog";
  JobSpec spec;
  spec.source = reduction_kernel(4);
  spec.label = "queued";
  const json::Value sub = c.request_v2(
      v2::Op::kSubmit, submit_request({job_json(hog), job_json(spec)}));
  ASSERT_TRUE(sub.get_bool("ok", false));
  const std::uint64_t id = sub.find("ids")->as_array()[1].as_uint();

  const std::uint32_t rid_result =
      c.send_v2(v2::Op::kResult, result_request(id, true));
  const std::uint32_t rid_stats = c.send_v2(v2::Op::kStats, "{\"op\":\"stats\"}");

  // Collect both; remember arrival order.
  std::vector<std::uint32_t> order;
  std::map<std::uint32_t, Client::V2Response> got;
  for (int i = 0; i < 2; ++i) {
    Client::V2Response r = c.recv_v2();
    order.push_back(r.request_id);
    got.emplace(r.request_id, std::move(r));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got.at(rid_stats).ok);
  EXPECT_TRUE(got.at(rid_result).ok);
  EXPECT_NE(got.at(rid_result).body.find("\"status\":\"finished\""),
            std::string::npos);
  // The overtake is the point: stats answered while the wait parked.
  EXPECT_EQ(order.front(), rid_stats);
  server.stop();
}

// --- fuzz -------------------------------------------------------------

TEST(ProtocolV2Fuzz, MalformedHeadersDropOnlyTheirOwnConnection) {
  Server server(test_options());
  server.start();

  // v2 magic but fewer than 8 header bytes: stream untrustworthy.
  {
    RawConn trunc(server.port());
    serve::write_frame(trunc.fd(), raw_v2(v2::kMagic, 2, 1, 0, 1).substr(0, 3));
    EXPECT_TRUE(trunc.closed_by_peer(5000));
  }
  // Oversized outer frame declared around a v2 payload: dropped by the
  // framing layer before v2 ever sees it.
  {
    RawConn oversized(server.port());
    oversized.send_bytes(RawConn::header(0x7FFFFFFFu) +
                         raw_v2(v2::kMagic, 2, 3, 0, 1));
    EXPECT_TRUE(oversized.closed_by_peer(5000));
  }
  // The server shrugged both off.
  Client c;
  c.connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.request("{\"op\":\"ping\"}").get_bool("ok", false));
  server.stop();
}

TEST(ProtocolV2Fuzz, BadVersionOpAndKindEarnInBandErrors) {
  Server server(test_options());
  server.start();
  RawConn conn(server.port());

  struct Case {
    std::string frame;
    std::uint32_t id;
    const char* why;
  };
  const Case corpus[] = {
      {raw_v2(v2::kMagic, 9, 1, 0, 101), 101, "unknown version"},
      {raw_v2(v2::kMagic, 2, 0, 0, 102), 102, "op zero"},
      {raw_v2(v2::kMagic, 2, 200, 0, 103), 103, "op out of range"},
      {raw_v2(v2::kMagic, 2, 1, 5, 104), 104, "bad kind"},
      {raw_v2(v2::kMagic, 2, 1, 1, 105), 105, "ok-response to a server"},
      {raw_v2(v2::kMagic, 2, 4, 0, 106, "tiny"), 106, "cache_get bad body"},
      {raw_v2(v2::kMagic, 2, 1, 0, 107, "not json"), 107, "garbage body"},
  };
  for (const Case& k : corpus) {
    serve::write_frame(conn.fd(), k.frame);
    std::string raw;
    ASSERT_TRUE(serve::read_frame(conn.fd(), raw, 5000, 5000)) << k.why;
    ASSERT_TRUE(v2::is_v2(raw)) << k.why;
    const v2::Frame f = v2::decode(raw);
    EXPECT_EQ(f.kind, v2::Kind::kError) << k.why;
    EXPECT_EQ(f.request_id, k.id) << "id must be echoed: " << k.why;
    EXPECT_TRUE(v2::is_error_body(f.body)) << k.why << ": " << f.body;
  }
  // After the whole corpus the session still works — v2 and v1 both.
  serve::write_frame(conn.fd(),
                     v2::encode(v2::Op::kStats, v2::Kind::kRequest, 1,
                                "{\"op\":\"stats\"}"));
  std::string raw;
  ASSERT_TRUE(serve::read_frame(conn.fd(), raw, 5000, 5000));
  EXPECT_EQ(v2::decode(raw).kind, v2::Kind::kOk);
  serve::write_frame(conn.fd(), "{\"op\":\"ping\"}");
  ASSERT_TRUE(serve::read_frame(conn.fd(), raw, 5000, 5000));
  EXPECT_TRUE(parse_json(raw).get_bool("ok", false));
  server.stop();
}

TEST(ProtocolV2Fuzz, V1AndV2InterleaveFreelyOnOneConnection) {
  Server server(test_options());
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  // No hello at all: frames are self-describing, negotiation is only
  // advisory. Alternate protocols request by request.
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(c.request("{\"op\":\"ping\"}").get_bool("ok", false));
    } else {
      const json::Value v =
          c.request_v2(v2::Op::kStats, "{\"op\":\"stats\"}");
      EXPECT_TRUE(v.get_bool("ok", false));
    }
  }
  server.stop();
}

// --- multi-client stress ----------------------------------------------

/// Pipelined v2 clients racing v1 clients: every result bit-identical
/// to the serial run, as in ServeServer.MultiClientStressBitIdenticalToSerial.
TEST(ProtocolV2, PipelinedMultiClientStressBitIdenticalToV1) {
  Server server(test_options());
  server.start();

  constexpr int kClients = 4;  // even: half v2-pipelined, half v1
  constexpr int kJobs = 6;
  std::vector<std::vector<JobSpec>> specs(kClients);
  for (int ci = 0; ci < kClients; ++ci)
    for (int j = 0; j < kJobs; ++j) {
      JobSpec s;
      s.source = reduction_kernel(4 + (ci + j) % 5);
      s.pes = (j % 2) ? 4u : 8u;
      s.seed = static_cast<std::uint64_t>(ci * 100 + j);
      s.label = "c" + std::to_string(ci) + ".j" + std::to_string(j);
      specs[ci].push_back(s);
    }

  std::vector<std::vector<std::string>> results(
      kClients, std::vector<std::string>(kJobs));
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      try {
        Client cl;
        cl.connect("127.0.0.1", server.port());
        std::vector<std::string> batch;
        for (int j = 0; j < kJobs; ++j) batch.push_back(job_json(specs[ci][j]));
        if (ci % 2 == 0) {
          // v2: one submit, then every result-wait pipelined at once.
          if (cl.negotiate() != 2) throw std::runtime_error("no v2");
          const json::Value sub =
              cl.request_v2(v2::Op::kSubmit, submit_request(batch));
          if (!sub.get_bool("ok", false))
            throw std::runtime_error("submit rejected");
          std::map<std::uint32_t, int> rid_to_job;
          const auto& ids = sub.find("ids")->as_array();
          for (int j = 0; j < kJobs; ++j)
            rid_to_job[cl.send_v2(
                v2::Op::kResult,
                result_request(ids[static_cast<std::size_t>(j)].as_uint(),
                               true))] = j;
          for (int j = 0; j < kJobs; ++j) {
            Client::V2Response r = cl.recv_v2();
            if (!r.ok) throw std::runtime_error("result error: " + r.body);
            results[ci][rid_to_job.at(r.request_id)] = std::move(r.body);
          }
        } else {
          // v1 control group on the same server at the same time.
          const json::Value sub = cl.request(submit_request(batch));
          if (!sub.get_bool("ok", false))
            throw std::runtime_error("submit rejected");
          const auto& ids = sub.find("ids")->as_array();
          for (int j = 0; j < kJobs; ++j)
            results[ci][j] = cl.request_raw(result_request(
                ids[static_cast<std::size_t>(j)].as_uint(), true));
        }
      } catch (const std::exception& e) {
        failures[ci] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int ci = 0; ci < kClients; ++ci)
    EXPECT_EQ(failures[ci], "") << "client " << ci;

  for (int ci = 0; ci < kClients; ++ci)
    for (int j = 0; j < kJobs; ++j) {
      const std::string& raw = results[ci][j];
      ASSERT_TRUE(parse_json(raw).get_bool("ok", false)) << raw;
      EXPECT_NE(raw.find("\"stats\":" + serial_stats_json(specs[ci][j])),
                std::string::npos)
          << "client " << ci << " job " << j;
      EXPECT_NE(raw.find("\"label\":\"" + specs[ci][j].label + "\""),
                std::string::npos);
    }
  server.stop();
}

// --- the router speaks v2 on both faces -------------------------------

TEST(ProtocolV2Router, EndToEndThroughTheRouter) {
  // Two cache-enabled backends behind a router; the client speaks v2 to
  // the router, the router speaks v2 to the backends.
  ServerOptions sopts = test_options();
  sopts.cache_bytes = 16u << 20;
  std::vector<std::unique_ptr<Server>> servers;
  RouterOptions ropts;
  ropts.probe_interval_ms = 0;
  ropts.connect_timeout_ms = 2'000;
  for (int i = 0; i < 2; ++i) {
    sopts.port = 0;
    servers.push_back(std::make_unique<Server>(sopts));
    servers.back()->start();
    ropts.backends.push_back(BackendSpec{"127.0.0.1", servers.back()->port()});
  }
  ropts.port = 0;
  Router router(std::move(ropts));
  router.start();

  Client c;
  c.connect("127.0.0.1", router.port(), 5000);
  ASSERT_EQ(c.negotiate(), 2u);

  // v2 submit + pipelined result-waits through the router.
  JobSpec specs[3];
  std::vector<std::string> batch;
  for (int j = 0; j < 3; ++j) {
    specs[j].source = reduction_kernel(4 + j);
    specs[j].label = "r" + std::to_string(j);
    batch.push_back(job_json(specs[j]));
  }
  const json::Value sub =
      c.request_v2(v2::Op::kSubmit, submit_request(batch));
  ASSERT_TRUE(sub.get_bool("ok", false)) << json::serialize(sub);
  const auto& ids = sub.find("ids")->as_array();
  std::map<std::uint32_t, int> rid_to_job;
  for (int j = 0; j < 3; ++j)
    rid_to_job[c.send_v2(
        v2::Op::kResult,
        result_request(ids[static_cast<std::size_t>(j)].as_uint(), true))] = j;
  for (int j = 0; j < 3; ++j) {
    Client::V2Response r = c.recv_v2();
    ASSERT_TRUE(r.ok) << r.body;
    const int job = rid_to_job.at(r.request_id);
    // The router canonicalizes forwarded JSON (one trip through the
    // shared serializer), so compare stats canonical-to-canonical.
    const json::Value resp = parse_json(r.body);
    ASSERT_TRUE(resp.get_bool("ok", false)) << r.body;
    const json::Value* stats = resp.find("result")->find("stats");
    ASSERT_NE(stats, nullptr) << r.body;
    EXPECT_EQ(json::serialize(*stats),
              json::serialize(parse_json(serial_stats_json(specs[job]))))
        << "job " << job;
  }

  // v2 stats through the router aggregates the fleet.
  const json::Value stats = c.request_v2(v2::Op::kStats, "{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.find("stats")->find("backends")->as_array().size(), 2u);

  // Binary cache_get through the router finds whichever backend ran the
  // job, and serves the same bytes the backend's JSON op serves.
  const SweepJob job0 = serve::job_from_json(parse_json(job_json(specs[0])));
  const Hash128 key = sweep_cache_key(job0);
  std::string via_router;
  ASSERT_TRUE(c.cache_get_v2(key, &via_router));
  std::string direct;
  for (const auto& s : servers) {
    Client bc;
    bc.connect("127.0.0.1", s->port());
    const json::Value hit =
        bc.request("{\"op\":\"cache_get\",\"key\":\"" + to_hex(key) + "\"}");
    if (hit.get_bool("found", false)) {
      direct = base64_decode(hit.get_string("payload", ""));
      break;
    }
  }
  ASSERT_FALSE(direct.empty()) << "some backend must hold the record";
  EXPECT_EQ(via_router, direct);

  // Misses and the v1 JSON face of the router op both behave.
  std::string none;
  EXPECT_FALSE(c.cache_get_v2(Hash128{0, 0}, &none));
  const json::Value v1_get = c.request(
      "{\"op\":\"cache_get\",\"key\":\"" + to_hex(key) + "\"}");
  EXPECT_TRUE(v1_get.get_bool("ok", false));
  EXPECT_TRUE(v1_get.get_bool("found", false));

  router.stop();
  for (auto& s : servers) s->stop();
}

}  // namespace
}  // namespace masc
