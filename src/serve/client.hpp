// Blocking client for the masc-served wire protocol: one TCP
// connection, synchronous request/response frames. Used by masc-client
// and by the in-process service tests; a Client is NOT thread-safe —
// concurrent submitters each open their own (the server is happy to
// hold many sessions).
//
// Resilience: connects honor a timeout, every request can be bounded by
// an I/O timeout, and request_with_retry() layers reconnect-and-retry
// with jittered exponential backoff on top — honoring the server's
// retry_after_ms hint when a submit bounces off a full queue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "serve/protocol.hpp"
#include "serve/protocol_v2.hpp"

namespace masc::serve {

/// Retry schedule for request_with_retry(). Delays are computed by
/// backoff_delay_ms(); `max_attempts` counts the first try.
struct RetryPolicy {
  unsigned max_attempts = 1;       ///< 1 = no retries
  std::uint64_t base_ms = 100;     ///< first retry delay scale
  std::uint64_t max_ms = 5'000;    ///< exponential growth cap
  std::uint64_t seed = 0;          ///< jitter stream seed
};

/// Delay before retry number `attempt` (0-based): exponential growth
/// base_ms·2^attempt capped at max_ms, jittered uniformly into
/// [cap/2, cap] to decorrelate clients, then floored by the server's
/// retry_after_ms hint (0 = no hint). Pure given the Rng state, so the
/// backoff-timing test can check spacing without sleeping.
std::uint64_t backoff_delay_ms(const RetryPolicy& policy, unsigned attempt,
                               std::uint64_t hint_ms, Rng& rng);

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connect to a masc-served instance, waiting at most `timeout_ms`
  /// (0 = OS default) for the TCP handshake. Throws ServeError (or
  /// ServeTimeout when the deadline expires). The target is remembered
  /// for request_with_retry() reconnects.
  void connect(const std::string& host, std::uint16_t port,
               std::uint64_t timeout_ms = 0);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Bound each subsequent request's socket reads/writes (0 = none).
  void set_frame_timeout_ms(std::uint64_t ms) { frame_timeout_ms_ = ms; }

  /// Send one request payload, return the raw response payload.
  /// Throws ServeError on transport failure (including server close)
  /// and ServeTimeout when the I/O timeout expires.
  std::string request_raw(const std::string& payload);

  /// As request_raw, with the response parsed. Throws JsonError if the
  /// server returns non-JSON (it never should).
  json::Value request(const std::string& payload);

  /// request() with recovery: on transport failure the connection is
  /// reopened and the request resent; a {"error":"queue_full"} response
  /// is retried after its retry_after_ms hint. Sleeps backoff_delay_ms()
  /// between attempts. Throws the last transport error once the policy
  /// is exhausted. NOTE: resending is safe for idempotent requests
  /// (everything but an un-keyed "submit"); give submits a "key".
  /// `raw`, when given, receives the returned response's bytes as sent.
  json::Value request_with_retry(const std::string& payload,
                                 const RetryPolicy& policy,
                                 std::string* raw = nullptr);

  // --- Protocol v2 (serve/protocol_v2.hpp, docs/NET.md) --------------------

  /// Negotiate the wire protocol via the v1 `hello` op and remember the
  /// result. Returns the agreed version: 2 against a v2-capable server,
  /// 1 against an older one (whose unknown_op error is swallowed — the
  /// connection stays usable for v1). Throws only on transport failure.
  unsigned negotiate(unsigned max_version = 2);
  /// The negotiated version: 1 until negotiate() succeeds with 2.
  unsigned protocol() const { return protocol_; }
  /// True once negotiate() ran on this connection (either outcome).
  bool negotiated() const { return negotiated_; }

  /// Pipelining primitives: queue one v2 request frame (returns its
  /// request id) / read one v2 response frame, in server completion
  /// order. Any number of requests may be in flight; match responses to
  /// requests by V2Response::request_id. Loop-free code that wants one
  /// round-trip can use request_v2() below.
  struct V2Response {
    v2::Op op;
    std::uint32_t request_id = 0;
    bool ok = false;
    std::string body;  ///< v1 JSON response bytes, or cache_get body
  };
  std::uint32_t send_v2(v2::Op op, std::string_view body);
  V2Response recv_v2();

  /// Batch pipelined sends: while enabled, send_v2 appends frames to an
  /// outbound buffer instead of hitting the socket, and the buffer is
  /// flushed in one send by recv_v2()/flush_v2() (or when it grows past
  /// an internal bound). Turns a 64-deep pipeline from 64 syscalls into
  /// one on each side — the difference BM_ServeHit measures. Off by
  /// default; sticky across reconnects. While a fault injector is
  /// active, sends fall back to per-frame write_frame so injected
  /// drops/truncations keep their exact semantics.
  void set_pipelining(bool on);
  bool pipelining() const { return pipelining_; }
  /// Flush any batched-but-unsent request frames now.
  void flush_v2();

  /// One v2 round-trip for a JSON-bodied op (submit/result/stats): body
  /// is the v1 request JSON, the v1 response JSON comes back as sent.
  /// Must not be called with other requests in flight.
  std::string request_v2_raw(v2::Op op, const std::string& body);

  /// As request_v2_raw, with the response parsed.
  json::Value request_v2(v2::Op op, const std::string& body);

  /// One binary cache_get round-trip: true plus the encoded cache
  /// record on a hit. Must not be called with other requests in flight.
  bool cache_get_v2(const Hash128& key, std::string* record);

 private:
  /// Buffered frame reader shared by every response path: recv() in
  /// large chunks, carve frames out of rbuf_. Over-reading is safe —
  /// the surplus belongs to later responses on this same connection.
  bool read_frame_buffered(std::string& payload);
  bool fill_rbuf();  ///< one timed recv; false on clean peer close

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  std::uint64_t connect_timeout_ms_ = 0;
  std::uint64_t frame_timeout_ms_ = 0;
  unsigned protocol_ = 1;          ///< negotiated wire version
  bool negotiated_ = false;        ///< hello already exchanged
  bool pipelining_ = false;        ///< batch send_v2 frames (flush_v2)
  std::uint32_t next_request_id_ = 1;
  std::string obuf_;               ///< framed requests awaiting one send
  std::string rbuf_;               ///< receive buffer; [0, rlen_) is filled
  std::size_t rlen_ = 0;           ///< bytes received into rbuf_
  std::size_t rpos_ = 0;           ///< parse cursor into rbuf_
  Rng retry_rng_{0x6d617363'72747279ULL};  // jitter stream; see RetryPolicy
};

}  // namespace masc::serve
