// Protocol v2: the negotiated binary envelope for the hot wire ops
// (docs/NET.md "Protocol v2").
//
// A v2 message still travels inside the ordinary 4-byte big-endian
// outer length framing from serve/framing.hpp — v2 changes the payload,
// not the transport — so every existing frame reader, fault injector,
// and size cap keeps working unchanged. Inside the payload:
//
//   offset  size  field
//   0       1     magic 0xB2 (never a JSON start byte; '{' = 0x7B
//                 means the payload is a v1 JSON message)
//   1       1     version (2)
//   2       1     op: 1 submit, 2 result, 3 stats, 4 cache_get,
//                 5 json (any other op, named by its JSON "op")
//   3       1     kind: 0 request, 1 ok-response, 2 error-response
//   4       4     request id, little-endian (echoed in the response;
//                 responses to pipelined requests may arrive out of
//                 order and are matched by this id)
//   8       ...   body (op-specific, see below)
//
// Bodies are raw blobs, never base64:
//   submit/result/stats/json req — the v1 JSON request object, verbatim
//   submit/result/stats/json ok  — the v1 JSON response, verbatim
//                                  (bit-identical to what the same
//                                  request would get over v1)
//   any error-response           — the v1 error JSON, verbatim
//   cache_get request            — 16 bytes: key.hi u64le, key.lo u64le
//   cache_get ok                 — 1 byte found (0/1), then the encoded
//                                  cache record bytes when found
//
// Negotiation: a client sends the v1 JSON op `hello` listing the
// versions it speaks; the server answers with the highest version both
// sides share. The server accepts v2 frames at any time regardless
// (frames are self-describing by first byte); hello exists so a client
// can discover whether v2 is safe to send. Unknown ops / versions
// produce an in-band error, never a dropped connection — only a
// malformed header (shorter than 8 bytes) drops it, because the stream
// can no longer be trusted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.hpp"
#include "serve/framing.hpp"

namespace masc::serve::v2 {

inline constexpr unsigned char kMagic = 0xB2;
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 8;

enum class Op : std::uint8_t {
  kSubmit = 1,
  kResult = 2,
  kStats = 3,
  kCacheGet = 4,
  /// Any v1 JSON request (status, cancel, extend...), dispatched by its
  /// "op" member and answered exactly as over v1.
  kJson = 5,
};

enum class Kind : std::uint8_t {
  kRequest = 0,
  kOk = 1,
  kError = 2,
};

/// Decoded view of one v2 message; `body` aliases the source payload.
struct Frame {
  Op op;
  Kind kind;
  std::uint32_t request_id;
  std::string_view body;
};

/// Raised by decode() on a payload that starts with kMagic but cannot
/// be accepted. `fatal` means the header itself was malformed and the
/// connection should be dropped; otherwise the peer deserves an in-band
/// error response carrying `code` and echoing `request_id` (0 when the
/// id was unreadable).
class V2Error : public ServeError {
 public:
  V2Error(std::string code, const std::string& detail, bool is_fatal,
          std::uint32_t id)
      : ServeError(detail), code_(std::move(code)), fatal_(is_fatal),
        request_id_(id) {}
  const std::string& code() const { return code_; }
  bool fatal() const { return fatal_; }
  std::uint32_t request_id() const { return request_id_; }

 private:
  std::string code_;
  bool fatal_;
  std::uint32_t request_id_;
};

/// First-byte discrimination: does this payload carry a v2 header?
inline bool is_v2(std::string_view payload) {
  return !payload.empty() &&
         static_cast<unsigned char>(payload[0]) == kMagic;
}

/// Build one v2 message (header + body).
std::string encode(Op op, Kind kind, std::uint32_t request_id,
                   std::string_view body);

/// Parse and validate a v2 header. Throws V2Error (see above). Only
/// call after is_v2() returned true.
Frame decode(std::string_view payload);

// --- cache_get bodies (the fully binary op) --------------------------------

std::string encode_cache_get_request(std::uint32_t request_id,
                                     const Hash128& key);
/// Throws V2Error (non-fatal) when the body is not exactly 16 bytes.
Hash128 decode_cache_get_key(std::string_view body, std::uint32_t request_id);

std::string encode_cache_get_hit(std::uint32_t request_id,
                                 std::string_view record);
std::string encode_cache_get_miss(std::uint32_t request_id);
/// Returns true (and fills `record`) on a hit body, false on a miss
/// body; throws V2Error on an empty/garbled body.
bool decode_cache_get_response(std::string_view body, std::uint32_t request_id,
                               std::string* record);

/// Both daemons generate success bodies starting `{"ok":true` and error
/// bodies starting `{"ok":false`; this classifies a v1 response string
/// so it can be wrapped in the right v2 response kind.
inline bool is_error_body(std::string_view v1_response) {
  return v1_response.rfind("{\"ok\":false", 0) == 0;
}

}  // namespace masc::serve::v2
