#include "serve/protocol_v2.hpp"

namespace masc::serve::v2 {

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint64_t>(p[i]);
  return v;
}

}  // namespace

std::string encode(Op op, Kind kind, std::uint32_t request_id,
                   std::string_view body) {
  std::string out;
  out.reserve(kHeaderBytes + body.size());
  out.push_back(static_cast<char>(kMagic));
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(op));
  out.push_back(static_cast<char>(kind));
  put_u32le(out, request_id);
  out.append(body.data(), body.size());
  return out;
}

Frame decode(std::string_view payload) {
  if (payload.size() < kHeaderBytes)
    throw V2Error("bad_frame", "v2 header truncated", /*is_fatal=*/true, 0);
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(payload.data());
  const std::uint32_t id = get_u32le(p + 4);
  if (p[0] != kMagic)
    throw V2Error("bad_frame", "bad v2 magic", /*is_fatal=*/true, 0);
  if (p[1] != kVersion)
    throw V2Error("bad_version",
                  "unsupported protocol version " + std::to_string(p[1]),
                  /*is_fatal=*/false, id);
  if (p[3] > 2)
    throw V2Error("bad_frame", "unknown v2 message kind",
                  /*is_fatal=*/false, id);
  // Error frames echo the offending request's op byte verbatim — which
  // may be exactly what was wrong with it — so only validate the op
  // range on request/ok frames.
  if ((p[2] < 1 || p[2] > 5) && p[3] != static_cast<unsigned char>(Kind::kError))
    throw V2Error("unknown_op", "unknown v2 op " + std::to_string(p[2]),
                  /*is_fatal=*/false, id);
  Frame f;
  f.op = static_cast<Op>(p[2]);
  f.kind = static_cast<Kind>(p[3]);
  f.request_id = id;
  f.body = payload.substr(kHeaderBytes);
  return f;
}

std::string encode_cache_get_request(std::uint32_t request_id,
                                     const Hash128& key) {
  std::string body;
  body.reserve(16);
  put_u64le(body, key.hi);
  put_u64le(body, key.lo);
  return encode(Op::kCacheGet, Kind::kRequest, request_id, body);
}

Hash128 decode_cache_get_key(std::string_view body,
                             std::uint32_t request_id) {
  if (body.size() != 16)
    throw V2Error("bad_request", "cache_get body must be 16 key bytes",
                  /*is_fatal=*/false, request_id);
  const unsigned char* p = reinterpret_cast<const unsigned char*>(body.data());
  Hash128 key;
  key.hi = get_u64le(p);
  key.lo = get_u64le(p + 8);
  return key;
}

std::string encode_cache_get_hit(std::uint32_t request_id,
                                 std::string_view record) {
  std::string body;
  body.reserve(1 + record.size());
  body.push_back(static_cast<char>(1));
  body.append(record.data(), record.size());
  return encode(Op::kCacheGet, Kind::kOk, request_id, body);
}

std::string encode_cache_get_miss(std::uint32_t request_id) {
  std::string body(1, static_cast<char>(0));
  return encode(Op::kCacheGet, Kind::kOk, request_id, body);
}

bool decode_cache_get_response(std::string_view body,
                               std::uint32_t request_id, std::string* record) {
  if (body.empty())
    throw V2Error("bad_frame", "cache_get response body empty",
                  /*is_fatal=*/false, request_id);
  if (body[0] == 0) return false;
  if (record) record->assign(body.data() + 1, body.size() - 1);
  return true;
}

}  // namespace masc::serve::v2
