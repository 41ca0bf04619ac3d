#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "fault/fault.hpp"

namespace masc::serve {

namespace {

/// Closes the owned fd on every exit path unless release()d — keeps
/// connect() leak-free no matter which step throws.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

}  // namespace

std::uint64_t backoff_delay_ms(const RetryPolicy& policy, unsigned attempt,
                               std::uint64_t hint_ms, Rng& rng) {
  // base·2^attempt, saturating at max_ms (and guarding the shift).
  std::uint64_t cap = policy.max_ms;
  if (attempt < 63) {
    const std::uint64_t growth = policy.base_ms << attempt;
    const bool overflow = policy.base_ms != 0 && (growth >> attempt) != policy.base_ms;
    if (!overflow && growth < cap) cap = growth;
  }
  // Jitter into [cap/2, cap]: enough spread to decorrelate a thundering
  // herd, while keeping the exponential envelope testable.
  std::uint64_t delay = cap;
  if (cap > 1) delay = cap / 2 + rng.next_below(cap - cap / 2 + 1);
  // Never retry before the server said there would be room.
  return std::max(delay, hint_ms);
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      host_(std::move(other.host_)),
      port_(other.port_),
      connect_timeout_ms_(other.connect_timeout_ms_),
      frame_timeout_ms_(other.frame_timeout_ms_),
      protocol_(other.protocol_),
      negotiated_(other.negotiated_),
      pipelining_(other.pipelining_),
      next_request_id_(other.next_request_id_),
      obuf_(std::move(other.obuf_)),
      rbuf_(std::move(other.rbuf_)),
      rlen_(other.rlen_),
      rpos_(other.rpos_),
      retry_rng_(other.retry_rng_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    host_ = std::move(other.host_);
    port_ = other.port_;
    connect_timeout_ms_ = other.connect_timeout_ms_;
    frame_timeout_ms_ = other.frame_timeout_ms_;
    protocol_ = other.protocol_;
    negotiated_ = other.negotiated_;
    pipelining_ = other.pipelining_;
    next_request_id_ = other.next_request_id_;
    obuf_ = std::move(other.obuf_);
    rbuf_ = std::move(other.rbuf_);
    rlen_ = other.rlen_;
    rpos_ = other.rpos_;
    retry_rng_ = other.retry_rng_;
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port,
                     std::uint64_t timeout_ms) {
  close();
  host_ = host;
  port_ = port;
  connect_timeout_ms_ = timeout_ms;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve (permits "localhost").
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || !res)
      throw ServeError("cannot resolve host \"" + host + "\"");
    addr.sin_addr =
        reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }

  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0)
    throw ServeError(std::string("socket: ") + std::strerror(errno));

  if (timeout_ms == 0) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0)
      throw ServeError("connect " + host + ":" + std::to_string(port) + ": " +
                       std::strerror(errno));
    set_nodelay(fd.get());
    fd_ = fd.release();
    return;
  }

  // Timed connect: non-blocking connect, poll for writability, read the
  // deferred status via SO_ERROR, then restore blocking mode.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) < 0)
    throw ServeError(std::string("fcntl: ") + std::strerror(errno));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    if (errno != EINPROGRESS)
      throw ServeError("connect " + host + ":" + std::to_string(port) + ": " +
                       std::strerror(errno));
    pollfd p{};
    p.fd = fd.get();
    p.events = POLLOUT;
    int rc;
    do {
      rc = ::poll(&p, 1, static_cast<int>(timeout_ms));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0)
      throw ServeTimeout("connect " + host + ":" + std::to_string(port) +
                         ": timed out after " + std::to_string(timeout_ms) +
                         " ms");
    if (rc < 0) throw ServeError(std::string("poll: ") + std::strerror(errno));
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0)
      throw ServeError("connect " + host + ":" + std::to_string(port) + ": " +
                       std::strerror(err ? err : errno));
  }
  if (::fcntl(fd.get(), F_SETFL, flags) < 0)
    throw ServeError(std::string("fcntl: ") + std::strerror(errno));
  set_nodelay(fd.get());
  fd_ = fd.release();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // A fresh connection starts at v1 until hello says otherwise.
  protocol_ = 1;
  negotiated_ = false;
  next_request_id_ = 1;
  obuf_.clear();
  rlen_ = 0;
  rpos_ = 0;
}

bool Client::fill_rbuf() {
  if (frame_timeout_ms_ != 0) {
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    int rc;
    do {
      rc = ::poll(&p, 1, static_cast<int>(frame_timeout_ms_));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0)
      throw ServeTimeout("recv: timed out after " +
                         std::to_string(frame_timeout_ms_) + " ms");
    if (rc < 0) throw ServeError(std::string("poll: ") + std::strerror(errno));
  }
  // The buffer only ever grows: its bytes past rlen_ are scratch space,
  // so a steady stream of small responses never pays a resize (which
  // would zero-fill a whole chunk per read).
  constexpr std::size_t kChunk = 128u << 10;
  if (rbuf_.size() - rlen_ < kChunk) rbuf_.resize(rlen_ + kChunk);
  ssize_t n;
  do {
    n = ::recv(fd_, rbuf_.data() + rlen_, rbuf_.size() - rlen_, 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return false;  // peer closed
  if (n < 0) throw ServeError(std::string("recv: ") + std::strerror(errno));
  rlen_ += static_cast<std::size_t>(n);
  return true;
}

bool Client::read_frame_buffered(std::string& payload) {
  const auto have = [&] { return rlen_ - rpos_; };
  while (have() < 4) {
    if (!fill_rbuf()) {
      if (have() == 0) return false;  // clean close between frames
      throw ServeError("truncated frame header");
    }
  }
  const auto* h = reinterpret_cast<const unsigned char*>(rbuf_.data() + rpos_);
  const std::size_t len = (static_cast<std::size_t>(h[0]) << 24) |
                          (static_cast<std::size_t>(h[1]) << 16) |
                          (static_cast<std::size_t>(h[2]) << 8) |
                          static_cast<std::size_t>(h[3]);
  if (len > kMaxFrameBytes)
    throw ServeError("frame exceeds " + std::to_string(kMaxFrameBytes) +
                     " bytes");
  while (have() < 4 + len) {
    if (!fill_rbuf()) throw ServeError("truncated frame payload");
  }
  payload.assign(rbuf_, rpos_ + 4, len);
  rpos_ += 4 + len;
  // Compact once everything buffered has been consumed (the common
  // case) or when the dead prefix gets large.
  if (rpos_ == rlen_) {
    rlen_ = 0;
    rpos_ = 0;
  } else if (rpos_ > (1u << 20)) {
    std::memmove(rbuf_.data(), rbuf_.data() + rpos_, rlen_ - rpos_);
    rlen_ -= rpos_;
    rpos_ = 0;
  }
  return true;
}

std::string Client::request_raw(const std::string& payload) {
  if (fd_ < 0) throw ServeError("client not connected");
  flush_v2();  // preserve send order behind any batched v2 frames
  write_frame(fd_, payload, frame_timeout_ms_);
  std::string response;
  if (!read_frame_buffered(response))
    throw ServeError("server closed the connection");
  return response;
}

json::Value Client::request(const std::string& payload) {
  return parse_json(request_raw(payload));
}

unsigned Client::negotiate(unsigned max_version) {
  negotiated_ = true;
  if (max_version < 2) return protocol_ = 1;
  // An old server answers hello with an unknown_op error — that leaves
  // the connection perfectly usable, it just means v1.
  const json::Value resp =
      request("{\"op\":\"hello\",\"versions\":[1,2]}");
  if (resp.get_bool("ok", false) && resp.get_uint("version", 1) >= 2)
    protocol_ = 2;
  else
    protocol_ = 1;
  return protocol_;
}

void Client::set_pipelining(bool on) {
  if (!on && fd_ >= 0) flush_v2();
  pipelining_ = on;
}

void Client::flush_v2() {
  if (obuf_.empty()) return;
  write_buffer(fd_, obuf_, frame_timeout_ms_);
  obuf_.clear();
}

std::uint32_t Client::send_v2(v2::Op op, std::string_view body) {
  if (fd_ < 0) throw ServeError("client not connected");
  const std::uint32_t id = next_request_id_++;
  const std::string msg = v2::encode(op, v2::Kind::kRequest, id, body);
  if (!pipelining_ || fault::active()) {
    // Per-frame sends: the plain path, and the only one an installed
    // fault injector sees (drops/truncations stay frame-accurate).
    flush_v2();
    write_frame(fd_, msg, frame_timeout_ms_);
  } else {
    append_frame(obuf_, msg);
    constexpr std::size_t kFlushBytes = 256u << 10;
    if (obuf_.size() >= kFlushBytes) flush_v2();
  }
  return id;
}

Client::V2Response Client::recv_v2() {
  if (fd_ < 0) throw ServeError("client not connected");
  flush_v2();
  std::string payload;
  if (!read_frame_buffered(payload))
    throw ServeError("server closed the connection");
  if (!v2::is_v2(payload))
    throw ServeError("expected a v2 frame, got a v1 payload");
  const v2::Frame f = v2::decode(payload);
  V2Response r;
  r.op = f.op;
  r.request_id = f.request_id;
  r.ok = f.kind == v2::Kind::kOk;
  r.body.assign(f.body.data(), f.body.size());
  return r;
}

std::string Client::request_v2_raw(v2::Op op, const std::string& body) {
  const std::uint32_t id = send_v2(op, body);
  V2Response r = recv_v2();
  if (r.request_id != id)
    throw ServeError("v2 response id mismatch (pipelining misuse)");
  return std::move(r.body);
}

json::Value Client::request_v2(v2::Op op, const std::string& body) {
  return parse_json(request_v2_raw(op, body));
}

bool Client::cache_get_v2(const Hash128& key, std::string* record) {
  const std::uint32_t id = send_v2(
      v2::Op::kCacheGet,
      std::string_view(v2::encode_cache_get_request(0, key)).substr(
          v2::kHeaderBytes));
  const V2Response r = recv_v2();
  if (r.request_id != id)
    throw ServeError("v2 response id mismatch (pipelining misuse)");
  if (!r.ok) {
    const json::Value err = parse_json(r.body);
    throw ServeError("cache_get failed: " +
                     err.get_string("error", "unknown"));
  }
  return v2::decode_cache_get_response(r.body, r.request_id, record);
}

json::Value Client::request_with_retry(const std::string& payload,
                                       const RetryPolicy& policy,
                                       std::string* raw) {
  // A non-zero policy seed pins the jitter stream (reproducible tests);
  // seed 0 draws from the client's ongoing stream.
  Rng seeded(policy.seed);
  Rng& rng = policy.seed != 0 ? seeded : retry_rng_;
  const unsigned attempts = std::max(policy.max_attempts, 1u);
  for (unsigned attempt = 0;; ++attempt) {
    std::uint64_t hint_ms = 0;
    try {
      if (!connected()) {
        if (host_.empty()) throw ServeError("client was never connected");
        connect(host_, port_, connect_timeout_ms_);
      }
      std::string bytes = request_raw(payload);
      json::Value resp = parse_json(bytes);
      if (raw) *raw = std::move(bytes);
      const bool retryable_reject =
          !resp.get_bool("ok", true) &&
          resp.get_string("error", "") == "queue_full";
      if (!retryable_reject) return resp;
      if (attempt + 1 >= attempts) return resp;  // hand the caller the error
      hint_ms = resp.get_uint("retry_after_ms", 0);
    } catch (const ServeError&) {
      // Transport failure: the connection is suspect either way.
      close();
      if (attempt + 1 >= attempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        backoff_delay_ms(policy, attempt, hint_ms, rng)));
  }
}

}  // namespace masc::serve
