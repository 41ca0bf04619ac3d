#include "serve/front_end.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <sstream>
#include <utility>

#include "common/base64.hpp"
#include "serve/protocol.hpp"

namespace masc::serve {

std::string error_json(const std::string& code, const std::string& detail,
                       const std::string& extra) {
  std::ostringstream os;
  os << "{\"ok\":false,\"error\":\"" << json_escape(code) << "\"";
  if (!detail.empty()) os << ",\"detail\":\"" << json_escape(detail) << "\"";
  if (!extra.empty()) os << "," << extra;
  os << "}";
  return os.str();
}

std::uint64_t require_id(const json::Value& req) {
  const json::Value* id = req.find("id");
  if (!id) throw JsonError("missing \"id\"");
  return id->as_uint();
}

std::string submitted_json(const std::vector<std::uint64_t>& ids,
                           bool duplicate) {
  std::ostringstream os;
  os << "{\"ok\":true,\"type\":\"submitted\",\"ids\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) os << ",";
    os << ids[i];
  }
  os << "],\"duplicate\":" << (duplicate ? "true" : "false") << "}";
  return os.str();
}

namespace {
constexpr std::string_view kResultHead =
    "{\"ok\":true,\"type\":\"result\",\"id\":";
constexpr std::string_view kResultMid = ",\"result\":";
}  // namespace

std::string result_answer(std::uint64_t id, std::string_view body) {
  const std::string ids = std::to_string(id);
  std::string out;
  out.reserve(kResultHead.size() + ids.size() + kResultMid.size() +
              body.size() + 1);
  out.append(kResultHead).append(ids).append(kResultMid).append(body);
  out += '}';
  return out;
}

std::string_view result_answer_body(std::string_view answer) {
  if (!answer.starts_with(kResultHead) || !answer.ends_with('}')) return {};
  std::size_t i = kResultHead.size();
  while (i < answer.size() && answer[i] >= '0' && answer[i] <= '9') ++i;
  if (i == kResultHead.size() || !answer.substr(i).starts_with(kResultMid))
    return {};
  i += kResultMid.size();
  return answer.substr(i, answer.size() - 1 - i);
}

const json::Value& Request::body() const {
  if (!body_) body_ = parse_json(text.empty() ? "{}" : text);
  return *body_;
}

namespace {

/// The "op" member of a request, read without parsing the rest of it
/// when it is a plain string; otherwise through the full parse, which
/// refuses malformed text.
std::string op_of(const Request& req) {
  const std::string_view op = json::member_text(req.text, "op");
  if (op.size() >= 2 && op.front() == '"' && op.back() == '"' &&
      op.find_first_of("\\\"", 1) == op.size() - 1)
    return std::string(op.substr(1, op.size() - 2));
  return req.body().get_string("op", "");
}

/// Per-connection protocol state, attached to net::Conn::ctx. v1
/// responses go out strictly in request order (slots); v2 responses are
/// written as they complete and matched by request id.
struct ConnState {
  std::deque<std::pair<std::uint64_t, std::optional<std::string>>> v1_q;
  std::uint64_t next_slot = 1;
};

ConnState& conn_state(net::Conn& c) {
  if (!c.ctx) c.ctx = std::make_shared<ConnState>();
  return *static_cast<ConnState*>(c.ctx.get());
}

/// Fill `slot` and flush every in-order response now available: a
/// parked request holds later (already answered) ones back until it
/// resolves.
void send_v1(net::Conn& c, std::uint64_t slot, std::string&& resp) {
  ConnState& st = conn_state(c);
  for (auto& [s, r] : st.v1_q)
    if (s == slot) {
      r = std::move(resp);
      break;
    }
  while (!st.v1_q.empty() && st.v1_q.front().second) {
    c.send_frame(*st.v1_q.front().second);
    st.v1_q.pop_front();
    if (c.closing()) return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Reply

void Reply::send(std::string response) const {
  // The exact v1 response bytes inside a v2 envelope, so v2 results are
  // bit-identical to v1 by construction.
  if (v2_)
    response = v2::encode(
        op_, v2::is_error_body(response) ? v2::Kind::kError : v2::Kind::kOk,
        v2_id_, response);
  deliver(std::move(response));
}

void Reply::send_cache_record(std::optional<std::string> record) const {
  // The fully binary op on v2 (docs/NET.md "cache_get"); JSON with a
  // base64 payload on v1 and in a v2 json-op envelope.
  if (v2_ && op_ == v2::Op::kCacheGet)
    return deliver(record ? v2::encode_cache_get_hit(v2_id_, *record)
                          : v2::encode_cache_get_miss(v2_id_));
  send(record ? "{\"ok\":true,\"type\":\"cache_get\",\"found\":true,"
                "\"payload\":\"" + base64_encode(*record) + "\"}"
              : "{\"ok\":true,\"type\":\"cache_get\",\"found\":false}");
}

void Reply::close() const { deliver(std::nullopt); }

void Reply::deliver(std::optional<std::string> out) const {
  auto write = [r = *this, out = std::move(out)]() mutable {
    net::Conn* c = r.loop_->find(r.conn_id_);
    if (c == nullptr) return;  // the client hung up meanwhile
    if (!out)
      c->close();
    else if (r.v2_)
      c->send_frame(*out);
    else
      send_v1(*c, r.v1_slot_, std::move(*out));
  };
  if (loop_->on_loop_thread())
    write();
  else
    loop_->post(std::move(write));
}

// ---------------------------------------------------------------------------
// FrontEnd

FrontEnd::FrontEnd(std::uint16_t port, unsigned io_threads,
                   std::uint64_t idle_timeout_ms, std::uint64_t io_timeout_ms,
                   Handler handler, CloseHandler on_close)
    : port_(port), handler_(std::move(handler)), on_close_(std::move(on_close)) {
  net::LoopConfig cfg;
  cfg.idle_timeout_ms = idle_timeout_ms;
  cfg.frame_timeout_ms = io_timeout_ms;
  cfg.max_frame_bytes = kMaxFrameBytes;
  cfg.on_frame = [this](net::Conn& c, std::string&& payload) {
    on_frame(c, std::move(payload));
  };
  if (on_close_)
    cfg.on_close = [this](net::Conn& c) { on_close_(c.loop(), c.id()); };
  loops_ = std::make_unique<net::LoopGroup>(io_threads ? io_threads : 1, cfg);
}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw ServeError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServeError("bind/listen 127.0.0.1:" + std::to_string(port_) + ": " +
                     what);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // Loops before the acceptor: a connection accepted first must have a
  // loop to land on.
  loops_->start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FrontEnd::stop_accepting() {
  // Unblocks accept(); a connection accepted just before lands on a loop
  // and is hung up when the loops stop.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
}

void FrontEnd::stop() {
  stop_accepting();
  loops_->stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FrontEnd::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal) — stop accepting
    }
    set_nodelay(fd);
    loops_->next().adopt(fd);
  }
}

void FrontEnd::on_frame(net::Conn& c, std::string&& payload) {
  Reply reply;
  reply.loop_ = &c.loop();
  reply.conn_id_ = c.id();
  Request req;
  bool json_text = true;  // false for the fully binary cache_get
  if (v2::is_v2(payload)) {
    reply.v2_ = true;
    try {
      const v2::Frame f = v2::decode(payload);
      reply.op_ = f.op;
      reply.v2_id_ = f.request_id;
      if (f.kind != v2::Kind::kRequest)
        return reply.send(error_json("bad_frame", "expected a request frame"));
      switch (f.op) {
        case v2::Op::kSubmit: req.op = "submit"; break;
        case v2::Op::kResult: req.op = "result"; break;
        case v2::Op::kStats: req.op = "stats"; break;
        case v2::Op::kJson: break;  // the body's "op" names it
        case v2::Op::kCacheGet:
          req.op = "cache_get";
          req.key = v2::decode_cache_get_key(f.body, f.request_id);
          json_text = false;
          break;
      }
      if (json_text) req.text = std::string(f.body);
    } catch (const v2::V2Error& e) {
      if (e.fatal()) return c.close();  // the stream can't be trusted
      reply.op_ = static_cast<v2::Op>(static_cast<std::uint8_t>(payload[2]));
      reply.v2_id_ = e.request_id();
      return reply.send(error_json(e.code(), e.what()));
    }
  } else {
    ConnState& st = conn_state(c);
    reply.v1_slot_ = st.next_slot++;
    st.v1_q.emplace_back(reply.v1_slot_, std::nullopt);
    req.text = std::move(payload);
  }
  // A ServeError (transport failure or an injected frame fault) drops
  // the connection: the stream may be desynced. Anything else — a
  // JsonError, ConfigError, AssemblyError... — means the request was
  // ill-formed but the connection is fine: answer bad_request.
  // The JSON is parsed only where it is read: the handler decides.
  reply.answer([&]() -> std::optional<std::string> {
    if (json_text) {
      if (req.op.empty()) req.op = op_of(req);
      if (req.op == "cache_get" &&
          !hash128_from_hex(req.body().get_string("key", ""), req.key))
        throw JsonError("cache_get needs a 32-hex-digit \"key\"");
      // The ops answered here refuse malformed text like every other op.
      if (req.op == "ping" || req.op == "hello" || req.op == "shutdown")
        req.body();
    }
    if (req.op == "ping") return "{\"ok\":true,\"type\":\"pong\"}";
    if (req.op == "hello") {
      // Version negotiation (docs/NET.md "Negotiation"): the highest
      // version both sides speak. v2 frames are accepted regardless —
      // hello is how a *client* learns it may send them.
      unsigned best = 1;
      if (const json::Value* v = req.body().find("versions");
          v && v->is_array())
        for (const auto& e : v->as_array())
          if (e.is_number() && e.as_uint() == 2) best = 2;
      return "{\"ok\":true,\"type\":\"hello\",\"version\":" +
             std::to_string(best) + ",\"versions\":[1,2]}";
    }
    if (req.op == "shutdown") {
      // The embedding program notices and stops the daemon.
      shutdown_requested_.store(true, std::memory_order_release);
      return "{\"ok\":true,\"type\":\"shutdown\"}";
    }
    return handler_(std::move(req), reply);
  });
}

}  // namespace masc::serve
