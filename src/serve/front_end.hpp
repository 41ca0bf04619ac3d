// The session front end both daemons run on (docs/NET.md "Front end"):
// everything between the listening socket and a decoded request — the
// accept thread, the LoopGroup, the v1/v2 demux, v1 response ordering,
// `hello`, `ping` and `shutdown`. A daemon supplies one op handler, which
// completes each request's Reply inline or later from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "net/event_loop.hpp"
#include "serve/framing.hpp"
#include "serve/protocol_v2.hpp"

namespace masc::serve {

// --- reply helpers shared by both daemons -----------------------------------

/// {"ok":false,"error":code[,"detail":detail][,extra]}
std::string error_json(const std::string& code, const std::string& detail,
                       const std::string& extra = "");
/// The request's "id" member; throws JsonError when absent.
std::uint64_t require_id(const json::Value& req);
/// {"ok":true,"type":"submitted","ids":[...],"duplicate":b}
std::string submitted_json(const std::vector<std::uint64_t>& ids,
                           bool duplicate);
/// {"ok":true,"type":"result","id":id,"result":body}: the answer to a
/// result request for a finished job.
std::string result_answer(std::uint64_t id, std::string_view body);
/// The body of an answer result_answer() rendered, found by its fixed
/// prefix without parsing; empty for any other answer.
std::string_view result_answer_body(std::string_view answer);

/// One decoded client request. Its JSON is parsed on first use, so a
/// handler that forwards the text never pays for a parse.
struct Request {
  /// The op: a v2 header's op wins over the JSON "op" member.
  std::string op;
  /// The v1 JSON request (or v2 body) as it arrived; empty for a binary
  /// cache_get.
  std::string text;
  /// cache_get only: the key, from either wire form.
  Hash128 key{};

  /// `text` parsed ("{}" when empty), on the first call. Throws
  /// JsonError when it is malformed.
  const json::Value& body() const;

 private:
  mutable std::optional<json::Value> body_;
};

/// Completion handle for one request: where its response must go. Cheap
/// to copy; complete it exactly once (send, send_cache_record or close),
/// inline or later from any thread. A response for a connection that
/// died meanwhile is dropped silently.
class Reply {
 public:
  /// Deliver a v1 JSON response: in request order on a v1 connection,
  /// in a v2 envelope (error kind for {"ok":false...}) on a v2 one. On
  /// the owning loop's thread it is written at once; elsewhere it is
  /// posted to that loop.
  void send(std::string response) const;
  /// Answer a cache_get: the encoded cache record, or nullopt for a
  /// miss. The binary v2 op gets the binary body, anything else the
  /// JSON+base64 form.
  void send_cache_record(std::optional<std::string> record) const;
  /// Drop the connection (a transport-level failure mid-request).
  void close() const;

  /// send(fn()), except that a ServeError drops the connection and any
  /// other exception answers bad_request — the rule for every handler.
  /// `fn` may return std::optional<std::string>: nullopt means it parked
  /// this reply, to be completed later.
  template <typename Fn>
  void answer(Fn&& fn) const {
    std::optional<std::string> resp;
    try {
      resp = fn();
    } catch (const ServeError&) {
      close();
      return;
    } catch (const std::exception& e) {
      resp = error_json("bad_request", e.what());
    }
    if (resp) send(std::move(*resp));
  }

  net::EventLoop& loop() const { return *loop_; }
  std::uint64_t conn_id() const { return conn_id_; }

 private:
  friend class FrontEnd;
  /// Write `out` (a v2 frame, or a v1 response in its slot) on the
  /// owning loop; nullopt closes the connection.
  void deliver(std::optional<std::string> out) const;

  net::EventLoop* loop_ = nullptr;
  std::uint64_t conn_id_ = 0;
  bool v2_ = false;
  v2::Op op_ = v2::Op::kSubmit;  ///< v2: op to answer with
  std::uint32_t v2_id_ = 0;      ///< v2: request id to echo
  std::uint64_t v1_slot_ = 0;    ///< v1: ordered-response slot
};

class FrontEnd {
 public:
  /// Called on the loop thread for every request the front end does not
  /// answer itself: returns the response, or nullopt when it completes
  /// `reply` itself (now or later). Throwing follows Reply::answer.
  using Handler =
      std::function<std::optional<std::string>(Request&&, const Reply&)>;
  /// A client connection is going away (loop thread).
  using CloseHandler = std::function<void(net::EventLoop&, std::uint64_t)>;

  /// Sessions on 127.0.0.1:`port` (0 = ephemeral, see port()), spread
  /// over `io_threads` loops (0 = 1). A session is reaped after
  /// `idle_timeout_ms` without a request frame, or `io_timeout_ms`
  /// without progress mid-frame (0 = never).
  FrontEnd(std::uint16_t port, unsigned io_threads,
           std::uint64_t idle_timeout_ms, std::uint64_t io_timeout_ms,
           Handler handler, CloseHandler on_close = {});
  ~FrontEnd();  ///< calls stop()

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Bind, listen, start the loops and then the accept thread. Throws
  /// ServeError if the port cannot be bound.
  void start();
  /// Refuse new connections and join the accept thread. Idempotent.
  void stop_accepting();
  /// stop_accepting(), then stop the loops: every connection gets its
  /// close callback and the loop threads join. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }
  net::LoopGroup& loops() { return *loops_; }
  /// True once a client has sent {"op":"shutdown"}.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

 private:
  void accept_loop();
  void on_frame(net::Conn& c, std::string&& payload);

  std::uint16_t port_;  ///< as asked, then as bound
  Handler handler_;
  CloseHandler on_close_;
  std::unique_ptr<net::LoopGroup> loops_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace masc::serve
