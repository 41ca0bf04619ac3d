// Epoll-based nonblocking event core for the serve path (docs/NET.md).
//
// One EventLoop owns one epoll fd, a wakeup eventfd for cross-thread
// post(), a TimerWheel, and a set of Conn objects. A Conn buffers
// nonblocking reads until complete length-prefixed frames appear (the
// same 4-byte big-endian framing as serve/framing.hpp) and buffers
// writes until the socket drains, so handler code never blocks on I/O.
//
// Threading contract:
//   - run() executes on exactly one thread (the "loop thread").
//   - Conn methods, find(), and timer methods are loop-thread only.
//   - post(), adopt(), stop() and on_loop_thread() are safe from any
//     thread; post() is how job completions re-enter the loop
//     ("wakeup fd for cross-thread job-completion posts").
//   - Conns are referred to across threads by (loop, conn id), never by
//     pointer: a posted task re-looks the id up and quietly does
//     nothing when the conn died in between.
//
// This library sits *below* serve/: it knows about frames, fault
// injection, and timeouts, but nothing about JSON or protocol ops.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/timer_wheel.hpp"

namespace masc::net {

class EventLoop;
class Conn;

using FrameFn = std::function<void(Conn&, std::string&&)>;
using ConnFn = std::function<void(Conn&)>;

/// One buffered nonblocking connection, owned by its EventLoop.
class Conn {
 public:
  std::uint64_t id() const { return id_; }
  int fd() const { return fd_; }
  EventLoop& loop() { return *loop_; }

  /// Queue one length-prefixed frame and flush as far as the socket
  /// allows. Honours the frame fault injector exactly like
  /// serve::write_frame: kDrop skips the frame, kDelay sleeps the loop
  /// thread (test-only), kTruncate sends the header plus half the
  /// payload and then closes — a sender that died mid-send.
  void send_frame(const std::string& payload);

  /// Flush whatever is queued, then close. Immediate when nothing is
  /// queued. Safe mid-handler: destruction is deferred to the sweep
  /// point after the current event.
  void close();

  /// True once close() was called or the conn hit an error; no further
  /// frames will be delivered or accepted.
  bool closing() const { return closing_ || dead_; }

  /// Owner-attached session state (protocol version, response ordering
  /// queue, ...). The loop never looks inside.
  std::shared_ptr<void> ctx;

 private:
  friend class EventLoop;
  Conn(EventLoop* loop, int fd, std::uint64_t id)
      : loop_(loop), fd_(fd), id_(id) {}

  EventLoop* loop_;
  int fd_;
  std::uint64_t id_;
  /// Set only on outbound conns (EventLoop::attach): they take their own
  /// callbacks instead of the loop's and are exempt from the idle budget.
  FrameFn on_frame_;
  ConnFn on_close_;

  std::string rbuf_;       ///< unparsed inbound bytes
  std::size_t rpos_ = 0;   ///< parse cursor into rbuf_
  std::deque<std::string> wq_;
  std::size_t woff_ = 0;   ///< bytes of wq_.front() already sent
  std::size_t wbytes_ = 0; ///< total queued outbound bytes
  bool want_write_ = false;
  bool reading_ = true;    ///< false while paused above the high-water mark
  bool reading_prev_mask_ = true;  ///< EPOLLIN state as registered
  bool corked_ = false;    ///< parse batch active: send_frame defers its flush
  bool in_parse_ = false;  ///< parse_frames reentry guard (resume-read path)
  bool closing_ = false;   ///< flush-then-close requested
  bool dead_ = false;      ///< queued for destruction at the sweep point

  TimerId idle_timer_ = 0;
  TimerId io_timer_ = 0;
  std::uint64_t progress_ = 0;  ///< bytes moved; timers compare snapshots
  std::uint64_t io_progress_snapshot_ = 0;
  std::uint64_t idle_progress_snapshot_ = 0;
};

struct LoopConfig {
  /// Budget for a frame to *begin* (time between requests). 0 = none.
  std::uint64_t idle_timeout_ms = 0;
  /// Budget for forward progress once a frame started (stalled reader
  /// or writer). 0 = none.
  std::uint64_t frame_timeout_ms = 0;
  /// Hard cap on one inbound frame's payload; oversized frames drop the
  /// connection, mirroring serve::read_frame.
  std::size_t max_frame_bytes = 16u << 20;
  /// Stop reading when a conn's outbound queue exceeds this (a pipelined
  /// client that never reads its responses); resume below half of it.
  std::size_t write_high_water = 32u << 20;
  /// Delivered once per complete inbound frame, on the loop thread.
  FrameFn on_frame;
  /// Conn adopted and registered (loop thread). Optional.
  ConnFn on_open;
  /// Conn is going away: fd still open, ctx still set (loop thread).
  /// Optional. Runs exactly once per conn, including at loop stop.
  ConnFn on_close;
};

class EventLoop {
 public:
  explicit EventLoop(LoopConfig cfg);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Process events until stop(). Call from exactly one thread.
  void run();

  /// Ask run() to finish: every conn gets on_close, then run() returns.
  /// Safe from any thread, idempotent.
  void stop();

  /// Run `fn` on the loop thread. Safe from any thread. Tasks posted
  /// after stop() are silently dropped (their targets are gone anyway).
  void post(std::function<void()> fn);

  /// Hand a connected socket to this loop. Safe from any thread; the
  /// Conn is created on the loop thread (on_open fires there). The loop
  /// owns the fd from this point, even if it is stopping.
  void adopt(int fd);

  /// Loop-thread only: register an outbound socket (a nonblocking
  /// connect may still be in progress; frames queue until it completes)
  /// as a Conn with its own callbacks, exempt from the idle budget — it
  /// waits on its peer. Returns the conn id, or 0 (fd closed).
  std::uint64_t attach(int fd, FrameFn on_frame, ConnFn on_close);

  /// Loop-thread only: conn by id, or nullptr if it died.
  Conn* find(std::uint64_t conn_id);

  /// True when called from the thread inside run().
  bool on_loop_thread() const {
    return thread_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  /// Loop-thread only: arm/cancel a wheel timer.
  TimerId add_timer(std::uint64_t delay_ms, std::function<void()> cb);
  void cancel_timer(TimerId id);

  /// Approximate live-conn count (any thread; monitoring only).
  std::size_t conn_count() const {
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// Monotonic coarse clock used for every deadline in this loop (ms).
  static std::uint64_t now_ms();

 private:
  friend class Conn;

  void wake();
  void run_posted();
  void handle_event(std::uint64_t conn_id, std::uint32_t events);
  void do_read(Conn& c);
  void do_write(Conn& c);
  bool flush(Conn& c);  ///< returns false when the conn broke
  void parse_frames(Conn& c);
  void update_interest(Conn& c);
  void update_timers(Conn& c);
  void mark_dead(Conn& c);
  void sweep_dead();
  void destroy(std::uint64_t conn_id);
  /// nullptr when epoll refused the fd (then closed) or the loop is
  /// stopping. Handlers given = an outbound conn (attach()).
  Conn* create_conn(int fd, FrameFn on_frame = {}, ConnFn on_close = {});

  LoopConfig cfg_;
  int epfd_ = -1;
  int wakefd_ = -1;
  TimerWheel wheel_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<std::uint64_t> dead_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<std::size_t> conn_count_{0};
  std::atomic<std::thread::id> thread_{};

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::atomic<bool> stopping_{false};
};

/// N event loops, each on its own thread, with round-robin adoption —
/// the "accept thread + N event-loop threads" topology both daemons use.
class LoopGroup {
 public:
  LoopGroup(std::size_t n, const LoopConfig& cfg);
  ~LoopGroup();

  void start();
  void stop();  ///< stop every loop and join its thread; idempotent

  EventLoop& next() {
    return *loops_[next_.fetch_add(1, std::memory_order_relaxed) %
                   loops_.size()];
  }
  EventLoop& at(std::size_t i) { return *loops_[i]; }
  std::size_t size() const { return loops_.size(); }

  std::size_t conn_count() const {
    std::size_t n = 0;
    for (const auto& l : loops_) n += l->conn_count();
    return n;
  }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace masc::net
