#include "net/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "fault/fault.hpp"

namespace masc::net {

namespace {

void set_nonblocking(int fd) {
  // All sockets handed to a loop must be nonblocking; a blocking recv
  // on one conn would stall every other conn on the loop.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void frame_header(std::size_t len, unsigned char hdr[4]) {
  hdr[0] = static_cast<unsigned char>(len >> 24);
  hdr[1] = static_cast<unsigned char>(len >> 16);
  hdr[2] = static_cast<unsigned char>(len >> 8);
  hdr[3] = static_cast<unsigned char>(len);
}

}  // namespace

// ---------------------------------------------------------------------------
// Conn

void Conn::send_frame(const std::string& payload) {
  if (closing()) return;
  if (payload.size() > loop_->cfg_.max_frame_bytes) {
    loop_->mark_dead(*this);
    return;
  }
  bool truncate = false;
  if (auto* inj = fault::active()) {
    switch (inj->on_frame_send()) {
      case fault::FrameFault::kNone:
        break;
      case fault::FrameFault::kDrop:
        return;  // frame silently lost; the stream stays in sync
      case fault::FrameFault::kDelay:
        // Test-only: the injector is never installed in production, so
        // stalling the loop thread here is acceptable and models a
        // sender that went slow.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(inj->plan().frame_delay_ms));
        break;
      case fault::FrameFault::kTruncate:
        truncate = true;
        break;
    }
  }
  unsigned char hdr[4];
  frame_header(payload.size(), hdr);
  // While parse_frames is dispatching a batch of pipelined requests,
  // coalesce the responses into one queue entry (one ::send covers the
  // whole batch) and let the batch end flush them together. The merge
  // bound keeps a single entry from growing without limit; appending to
  // a partially-sent front entry is fine — flush resumes at woff_.
  constexpr std::size_t kCorkMergeBytes = 256u << 10;
  if (corked_ && !truncate && !wq_.empty() &&
      wq_.back().size() < kCorkMergeBytes) {
    std::string& back = wq_.back();
    back.append(reinterpret_cast<const char*>(hdr), 4);
    back.append(payload);
    wbytes_ += 4 + payload.size();
    return;  // parse_frames flushes once per batch
  }
  std::string buf;
  if (truncate) {
    // Announce the full length, send half the bytes, die: exactly what
    // a sender killed mid-send looks like to the peer.
    buf.reserve(4 + payload.size() / 2);
    buf.append(reinterpret_cast<const char*>(hdr), 4);
    buf.append(payload.data(), payload.size() / 2);
  } else {
    buf.reserve(4 + payload.size());
    buf.append(reinterpret_cast<const char*>(hdr), 4);
    buf.append(payload);
  }
  wbytes_ += buf.size();
  wq_.push_back(std::move(buf));
  if (truncate) closing_ = true;  // flush the torn frame, then drop
  if (corked_) return;  // parse_frames flushes once per batch
  if (!loop_->flush(*this)) return;
  loop_->update_interest(*this);
  loop_->update_timers(*this);
}

void Conn::close() {
  if (dead_) return;
  closing_ = true;
  if (wq_.empty()) {
    loop_->mark_dead(*this);
  } else {
    // Called from a posted task: make sure EPOLLOUT is armed so the
    // tail of the write queue actually drains before the fd closes.
    loop_->update_interest(*this);
  }
}

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop(LoopConfig cfg) : cfg_(std::move(cfg)) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0)
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakefd_ < 0) {
    ::close(epfd_);
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // conn id 0 is reserved for the wakeup fd
  (void)::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
}

EventLoop::~EventLoop() {
  // run() has returned (or never ran); tear down whatever is left.
  for (auto& [id, c] : conns_) {
    (void)id;
    ::close(c->fd_);
  }
  conns_.clear();
  if (wakefd_ >= 0) ::close(wakefd_);
  if (epfd_ >= 0) ::close(epfd_);
}

std::uint64_t EventLoop::now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  ssize_t rc;
  do {
    rc = ::write(wakefd_, &one, sizeof one);
  } while (rc < 0 && errno == EINTR);
}

void EventLoop::post(std::function<void()> fn) {
  if (stopping_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::adopt(int fd) {
  set_nonblocking(fd);
  bool queued = false;
  if (!stopping_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (!stopping_.load(std::memory_order_acquire)) {
      posted_.push_back([this, fd] { create_conn(fd); });
      queued = true;
    }
  }
  if (!queued) {
    ::close(fd);  // the loop is going away; don't leak the socket
    return;
  }
  wake();
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::run_posted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& fn : tasks) fn();
}

void EventLoop::run() {
  thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const std::uint64_t hint = wheel_.advance(now_ms());
    sweep_dead();
    int timeout = -1;
    if (hint != TimerWheel::kNoTimer)
      timeout = static_cast<int>(hint > 1000 ? 1000 : hint);
    const int n = ::epoll_wait(epfd_, events, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; nothing sensible left to do
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == 0) {
        std::uint64_t drain;
        while (::read(wakefd_, &drain, sizeof drain) > 0) {
        }
        run_posted();
      } else {
        handle_event(id, events[i].events);
      }
      sweep_dead();
    }
  }
  // Orderly teardown on the loop thread: every surviving conn gets its
  // on_close exactly once.
  run_posted();  // adoptions already queued still own their fds
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, c] : conns_) {
    (void)c;
    ids.push_back(id);
  }
  for (std::uint64_t id : ids) destroy(id);
}

Conn* EventLoop::create_conn(int fd, FrameFn on_frame, ConnFn on_close) {
  const std::uint64_t id = next_conn_id_++;
  auto conn = std::unique_ptr<Conn>(new Conn(this, fd, id));
  Conn* c = conn.get();
  c->on_frame_ = std::move(on_frame);
  c->on_close_ = std::move(on_close);
  conns_.emplace(id, std::move(conn));
  conn_count_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    conns_.erase(id);
    conn_count_.fetch_sub(1, std::memory_order_relaxed);
    ::close(fd);
    return nullptr;
  }
  if (c->on_frame_) return c;  // outbound: no idle budget, no on_open
  if (stopping_.load(std::memory_order_acquire)) {
    // Raced with stop(): run()'s teardown already swept conns_. Destroy
    // here so on_close still fires exactly once.
    destroy(id);
    return nullptr;
  }
  update_timers(*c);
  if (cfg_.on_open) cfg_.on_open(*c);
  return c;
}

std::uint64_t EventLoop::attach(int fd, FrameFn on_frame, ConnFn on_close) {
  set_nonblocking(fd);
  const Conn* c = create_conn(fd, std::move(on_frame), std::move(on_close));
  return c ? c->id_ : 0;
}

Conn* EventLoop::find(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second->dead_) return nullptr;
  return it->second.get();
}

TimerId EventLoop::add_timer(std::uint64_t delay_ms,
                             std::function<void()> cb) {
  return wheel_.add(now_ms(), delay_ms, std::move(cb));
}

void EventLoop::cancel_timer(TimerId id) { wheel_.cancel(id); }

void EventLoop::mark_dead(Conn& c) {
  if (c.dead_) return;
  c.dead_ = true;
  dead_.push_back(c.id_);
}

void EventLoop::sweep_dead() {
  while (!dead_.empty()) {
    std::vector<std::uint64_t> batch;
    batch.swap(dead_);  // on_close may mark more conns dead
    for (std::uint64_t id : batch) destroy(id);
  }
}

void EventLoop::destroy(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.idle_timer_) wheel_.cancel(c.idle_timer_);
  if (c.io_timer_) wheel_.cancel(c.io_timer_);
  c.idle_timer_ = c.io_timer_ = 0;
  if (c.on_close_)
    c.on_close_(c);
  else if (cfg_.on_close)
    cfg_.on_close(c);
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd_, nullptr);
  ::close(c.fd_);
  conns_.erase(it);
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::handle_event(std::uint64_t conn_id, std::uint32_t events) {
  Conn* c = find(conn_id);
  if (!c) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Let the read path observe the close/error so a final buffered
    // frame (e.g. shutdown's response already sent by the peer's view)
    // is still parsed.
    do_read(*c);
    if (!c->dead_) mark_dead(*c);
    return;
  }
  if (events & EPOLLOUT) do_write(*c);
  if (c->dead_) return;
  if (events & EPOLLIN) do_read(*c);
  if (c->dead_) return;
  if (c->closing_ && c->wq_.empty()) {
    mark_dead(*c);
    return;
  }
  update_interest(*c);
  update_timers(*c);
}

void EventLoop::do_read(Conn& c) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd_, buf, sizeof buf, 0);
    if (n > 0) {
      c.rbuf_.append(buf, static_cast<std::size_t>(n));
      c.progress_ += static_cast<std::uint64_t>(n);
      parse_frames(c);
      if (c.dead_) return;
      if (!c.reading_) return;  // parse pushed us over the high-water mark
      if (static_cast<std::size_t>(n) < sizeof buf) return;  // drained
      continue;
    }
    if (n == 0) {
      // Clean close. Mid-frame bytes left in rbuf_ are a truncated
      // frame — either way the conn is done.
      mark_dead(c);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    mark_dead(c);
    return;
  }
}

void EventLoop::parse_frames(Conn& c) {
  // update_interest's resume-read path re-enters here; the active call
  // below keeps consuming (its continuation loop), so just return.
  if (c.in_parse_) return;
  c.in_parse_ = true;
  for (;;) {
    const std::size_t batch_start = c.rpos_;
    // Cork: every send_frame from on_frame below only queues; the
    // whole batch of responses is flushed in one ::send at batch end.
    c.corked_ = true;
    while (!c.closing_ && !c.dead_) {
      const std::size_t avail = c.rbuf_.size() - c.rpos_;
      if (avail < 4) break;
      const unsigned char* p =
          reinterpret_cast<const unsigned char*>(c.rbuf_.data() + c.rpos_);
      const std::size_t len = (static_cast<std::size_t>(p[0]) << 24) |
                              (static_cast<std::size_t>(p[1]) << 16) |
                              (static_cast<std::size_t>(p[2]) << 8) |
                              static_cast<std::size_t>(p[3]);
      if (len > cfg_.max_frame_bytes) {
        // Same contract as serve::read_frame: an absurd length means
        // the stream is garbage; drop the connection (queued responses
        // die with it — the stream was never going to stay in sync).
        mark_dead(c);
        break;
      }
      if (avail - 4 < len) break;  // frame not complete yet
      std::string payload = c.rbuf_.substr(c.rpos_ + 4, len);
      c.rpos_ += 4 + len;
      if (c.on_frame_)
        c.on_frame_(c, std::move(payload));
      else if (cfg_.on_frame)
        cfg_.on_frame(c, std::move(payload));
      // A pipelining client can queue responses faster than it reads
      // them; stop consuming input until the write queue drains.
      if (c.wbytes_ > cfg_.write_high_water) c.reading_ = false;
      if (!c.reading_) break;
    }
    c.corked_ = false;
    const bool consumed = c.rpos_ != batch_start;
    // Compact once the parsed prefix dominates the buffer.
    if (c.rpos_ > 4096 && c.rpos_ * 2 >= c.rbuf_.size()) {
      c.rbuf_.erase(0, c.rpos_);
      c.rpos_ = 0;
    }
    if (c.dead_) break;
    if (!c.wq_.empty() && !flush(c)) break;  // batch flush (may mark dead)
    update_interest(c);  // re-arm + maybe resume reading (guard above)
    update_timers(c);
    // Continue only when the flush resumed a paused reader and complete
    // frames may still be buffered; a no-progress pass means the rest
    // is a partial frame.
    if (!consumed || !c.reading_ || c.rbuf_.size() - c.rpos_ < 4) break;
  }
  c.in_parse_ = false;
}

bool EventLoop::flush(Conn& c) {
  while (!c.wq_.empty()) {
    const std::string& front = c.wq_.front();
    const ssize_t n = ::send(c.fd_, front.data() + c.woff_,
                             front.size() - c.woff_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      mark_dead(c);
      return false;
    }
    c.woff_ += static_cast<std::size_t>(n);
    c.wbytes_ -= static_cast<std::size_t>(n);
    c.progress_ += static_cast<std::uint64_t>(n);
    if (c.woff_ == front.size()) {
      c.wq_.pop_front();
      c.woff_ = 0;
    }
  }
  if (c.closing_) {
    mark_dead(c);
    return false;
  }
  return true;
}

void EventLoop::do_write(Conn& c) {
  if (!flush(c)) return;
  update_interest(c);
  update_timers(c);
}

void EventLoop::update_interest(Conn& c) {
  if (c.dead_) return;
  const bool want_write = !c.wq_.empty();
  const bool resume_read =
      !c.reading_ && c.wbytes_ <= cfg_.write_high_water / 2;
  if (resume_read) c.reading_ = true;
  const std::uint32_t mask = (c.reading_ ? EPOLLIN : 0u) |
                             (want_write ? EPOLLOUT : 0u);
  const std::uint32_t prev = (c.want_write_ ? EPOLLOUT : 0u) |
                             (c.reading_prev_mask_ ? EPOLLIN : 0u);
  if (mask == prev) return;
  c.want_write_ = want_write;
  c.reading_prev_mask_ = c.reading_;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = c.id_;
  (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd_, &ev);
  if (resume_read) parse_frames(c);  // bytes may already be buffered
}

void EventLoop::update_timers(Conn& c) {
  if (c.dead_) return;
  const bool mid_frame = (c.rbuf_.size() - c.rpos_) > 0;
  const bool writing = !c.wq_.empty();
  // io timer: forward-progress watchdog while a frame is in flight in
  // either direction. Re-armed only when progress happened since the
  // last arm; firing without progress reaps the conn.
  if ((mid_frame || writing) && cfg_.frame_timeout_ms > 0) {
    if (!c.io_timer_) {
      c.io_progress_snapshot_ = c.progress_;
      const std::uint64_t id = c.id_;
      c.io_timer_ = add_timer(cfg_.frame_timeout_ms, [this, id] {
        Conn* cc = find(id);
        if (!cc) return;
        cc->io_timer_ = 0;
        const bool still_stalled = ((cc->rbuf_.size() - cc->rpos_) > 0 ||
                                    !cc->wq_.empty()) &&
                                   cc->progress_ == cc->io_progress_snapshot_;
        if (still_stalled) {
          mark_dead(*cc);
        } else {
          update_timers(*cc);
        }
      });
    }
  } else if (c.io_timer_) {
    wheel_.cancel(c.io_timer_);
    c.io_timer_ = 0;
  }
  // idle timer: budget for the next frame to begin. Reset (re-armed)
  // whenever transfer progress moved, i.e. the peer is alive.
  if (!mid_frame && cfg_.idle_timeout_ms > 0 && !c.on_frame_) {
    if (c.idle_timer_ && c.progress_ != c.idle_progress_snapshot_) {
      wheel_.cancel(c.idle_timer_);
      c.idle_timer_ = 0;
    }
    if (!c.idle_timer_) {
      c.idle_progress_snapshot_ = c.progress_;
      const std::uint64_t id = c.id_;
      c.idle_timer_ = add_timer(cfg_.idle_timeout_ms, [this, id] {
        Conn* cc = find(id);
        if (!cc) return;
        cc->idle_timer_ = 0;
        if (cc->progress_ == cc->idle_progress_snapshot_) {
          mark_dead(*cc);
        } else {
          update_timers(*cc);
        }
      });
    }
  } else if (mid_frame && c.idle_timer_) {
    wheel_.cancel(c.idle_timer_);
    c.idle_timer_ = 0;
  }
}

// ---------------------------------------------------------------------------
// LoopGroup

LoopGroup::LoopGroup(std::size_t n, const LoopConfig& cfg) {
  if (n == 0) n = 1;
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    loops_.push_back(std::make_unique<EventLoop>(cfg));
}

LoopGroup::~LoopGroup() { stop(); }

void LoopGroup::start() {
  if (started_) return;
  started_ = true;
  threads_.reserve(loops_.size());
  for (auto& l : loops_)
    threads_.emplace_back([loop = l.get()] { loop->run(); });
}

void LoopGroup::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& l : loops_) l->stop();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

}  // namespace masc::net
