// Event-core tests (docs/NET.md): the timer wheel's O(1) add/cancel
// semantics under callback mutation, and the EventLoop contract both
// daemons build on — cross-thread post(), frame delivery and buffered
// echo, idle/io timeouts, the oversized-frame drop, flush-then-close,
// and LoopGroup round-robin adoption. Everything runs over
// socketpair(2): the loop adopts one end, the test speaks v1 framing on
// the other, no listener required.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/timer_wheel.hpp"
#include "serve/framing.hpp"

namespace masc {
namespace {

using net::Conn;
using net::EventLoop;
using net::LoopConfig;
using net::LoopGroup;
using net::TimerWheel;
using namespace std::chrono_literals;

// --- timer wheel ------------------------------------------------------

TEST(TimerWheelTest, FiresAtTheDeadlineNotBefore) {
  TimerWheel w;
  int fired = 0;
  w.add(/*now_ms=*/1000, /*delay_ms=*/50, [&] { ++fired; });
  EXPECT_EQ(w.advance(1040), TimerWheel::kTickMs);  // early: still armed
  EXPECT_EQ(fired, 0);
  w.advance(1056);  // past 1050 (rounded up to a tick boundary)
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(w.armed(), 0u);
  EXPECT_EQ(w.advance(2000), TimerWheel::kNoTimer);  // empty wheel
}

TEST(TimerWheelTest, MidTickDeadlineFiresAtItsTickNotALapLater) {
  // Regression: a deadline that lands mid-tick (now not a multiple of
  // kTickMs) must fire when the clock crosses the NEXT tick boundary.
  // Floor slot placement visited the slot up to kTickMs-1 ms before the
  // deadline, skipped the not-yet-due entry, and only returned a full
  // lap (kSlots*kTickMs ≈ 2s) later — long enough for a parked 50 ms
  // result-wait to be resolved by job completion instead of its timer.
  TimerWheel w;
  w.advance(8000);  // prime on a tick boundary
  int fired = 0;
  w.add(/*now_ms=*/8003, /*delay_ms=*/50, [&] { ++fired; });  // deadline 8053
  // Drive the clock in 1 ms steps, as the polling loop would. The timer
  // must fire within one tick of its deadline, not a lap later.
  for (std::uint64_t t = 8004; t <= 8053 + TimerWheel::kTickMs; ++t)
    w.advance(t);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, DeadlineInAScannedTickFiresNextAdvance) {
  // A zero-ish delay whose deadline falls inside the tick advance() has
  // already scanned must move to the next crossed tick, not wait a lap.
  TimerWheel w;
  w.advance(8000);  // last scanned tick covers up to 8007
  int fired = 0;
  w.add(/*now_ms=*/8000, /*delay_ms=*/0, [&] { ++fired; });
  w.advance(8008);  // first crossing after the arm
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CancelIsANoOpOnStaleIds) {
  TimerWheel w;
  int fired = 0;
  const net::TimerId id = w.add(0, 24, [&] { ++fired; });
  w.cancel(id);
  w.cancel(id);                  // double-cancel: fine
  w.cancel(net::TimerId{9999});  // never existed: fine
  w.advance(100);
  EXPECT_EQ(fired, 0);
}

TEST(TimerWheelTest, LongDelaysSurviveFullWheelLaps) {
  // A delay far beyond kSlots*kTickMs shares its slot with many scans;
  // only deadline comparison may fire it.
  TimerWheel w;
  int fired = 0;
  w.add(0, 3 * TimerWheel::kSlots * TimerWheel::kTickMs, [&] { ++fired; });
  for (std::uint64_t t = 0; t < 3 * TimerWheel::kSlots * TimerWheel::kTickMs;
       t += 64)
    w.advance(t);
  EXPECT_EQ(fired, 0);
  w.advance(3 * TimerWheel::kSlots * TimerWheel::kTickMs + TimerWheel::kTickMs);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CallbacksMayCancelAndArmOtherTimers) {
  TimerWheel w;
  w.advance(0);  // prime: the wheel scans slots crossed *since* the
                 // first advance, as the loop's steady tick guarantees
  std::vector<int> order;
  net::TimerId second = 0;
  // First timer cancels the second (same deadline) and arms a third.
  w.add(0, 16, [&] {
    order.push_back(1);
    w.cancel(second);
    w.add(32, 16, [&] { order.push_back(3); });
  });
  second = w.add(0, 16, [&] { order.push_back(2); });
  w.advance(32);
  EXPECT_EQ(order, (std::vector<int>{1}));
  w.advance(64);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// --- event loop harness -----------------------------------------------

/// One EventLoop on its own thread plus helpers to adopt socketpair
/// ends and speak framed v1 from the test thread.
class LoopFixture {
 public:
  explicit LoopFixture(LoopConfig cfg) : loop_(std::move(cfg)) {
    thread_ = std::thread([this] { loop_.run(); });
  }
  ~LoopFixture() {
    loop_.stop();
    thread_.join();
  }

  EventLoop& loop() { return loop_; }

  /// socketpair; the loop adopts one end, the returned fd is ours.
  int adopt_pair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    loop_.adopt(sv[0]);
    return sv[1];
  }

  /// True when the peer closed our end within `timeout_ms`.
  static bool closed_by_peer(int fd, int timeout_ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    char buf[64];
    for (;;) {
      pollfd p{fd, POLLIN, 0};
      const int remain = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (remain <= 0) return false;
      if (::poll(&p, 1, remain) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n == 0) return true;   // orderly shutdown from the loop
      if (n < 0) return true;    // reset also counts
      // Drained stray bytes (a response in flight); keep waiting.
    }
  }

 private:
  EventLoop loop_;
  std::thread thread_;
};

LoopConfig echo_config() {
  LoopConfig cfg;
  cfg.on_frame = [](Conn& c, std::string&& payload) {
    c.send_frame("echo:" + payload);
  };
  return cfg;
}

TEST(EventLoopTest, PostRunsOnTheLoopThread) {
  LoopFixture fx(echo_config());
  std::atomic<bool> ran{false};
  std::thread::id loop_tid;
  fx.loop().post([&] {
    loop_tid = std::this_thread::get_id();
    ran.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!ran.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(ran.load());
  EXPECT_NE(loop_tid, std::this_thread::get_id());
}

TEST(EventLoopTest, DeliversFramesAndEchoesBufferedWrites) {
  LoopFixture fx(echo_config());
  const int fd = fx.adopt_pair();
  // Several frames back-to-back, including an empty one and a large one
  // that cannot fit a single nonblocking write.
  const std::string payloads[] = {"hello", "", std::string(256 * 1024, 'x')};
  for (const std::string& p : payloads) serve::write_frame(fd, p);
  for (const std::string& p : payloads) {
    std::string got;
    ASSERT_TRUE(serve::read_frame(fd, got, 5000, 5000));
    EXPECT_EQ(got, "echo:" + p);
  }
  ::close(fd);
}

TEST(EventLoopTest, ConnCountTracksAdoptionsAndCloses) {
  LoopFixture fx(echo_config());
  const int a = fx.adopt_pair();
  const int b = fx.adopt_pair();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fx.loop().conn_count() != 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(fx.loop().conn_count(), 2u);
  ::close(a);
  while (fx.loop().conn_count() != 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(fx.loop().conn_count(), 1u);
  ::close(b);
}

TEST(EventLoopTest, IdleTimeoutReapsSilentConnsOnly) {
  LoopConfig cfg = echo_config();
  cfg.idle_timeout_ms = 120;
  LoopFixture fx(cfg);

  const int mute = fx.adopt_pair();
  const int chatty = fx.adopt_pair();
  // The chatty conn keeps completing frames inside the idle window...
  std::thread chat([&] {
    for (int i = 0; i < 5; ++i) {
      serve::write_frame(chatty, "ping");
      std::string got;
      ASSERT_TRUE(serve::read_frame(chatty, got, 2000, 2000));
      std::this_thread::sleep_for(60ms);
    }
  });
  // ...while the mute one is reaped.
  EXPECT_TRUE(LoopFixture::closed_by_peer(mute, 5000));
  chat.join();
  ::close(mute);
  ::close(chatty);
}

TEST(EventLoopTest, IoTimeoutReapsAConnStalledMidFrame) {
  LoopConfig cfg = echo_config();
  cfg.frame_timeout_ms = 120;
  LoopFixture fx(cfg);
  const int fd = fx.adopt_pair();
  // A frame that starts but never finishes: header promising 100 bytes,
  // then silence. The io watchdog must kill it.
  const std::uint32_t len = 100;
  char hdr[4] = {0, 0, 0, static_cast<char>(len)};
  ASSERT_EQ(::send(fd, hdr, 4, MSG_NOSIGNAL), 4);
  EXPECT_TRUE(LoopFixture::closed_by_peer(fd, 5000));
  ::close(fd);
}

TEST(EventLoopTest, OversizedFrameDropsTheConnection) {
  LoopConfig cfg = echo_config();
  cfg.max_frame_bytes = 1024;
  LoopFixture fx(cfg);
  const int fd = fx.adopt_pair();
  const std::uint32_t len = 4096;  // over the cap
  const char hdr[4] = {0, 0, static_cast<char>(len >> 8),
                       static_cast<char>(len & 0xFF)};
  ASSERT_EQ(::send(fd, hdr, 4, MSG_NOSIGNAL), 4);
  EXPECT_TRUE(LoopFixture::closed_by_peer(fd, 5000));
  ::close(fd);
}

TEST(EventLoopTest, CloseFlushesQueuedFramesFirst) {
  LoopConfig cfg;
  // On its only frame: queue a big response, then close. The peer must
  // still receive the whole response before EOF.
  cfg.on_frame = [](Conn& c, std::string&&) {
    c.send_frame(std::string(512 * 1024, 'z'));
    c.close();
    EXPECT_TRUE(c.closing());
  };
  LoopFixture fx(cfg);
  const int fd = fx.adopt_pair();
  serve::write_frame(fd, "go");
  std::string got;
  ASSERT_TRUE(serve::read_frame(fd, got, 5000, 5000));
  EXPECT_EQ(got.size(), 512u * 1024u);
  EXPECT_TRUE(LoopFixture::closed_by_peer(fd, 5000));
  ::close(fd);
}

TEST(EventLoopTest, OnCloseFiresExactlyOncePerConn) {
  std::atomic<int> opens{0}, closes{0};
  LoopConfig cfg = echo_config();
  cfg.on_open = [&](Conn&) { opens.fetch_add(1); };
  cfg.on_close = [&](Conn&) { closes.fetch_add(1); };
  {
    LoopFixture fx(cfg);
    const int a = fx.adopt_pair();
    const int b = fx.adopt_pair();
    serve::write_frame(a, "x");
    std::string got;
    ASSERT_TRUE(serve::read_frame(a, got, 5000, 5000));
    ::close(a);  // one closes from the peer side...
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (closes.load() < 1 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ::close(b);
  }  // ...the other via loop stop; both get exactly one on_close
  EXPECT_EQ(opens.load(), 2);
  EXPECT_EQ(closes.load(), 2);
}

TEST(EventLoopTest, LoopTimersFireAndCancelFromTheLoopThread) {
  LoopFixture fx(echo_config());
  std::atomic<int> fired{0};
  fx.loop().post([&] {
    fx.loop().add_timer(30, [&] { fired.fetch_add(1); });
    const net::TimerId doomed =
        fx.loop().add_timer(30, [&] { fired.fetch_add(100); });
    fx.loop().cancel_timer(doomed);
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(100ms);  // the cancelled timer's window
  EXPECT_EQ(fired.load(), 1);
}

TEST(LoopGroupTest, RoundRobinSpreadsConnsAcrossLoops) {
  LoopGroup group(2, echo_config());
  group.start();
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    group.next().adopt(sv[0]);
    fds.push_back(sv[1]);
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (group.conn_count() != 4 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(group.conn_count(), 4u);
  // next() alternates: each loop holds exactly half the conns.
  EXPECT_EQ(group.at(0).conn_count(), 2u);
  EXPECT_EQ(group.at(1).conn_count(), 2u);
  // Every conn echoes regardless of which loop owns it.
  for (int fd : fds) {
    serve::write_frame(fd, "hi");
    std::string got;
    ASSERT_TRUE(serve::read_frame(fd, got, 5000, 5000));
    EXPECT_EQ(got, "echo:hi");
  }
  group.stop();
  group.stop();  // idempotent
  for (int fd : fds) ::close(fd);
}

}  // namespace
}  // namespace masc
