// Fixed-size blocking-work pool for event-loop servers (docs/NET.md
// "Offloading blocking work").
//
// Event-loop handlers must never block, but some router ops block on a
// bounded backend round trip (submit, status, cancel, extend, cache_get,
// stats) or on failover re-placement. Those run here; the finished
// response is then post()ed back to the conn's owning loop.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace masc::net {

class TaskPool {
 public:
  explicit TaskPool(std::size_t threads) : target_(threads ? threads : 1) {}
  ~TaskPool() { stop(); }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  void start() {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
    workers_.reserve(target_);
    for (std::size_t i = 0; i < target_; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  /// Finish everything already queued, then join. Idempotent. Tasks
  /// submitted after stop() are dropped.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_ || stopping_) {
        stopping_ = true;
        if (!started_) return;
      }
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_)
      if (t.joinable()) t.join();
    workers_.clear();
  }

  void submit(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> fn;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and drained
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
    }
  }

  const std::size_t target_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace masc::net
