// Process-wide elastic cache of parked threads.
//
// Short-lived work — a streaming cursor's producer, the extra workers of a
// §5.2 parallel match — runs on threads that park here between tasks
// instead of being started and joined per task (starting and joining an
// empty std::thread costs tens of microseconds, more than the matcher spends
// on a selective query).
//
// Run() never queues work behind a busy thread: it hands the task to a
// parked thread or starts a new one. A consumer may hold several streaming
// cursors at once and read them in any order, and each cursor's producer
// must make progress independently of the others; a bounded queue could
// leave one producer waiting behind another whose consumer is not reading.
//
// At most max_parked() threads stay parked (std::thread::hardware_concurrency
// for the global cache); a thread that finishes a task while that many are
// already parked exits. The global cache lives for the whole process: its
// parked threads outlive main, touch nothing but the cache and their own
// stack, and are reclaimed with the process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace turbo::util {

class ThreadCache {
  struct Task;

 public:
  /// Join handle of one task. Join() (or destroying the handle) returns once
  /// the task has finished and its callable — with everything it captured —
  /// has been destroyed, so the task's owner may then free what it used.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&&) noexcept = default;
    Handle& operator=(Handle&& other) noexcept {
      Join();
      task_ = std::move(other.task_);
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Join(); }

    /// True until the task has been joined.
    bool joinable() const { return task_ != nullptr; }
    void Join();

   private:
    friend class ThreadCache;
    explicit Handle(std::shared_ptr<Task> task) : task_(std::move(task)) {}
    std::shared_ptr<Task> task_;
  };

  /// The process-wide cache; never destroyed.
  static ThreadCache& Global();

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Runs `fn` on a parked thread, or on a newly started one when none is
  /// parked. A task that throws ends the process, as a throwing
  /// std::thread entry function does.
  Handle Run(std::function<void()> fn);

  size_t max_parked() const { return max_parked_; }
  /// Threads parked right now.
  size_t parked() const;
  /// Threads started since the process began.
  uint64_t threads_started() const { return started_.load(std::memory_order_relaxed); }

 private:
  /// One live thread's parking spot; it lives on that thread's stack.
  struct Spot {
    std::condition_variable cv;
    std::shared_ptr<Task> task;  ///< set by Run under mu_
  };

  explicit ThreadCache(size_t max_parked) : max_parked_(max_parked) {}
  void Loop(std::shared_ptr<Task> task);

  const size_t max_parked_;
  mutable std::mutex mu_;
  std::vector<Spot*> parked_;  ///< guarded by mu_
  std::atomic<uint64_t> started_{0};
};

/// Runs body(w) for every worker w in [0, workers): worker 0 on the calling
/// thread, the others on cached threads. Returns when all have finished.
void RunOnWorkers(uint32_t workers, const std::function<void(uint32_t)>& body);

}  // namespace turbo::util
