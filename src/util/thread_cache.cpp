#include "util/thread_cache.hpp"

#include <algorithm>
#include <thread>

namespace turbo::util {

struct ThreadCache::Task {
  explicit Task(std::function<void()> f) : fn(std::move(f)) {}
  std::function<void()> fn;
  std::atomic<bool> done{false};
};

void ThreadCache::Handle::Join() {
  if (!task_) return;
  task_->done.wait(false, std::memory_order_acquire);
  task_.reset();
}

ThreadCache& ThreadCache::Global() {
  // Leaked on purpose: parked threads wait on its members until the process
  // ends, so it must outlive every static destructor.
  static ThreadCache* const cache =
      new ThreadCache(std::max(1u, std::thread::hardware_concurrency()));
  return *cache;
}

size_t ThreadCache::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_.size();
}

ThreadCache::Handle ThreadCache::Run(std::function<void()> fn) {
  auto task = std::make_shared<Task>(std::move(fn));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!parked_.empty()) {
      Spot* spot = parked_.back();
      parked_.pop_back();
      spot->task = task;
      // Notified under the lock: once it is released the thread may run
      // the task and exit, taking its spot with it.
      spot->cv.notify_one();
      return Handle(std::move(task));
    }
  }
  // The thread's only tie to its caller is the task, whose completion the
  // handle waits for; the thread itself parks in this never-destroyed cache
  // or exits, so nothing ever needs to join it.
  std::thread([this, task] { Loop(task); }).detach();
  started_.fetch_add(1, std::memory_order_relaxed);
  return Handle(std::move(task));
}

void ThreadCache::Loop(std::shared_ptr<Task> task) {
  Spot spot;
  while (task) {
    task->fn();
    task->fn = nullptr;  // captures die before the joiner is released
    // Park before releasing the joiner, so a caller that runs its next task
    // right after the join finds this thread waiting.
    bool park = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (parked_.size() < max_parked_) {
        parked_.push_back(&spot);
        park = true;
      }
    }
    task->done.store(true, std::memory_order_release);
    task->done.notify_all();
    task.reset();
    if (!park) return;
    std::unique_lock<std::mutex> lock(mu_);
    spot.cv.wait(lock, [&spot] { return spot.task != nullptr; });
    task = std::move(spot.task);
  }
}

void RunOnWorkers(uint32_t workers, const std::function<void(uint32_t)>& body) {
  std::vector<ThreadCache::Handle> others;
  others.reserve(workers > 0 ? workers - 1 : 0);
  for (uint32_t w = 1; w < workers; ++w)
    others.push_back(ThreadCache::Global().Run([&body, w] { body(w); }));
  body(0);
  // `others` joins every worker on the way out, also when body(0) throws.
}

}  // namespace turbo::util
