// Parallel-for with dynamic chunking. Implements the paper's Section 5.2
// work distribution: starting data vertices are handed to threads in small
// chunks claimed from a shared atomic cursor, so skewed candidate-region
// sizes (the "universities with very different numbers of students" problem)
// do not unbalance the threads. The calling thread works as worker 0 and
// the other workers run on the process-wide ThreadCache, so neither a
// parallel match nor an ingestion stage starts a thread of its own.
//
// NUMA substitution note: the paper pins threads to sockets and interleaves
// graph pages across sockets. This VM exposes a single memory domain, so the
// placement part is a no-op here; the dynamic-chunking logic — which is what
// Figure 16 actually exercises — is implemented faithfully.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "util/thread_cache.hpp"

namespace turbo::util {

/// The worker count of a multi-stage parallel job (the ingestion pipeline:
/// parse -> merge -> remap -> graph-build), passed down through its stages.
/// It owns no threads: each ParallelFor runs the caller as worker 0 and the
/// other workers on the process-wide ThreadCache, whose threads park
/// between stages, so the stages pay thread start-up at most once per
/// process. Workers receive a stable index [0, size()) for the duration of
/// one ParallelFor, so per-worker scratch indexed by it needs no locking.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads) : size_(num_threads > 1 ? num_threads : 1) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t size() const { return size_; }

  /// fn(begin, end, worker) over [0, total) in chunks of `chunk` claimed
  /// from a shared cursor (ParallelForDynamic). Blocks until the whole
  /// range is processed.
  void ParallelFor(uint64_t total, uint64_t chunk,
                   const std::function<void(uint64_t, uint64_t, uint32_t)>& fn) const;

 private:
  uint32_t size_;
};

/// Runs fn(begin, end, thread_index) over [0, total) split into dynamic
/// chunks of `chunk` items claimed by `num_threads` workers.
inline void ParallelForDynamic(uint32_t num_threads, uint64_t total, uint64_t chunk,
                               const std::function<void(uint64_t, uint64_t, uint32_t)>& fn) {
  if (total == 0) return;
  if (chunk == 0) chunk = 1;
  if (num_threads <= 1) {
    for (uint64_t b = 0; b < total; b += chunk) fn(b, std::min(b + chunk, total), 0);
    return;
  }
  std::atomic<uint64_t> cursor{0};
  RunOnWorkers(num_threads, [&](uint32_t tid) {
    for (;;) {
      uint64_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= total) break;
      fn(begin, std::min(begin + chunk, total), tid);
    }
  });
}

inline void ThreadPool::ParallelFor(
    uint64_t total, uint64_t chunk,
    const std::function<void(uint64_t, uint64_t, uint32_t)>& fn) const {
  ParallelForDynamic(size_, total, chunk, fn);
}

/// Static pre-partitioned variant: thread t processes the contiguous slice
/// [t*total/n, (t+1)*total/n). Used by the §5.2 work-distribution ablation;
/// suffers from skew when per-item work varies.
inline void ParallelForStatic(uint32_t num_threads, uint64_t total,
                              const std::function<void(uint64_t, uint64_t, uint32_t)>& fn) {
  if (total == 0) return;
  if (num_threads <= 1) {
    fn(0, total, 0);
    return;
  }
  RunOnWorkers(num_threads, [&](uint32_t t) {
    uint64_t begin = total * t / num_threads;
    uint64_t end = total * (t + 1) / num_threads;
    if (begin < end) fn(begin, end, t);
  });
}

}  // namespace turbo::util
