// Unit tests for util/: sorted-set kernels, RNG, parallel-for, thread cache,
// channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "util/channel.hpp"
#include "util/rng.hpp"
#include "util/sorted.hpp"
#include "util/thread_cache.hpp"
#include "util/thread_pool.hpp"

namespace turbo::util {
namespace {

TEST(Sorted, ContainsFindsPresentElements) {
  std::vector<uint32_t> v{1, 3, 5, 9, 100};
  for (uint32_t x : v) EXPECT_TRUE(SortedContains(v, x));
}

TEST(Sorted, ContainsRejectsAbsentElements) {
  std::vector<uint32_t> v{1, 3, 5, 9, 100};
  for (uint32_t x : {0u, 2u, 4u, 10u, 101u}) EXPECT_FALSE(SortedContains(v, x));
}

TEST(Sorted, ContainsOnEmpty) {
  std::vector<uint32_t> v;
  EXPECT_FALSE(SortedContains(v, 1));
}

TEST(Sorted, IntersectBasic) {
  std::vector<uint32_t> a{1, 2, 3, 5, 8}, b{2, 3, 4, 8, 9}, out;
  IntersectInto(a, b, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 3, 8}));
}

TEST(Sorted, IntersectEmptySides) {
  std::vector<uint32_t> a{1, 2}, empty, out;
  IntersectInto(a, empty, &out);
  EXPECT_TRUE(out.empty());
  IntersectInto(empty, a, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, IntersectDisjoint) {
  std::vector<uint32_t> a{1, 3, 5}, b{2, 4, 6}, out;
  IntersectInto(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, IntersectGallopPath) {
  // Size ratio >= 16 triggers the galloping strategy.
  std::vector<uint32_t> small{5, 500, 5000};
  std::vector<uint32_t> big(10000);
  std::iota(big.begin(), big.end(), 0);
  std::vector<uint32_t> out;
  IntersectInto(small, big, &out);
  EXPECT_EQ(out, small);
  IntersectInto(big, small, &out);  // order must not matter
  EXPECT_EQ(out, small);
}

TEST(Sorted, IntersectGallopNoMatch) {
  std::vector<uint32_t> small{10001, 10002, 10003};
  std::vector<uint32_t> big(10000);
  std::iota(big.begin(), big.end(), 0);
  std::vector<uint32_t> out;
  IntersectInto(small, big, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, KWayIntersect) {
  std::vector<uint32_t> a{1, 2, 3, 4, 5}, b{2, 3, 4, 6}, c{0, 3, 4, 5};
  std::vector<uint32_t> out;
  IntersectKWay({a, b, c}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 4}));
}

TEST(Sorted, KWaySingleList) {
  std::vector<uint32_t> a{7, 9};
  std::vector<uint32_t> out;
  IntersectKWay({a}, &out);
  EXPECT_EQ(out, a);
}

TEST(Sorted, KWayEmptyInput) {
  std::vector<uint32_t> out{42};
  IntersectKWay({}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, UnionDeduplicates) {
  std::vector<uint32_t> a{1, 3, 5}, b{3, 4, 5}, c{1};
  std::vector<uint32_t> out;
  UnionInto({a, b, c}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 3, 4, 5}));
}

TEST(Sorted, UnionOfNothing) {
  std::vector<uint32_t> out{9};
  UnionInto({}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, IntersectInPlaceKeepsCommon) {
  std::vector<uint32_t> v{1, 2, 3, 4};
  std::vector<uint32_t> other{2, 4, 8};
  IntersectInPlace(&v, other);
  EXPECT_EQ(v, (std::vector<uint32_t>{2, 4}));
}

TEST(Sorted, GallopLowerBoundFindsFirstGeq) {
  std::vector<uint32_t> a{2, 4, 6, 8, 10, 12};
  EXPECT_EQ(GallopLowerBound(a, 0, 1), 0u);
  EXPECT_EQ(GallopLowerBound(a, 0, 6), 2u);
  EXPECT_EQ(GallopLowerBound(a, 0, 7), 3u);
  EXPECT_EQ(GallopLowerBound(a, 2, 13), 6u);
  EXPECT_EQ(GallopLowerBound(a, 5, 12), 5u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = r.Range(3, 5);
    EXPECT_GE(x, 3u);
    EXPECT_LE(x, 5u);
    saw_lo |= x == 3;
    saw_hi |= x == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double u = r.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelForDynamic(8, 1000, 7, [&](uint64_t b, uint64_t e, uint32_t) {
    for (uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SequentialFallback) {
  std::vector<int> hits(100, 0);
  ParallelForDynamic(1, 100, 9, [&](uint64_t b, uint64_t e, uint32_t tid) {
    EXPECT_EQ(tid, 0u);
    for (uint64_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroTotalIsNoop) {
  ParallelForDynamic(4, 0, 8, [&](uint64_t, uint64_t, uint32_t) { FAIL(); });
  ParallelForStatic(4, 0, [&](uint64_t, uint64_t, uint32_t) { FAIL(); });
}

TEST(ParallelFor, StaticCoversAllIndicesOnceWithWorkersInRange) {
  // More workers than items leaves some slices empty; none may run twice.
  for (uint64_t total : {1000u, 3u}) {
    std::vector<std::atomic<int>> hits(total);
    std::atomic<uint32_t> bad_worker{0};
    ParallelForStatic(4, total, [&](uint64_t b, uint64_t e, uint32_t tid) {
      if (tid >= 4) bad_worker.store(tid + 1);
      for (uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "total " << total;
    EXPECT_EQ(bad_worker.load(), 0u) << "total " << total;
  }
}

TEST(ParallelFor, DynamicWorkerIdsInRange) {
  std::atomic<uint32_t> max_tid{0};
  ParallelForDynamic(3, 500, 1, [&](uint64_t, uint64_t, uint32_t tid) {
    uint32_t seen = max_tid.load();
    while (tid > seen && !max_tid.compare_exchange_weak(seen, tid)) {
    }
  });
  EXPECT_LT(max_tid.load(), 3u);
}

// ---------------------------------------------------------------------------
// ThreadCache. Tests use the process-wide cache, as production code does;
// gtest runs them one at a time, and every earlier task has been joined.
// ---------------------------------------------------------------------------

/// Polls `done` until it holds or 30 s pass; false on timeout, so a broken
/// cache fails the test instead of hanging it.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ThreadCache, SequentialRunsReuseOneParkedThread) {
  ThreadCache& cache = ThreadCache::Global();
  std::thread::id first;
  cache.Run([&] { first = std::this_thread::get_id(); }).Join();
  const uint64_t started = cache.threads_started();
  // A joined task's thread is parked again before the join returns, so
  // the next task finds it waiting.
  for (int i = 0; i < 20; ++i) {
    std::thread::id id;
    cache.Run([&] { id = std::this_thread::get_id(); }).Join();
    EXPECT_EQ(id, first) << "run " << i;
    EXPECT_NE(id, std::this_thread::get_id());
  }
  EXPECT_EQ(cache.threads_started(), started);
  EXPECT_GE(cache.parked(), 1u);
}

TEST(ThreadCache, GrowsForBlockedTasksThenParksAtMostHardwareConcurrency) {
  ThreadCache& cache = ThreadCache::Global();
  EXPECT_EQ(cache.max_parked(), std::max(1u, std::thread::hardware_concurrency()));
  constexpr int kTasks = 16;
  const uint64_t started = cache.threads_started();
  const size_t parked = cache.parked();
  // Every task blocks until all of them are running: a cache that queued
  // work behind busy threads would never open the gate.
  std::atomic<int> running{0};
  std::atomic<bool> gate{false};
  std::vector<ThreadCache::Handle> handles;
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(cache.Run([&] {
      running.fetch_add(1);
      WaitFor([&] { return gate.load(); });
    }));
  }
  const bool all_running = WaitFor([&] { return running.load() == kTasks; });
  gate.store(true);
  for (auto& h : handles) h.Join();
  ASSERT_TRUE(all_running) << running.load() << " of " << kTasks << " tasks ran";
  EXPECT_GE(cache.threads_started() - started, kTasks - parked);
  EXPECT_LE(cache.parked(), cache.max_parked());
}

TEST(ThreadCache, HandleJoinsAfterItsLauncherIsGone) {
  // The launching object dies first; the handle alone still waits for the
  // task, and by the time Join returns the task's captures are destroyed.
  struct Launcher {
    std::vector<int> data{1, 2, 3, 4};
    ThreadCache::Handle Launch(std::atomic<int>* sum, std::shared_ptr<int> token) {
      return ThreadCache::Global().Run([copy = data, sum, token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        sum->store(std::accumulate(copy.begin(), copy.end(), 0));
      });
    }
  };
  std::atomic<int> sum{0};
  auto token = std::make_shared<int>(0);
  ThreadCache::Handle handle;
  {
    auto launcher = std::make_unique<Launcher>();
    handle = launcher->Launch(&sum, token);
  }
  EXPECT_TRUE(handle.joinable());
  handle.Join();
  EXPECT_FALSE(handle.joinable());
  EXPECT_EQ(sum.load(), 10);
  EXPECT_EQ(token.use_count(), 1) << "the task's captures outlived the join";
}

using IntChannel = Channel<int>;
constexpr auto kNeverAbort = [] { return false; };

TEST(Channel, FifoOrderWithinCapacity) {
  IntChannel ch(4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ch.Push(i, kNeverAbort), IntChannel::Op::kOk);
  EXPECT_EQ(ch.size(), 4u);
  int v;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kOk);
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(ch.peak_size(), 4u);
}

TEST(Channel, ZeroCapacityClampsToOne) {
  IntChannel ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
}

TEST(Channel, CloseProducerDrainsThenCloses) {
  IntChannel ch(8);
  ch.Push(1, kNeverAbort);
  ch.Push(2, kNeverAbort);
  ch.CloseProducer();
  int v;
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kOk);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kOk);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kClosed);
}

TEST(Channel, BackpressureBoundsBuffering) {
  // A fast producer against a slow consumer never holds more than capacity.
  IntChannel ch(3);
  constexpr int kTotal = 50;
  std::thread producer([&] {
    for (int i = 0; i < kTotal; ++i) ASSERT_EQ(ch.Push(i, kNeverAbort), IntChannel::Op::kOk);
    ch.CloseProducer();
  });
  std::vector<int> got;
  int v;
  while (ch.Pop(&v, kNeverAbort) == IntChannel::Op::kOk) {
    got.push_back(v);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();
  ASSERT_EQ(got.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);
  EXPECT_LE(ch.peak_size(), 3u);
}

TEST(Channel, AbortWakesBlockedPush) {
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0, kNeverAbort), IntChannel::Op::kOk);
  std::atomic<bool> abort{false};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true);
  });
  // Full channel, nobody popping: only the abort predicate can end this.
  EXPECT_EQ(ch.Push(1, [&] { return abort.load(); }), IntChannel::Op::kAborted);
  trip.join();
}

TEST(Channel, AbortWakesBlockedPop) {
  IntChannel ch(1);
  std::atomic<bool> abort{false};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true);
  });
  int v;
  EXPECT_EQ(ch.Pop(&v, [&] { return abort.load(); }), IntChannel::Op::kAborted);
  trip.join();
}

TEST(Channel, CloseConsumerWakesAndRejectsProducers) {
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0, kNeverAbort), IntChannel::Op::kOk);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.CloseConsumer();
  });
  EXPECT_EQ(ch.Push(1, kNeverAbort), IntChannel::Op::kClosed);
  closer.join();
  // Buffered items were discarded; further pushes fail immediately.
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.Push(2, kNeverAbort), IntChannel::Op::kClosed);
}

TEST(Channel, AbortFreeBlockingPopTakesNoTimedSlices) {
  // The untimed overloads must park on the condvar, not poll: a consumer
  // blocked for ~100ms with no abort probe would previously spin dozens of
  // 2ms wait_for slices; now it takes zero.
  IntChannel ch(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(ch.Push(42, kNeverAbort), IntChannel::Op::kOk);
    ch.CloseProducer();
  });
  int v;
  EXPECT_EQ(ch.Pop(&v), IntChannel::Op::kOk);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(ch.Pop(&v), IntChannel::Op::kClosed);
  producer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

TEST(Channel, AbortFreeBlockingPushTakesNoTimedSlices) {
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0), IntChannel::Op::kOk);
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int v;
    ASSERT_EQ(ch.Pop(&v), IntChannel::Op::kOk);
    ASSERT_EQ(ch.Pop(&v), IntChannel::Op::kOk);
  });
  // Channel full: the untimed push blocks until the consumer drains, with
  // no timed polling in between.
  EXPECT_EQ(ch.Push(1), IntChannel::Op::kOk);
  consumer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

TEST(Channel, CloseConsumerWakesUntimedPush) {
  // Abandonment must not depend on a polling probe: CloseConsumer alone has
  // to wake a producer parked in the untimed Push.
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0), IntChannel::Op::kOk);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.CloseConsumer();
  });
  EXPECT_EQ(ch.Push(1), IntChannel::Op::kClosed);
  closer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

TEST(Channel, TimedOverloadsStillCountSlices) {
  // The probing overloads remain available for cancel/deadline paths — and
  // observably slice their waits (this is what the counter is for).
  IntChannel ch(1);
  std::atomic<bool> abort{false};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true);
  });
  int v;
  EXPECT_EQ(ch.Pop(&v, [&] { return abort.load(); }), IntChannel::Op::kAborted);
  trip.join();
  EXPECT_GE(ch.timed_wait_slices(), 1u);
}

TEST(Channel, WeightedItemsRecycleAndStayWithinCapacity) {
  // The streaming cursor's use: items weigh their row count, the consumer's
  // current item counts until its next Pop, and popped items come back to
  // the producer through Push instead of being reallocated.
  using Block = std::vector<int>;
  Channel<Block> ch(10);
  constexpr int kBlocks = 200;
  std::atomic<int> fresh{0};  // pushes that got back a never-used item
  std::thread producer([&] {
    Block b;
    for (int i = 0; i < kBlocks; ++i) {
      b.assign(static_cast<size_t>(1 + i % 4), i);
      ASSERT_EQ(ch.Push(&b, b.size()), Channel<Block>::Op::kOk);
      if (b.capacity() == 0) fresh.fetch_add(1);
      EXPECT_LE(ch.size(), 10u);
    }
    ch.CloseProducer();
  });
  Block got;
  int next = 0;
  while (ch.Pop(&got) == Channel<Block>::Op::kOk) {
    ASSERT_EQ(got.size(), static_cast<size_t>(1 + next % 4));
    EXPECT_EQ(got.front(), next);
    ++next;
    if (next % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();
  EXPECT_EQ(next, kBlocks);
  EXPECT_LE(ch.peak_size(), 10u);
  EXPECT_EQ(ch.timed_wait_slices(), 0u);  // abort-free ends never poll
  // Only the items in flight before the first recycle were ever new.
  EXPECT_LE(fresh.load(), 12);
}

TEST(Channel, HeldItemCountsUntilTheNextPop) {
  Channel<int> ch(2);
  ASSERT_EQ(ch.Push(1), Channel<int>::Op::kOk);
  ASSERT_EQ(ch.Push(2), Channel<int>::Op::kOk);
  int v = 0;
  ASSERT_EQ(ch.Pop(&v), Channel<int>::Op::kOk);
  // The popped item still holds its unit: the channel is full.
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.Push(3, [] { return true; }), Channel<int>::Op::kAborted);
  ASSERT_EQ(ch.Pop(&v), Channel<int>::Op::kOk);  // releases item 1
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.Push(3, kNeverAbort), Channel<int>::Op::kOk);
}

TEST(Channel, ConsumerWaitingIsVisibleToTheProducer) {
  Channel<int> ch(4);
  EXPECT_FALSE(ch.consumer_waiting());
  std::thread consumer([&] {
    int v = 0;
    EXPECT_EQ(ch.Pop(&v), Channel<int>::Op::kOk);
    EXPECT_EQ(v, 7);
  });
  while (!ch.consumer_waiting()) std::this_thread::yield();
  ASSERT_EQ(ch.Push(7), Channel<int>::Op::kOk);
  EXPECT_FALSE(ch.consumer_waiting());  // the push satisfied the wait
  consumer.join();
}

TEST(Channel, AnnouncingConsumerTakesWhatTheProducerHolds) {
  Channel<int> ch(4);
  int held = 7;  // a unit the producer holds without pushing it
  ch.SetTake([&](int* out) {
    if (held == 0) return size_t{0};
    *out = held;
    held = 0;
    return size_t{1};
  });
  ch.Push(1);
  int v = 0;
  // Queued items come first; only an empty channel makes the consumer take.
  ASSERT_EQ(ch.Pop(&v, Channel<int>::Wait::kAnnounce), Channel<int>::Op::kOk);
  EXPECT_EQ(v, 1);
  ASSERT_EQ(ch.Pop(&v, Channel<int>::Wait::kAnnounce), Channel<int>::Op::kOk);
  EXPECT_EQ(v, 7);
  EXPECT_EQ(ch.size(), 1u);  // the taken unit counts as popped
  EXPECT_FALSE(ch.consumer_waiting());
  ch.CloseProducer();
  EXPECT_EQ(ch.Pop(&v, Channel<int>::Wait::kAnnounce), Channel<int>::Op::kClosed);
}

TEST(Channel, QuietConsumerTakesNothing) {
  Channel<int> ch(4);
  std::atomic<bool> asked{false};
  ch.SetTake([&](int* out) {
    asked.store(true);
    *out = 99;
    return size_t{1};
  });
  std::thread consumer([&] {
    int v = 0;
    EXPECT_EQ(ch.Pop(&v, Channel<int>::Wait::kQuiet), Channel<int>::Op::kOk);
    EXPECT_EQ(v, 7);  // the pushed item, never the held one
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(ch.Push(7), Channel<int>::Op::kOk);
  consumer.join();
  EXPECT_FALSE(asked.load());
}

TEST(Channel, QuietConsumerParksUnseen) {
  Channel<int> ch(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    int v = 0;
    EXPECT_EQ(ch.Pop(&v, Channel<int>::Wait::kQuiet), Channel<int>::Op::kOk);
    EXPECT_EQ(v, 7);
    popped.store(true);
  });
  // However long the consumer sits parked, the producer never sees it.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(ch.consumer_waiting());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(popped.load());
  ASSERT_EQ(ch.Push(7), Channel<int>::Op::kOk);
  consumer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

}  // namespace
}  // namespace turbo::util
