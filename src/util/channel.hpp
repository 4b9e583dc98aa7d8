// Bounded MPSC channel for producer/consumer delivery of row blocks.
//
// The streaming cursor runs the operator pipeline on a producer thread and
// hands whole row blocks to the consumer; this channel is the handoff. Each
// item carries a weight in units (rows, for the cursor), and the capacity is
// counted in units, not items: an item counts from its Push until the
// consumer's next Pop (or CloseConsumer), so the block the consumer is still
// reading holds its rows against the capacity just like the queued ones.
//
// Items are recycled instead of reallocated: Pop hands the consumer's
// previous item back to the channel, and Push returns one of those recycled
// items to the producer in place of the item it handed over. A block-reusing
// pair of ends therefore allocates nothing in the steady state.
//
// Both ends block on condition variables. A caller that has an abort source
// the channel cannot see (a cancel token or a deadline — nothing ever
// notifies the condvar for those) passes an abort predicate, and the wait is
// sliced so the predicate is polled even while the producer is parked on a
// full channel or the consumer on an empty one. A caller with no such
// source uses the predicate-free overloads, which block in a plain
// untimed wait: every event that can end the wait (an item arriving, units
// being released, either end closing) notifies the condvar, so timed
// polling would be pure wasted wakeups. timed_wait_slices() counts the
// sliced waits so tests can assert the abort-free path never spuriously
// wakes.
//
// consumer_waiting() lets a batching producer hand over a partial item the
// moment the consumer is parked on an empty channel, so batching never
// delays a row the consumer is already waiting for. A producer that may
// stall while it holds a partial item also registers a take function
// (SetTake): a consumer that announces itself on an empty channel first
// takes whatever that function yields, so it never waits for units that
// already exist. A consumer that wants whole items (a block reader that
// buffers its output anyway) pops with Wait::kQuiet: it parks without
// announcing itself and takes nothing, so where the producer cuts its items
// depends only on what it produced, never on when the consumer happened to
// park.
//
// Protocol:
//   - producer: Push(...) until done or aborted, then CloseProducer().
//   - consumer: Pop(...) until kClosed, or CloseConsumer() to walk away —
//     that drops any buffered items and turns every subsequent Push into
//     kClosed, which the pipeline treats like a LIMIT-style kStop.
//     CloseConsumer also wakes a producer blocked in an untimed Push, which
//     is why cursor abandonment needs no timed probe.
//
// Multiple producers are safe (parallel solver workers each reach the
// ChannelSink under the engine's delivery mutex today, but the channel does
// not rely on that); there must be at most one consumer.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace turbo::util {

template <typename T>
class Channel {
 public:
  enum class Op : uint8_t {
    kOk,       ///< item transferred
    kClosed,   ///< Push: consumer walked away; Pop: producer done and empty
    kAborted,  ///< the abort predicate fired while blocked
  };

  /// How a consumer parked on an empty channel shows to the producer.
  enum class Wait : uint8_t {
    kAnnounce,  ///< consumer_waiting() turns true: hand over what you have
    kQuiet,     ///< consumer_waiting() stays false: hand over whole items
  };

  explicit Channel(size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers where a kAnnounce consumer that finds the channel empty takes
  /// the units the producer holds but has not pushed: `take(out)` runs with
  /// the channel's lock held, after consumer_waiting() has turned true, and
  /// moves what it can into *out, returning its units (0: nothing; the
  /// consumer parks). Those units count as a popped item. Set before either
  /// end is used.
  void SetTake(std::function<size_t(T*)> take) { take_ = std::move(take); }

  /// Blocks until `units` more fit. `abort()` is polled every wait slice;
  /// returning true abandons the push. On kOk `*item` has been handed over
  /// and replaced by a recycled item (or a default-constructed one); on any
  /// other result it is left untouched.
  template <typename AbortFn>
  Op Push(T* item, size_t units, AbortFn&& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (consumer_closed_) return Op::kClosed;
      if (Fits(units)) break;
      if (abort()) return Op::kAborted;
      ++timed_wait_slices_;
      not_full_.wait_for(lock, kWaitSlice);
    }
    DoPush(item, units, &lock);
    return Op::kOk;
  }

  /// Abort-free push: blocks untimed while the units do not fit. Only a
  /// consumer event can end the wait (units released by Pop, or
  /// CloseConsumer), and both notify — no polling, no spurious timed
  /// wakeups.
  Op Push(T* item, size_t units) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return consumer_closed_ || Fits(units); });
    if (consumer_closed_) return Op::kClosed;
    DoPush(item, units, &lock);
    return Op::kOk;
  }

  /// One-unit convenience pushes for callers that do not recycle.
  template <typename AbortFn>
  Op Push(T item, AbortFn&& abort) {
    return Push(&item, 1, std::forward<AbortFn>(abort));
  }
  Op Push(T item) { return Push(&item, 1); }

  /// Releases the consumer's previous item (its units free up, and the item
  /// itself — whatever `*out` holds after a successful Pop — is kept for
  /// recycling), then blocks while the channel is empty and the producer
  /// side is still open. kClosed means end-of-stream: every pushed item has
  /// been popped.
  template <typename AbortFn>
  Op Pop(T* out, Wait wait, AbortFn&& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    Release(out);
    while (count_ == 0) {
      if (producer_closed_ || abort()) {
        waiting_.store(false, std::memory_order_relaxed);
        return producer_closed_ ? Op::kClosed : Op::kAborted;
      }
      if (AnnounceAndTake(out, wait)) return Op::kOk;
      ++timed_wait_slices_;
      not_empty_.wait_for(lock, kWaitSlice);
    }
    DoPop(out);
    return Op::kOk;
  }
  template <typename AbortFn>
  Op Pop(T* out, AbortFn&& abort) {
    return Pop(out, Wait::kAnnounce, std::forward<AbortFn>(abort));
  }

  /// Abort-free pop: blocks untimed until an item arrives or the producer
  /// closes — both producer events notify, so no timed polling is needed.
  Op Pop(T* out, Wait wait = Wait::kAnnounce) {
    std::unique_lock<std::mutex> lock(mu_);
    Release(out);
    if (count_ == 0 && !producer_closed_) {
      if (AnnounceAndTake(out, wait)) return Op::kOk;
      not_empty_.wait(lock, [this] { return producer_closed_ || count_ != 0; });
      waiting_.store(false, std::memory_order_relaxed);
    }
    if (count_ == 0) return Op::kClosed;
    DoPop(out);
    return Op::kOk;
  }

  /// True while the consumer is parked on an empty channel with
  /// Wait::kAnnounce. Read with no lock; a stale true only moves a partial
  /// handoff by one item. The read is sequentially consistent with the
  /// announcement, so a producer that publishes a unit (seq_cst) before
  /// asking either sees the consumer waiting or has its unit taken.
  bool consumer_waiting() const { return waiting_.load(std::memory_order_seq_cst); }

  /// End of stream: the consumer drains what is buffered, then sees kClosed.
  void CloseProducer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      producer_closed_ = true;
    }
    not_empty_.notify_all();
  }

  /// Consumer walks away: buffered items are dropped and blocked producers
  /// wake with kClosed. Pairs with the cursor's teardown path.
  void CloseConsumer() {
    std::vector<Slot> dropped;
    std::vector<T> recycled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      consumer_closed_ = true;
      ring_.swap(dropped);
      free_.swap(recycled);
      head_ = count_ = 0;
      units_ = 0;
      held_ = false;
    }
    not_full_.notify_all();
  }

  /// Capacity in units.
  size_t capacity() const { return cap_; }

  /// High-water mark of units in flight, for peak_buffered_rows()
  /// accounting.
  uint64_t peak_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  /// Number of sliced (timed) waits taken so far. Zero on the abort-free
  /// Push/Pop overloads by construction — the busy-wakeup regression guard.
  uint64_t timed_wait_slices() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_wait_slices_;
  }

  /// Units in flight: queued items plus the consumer's current one.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return units_;
  }

 private:
  struct Slot {
    T item{};
    size_t units = 0;
  };

  // Short enough that deadlines are observed promptly, long enough that an
  // idle blocked end costs nothing measurable.
  static constexpr std::chrono::milliseconds kWaitSlice{2};
  // Recycled items kept for the producer. A block channel circulates a few
  // blocks (the producer's, the queued ones, the consumer's); extras beyond
  // this are freed rather than hoarded.
  static constexpr size_t kMaxRecycled = 8;

  /// An oversized item still moves through an otherwise empty channel.
  bool Fits(size_t units) const { return units_ == 0 || units_ + units <= cap_; }

  void DoPush(T* item, size_t units, std::unique_lock<std::mutex>* lock) {
    if (count_ == ring_.size()) Grow();
    Slot& s = ring_[(head_ + count_) % ring_.size()];
    s.item = std::move(*item);
    s.units = units;
    ++count_;
    units_ += units;
    if (units_ > peak_) peak_ = units_;
    waiting_.store(false, std::memory_order_relaxed);
    if (free_.empty()) {
      *item = T{};
    } else {
      *item = std::move(free_.back());
      free_.pop_back();
    }
    lock->unlock();
    not_empty_.notify_one();
  }

  /// The consumer is about to park on an empty channel: shows it to the
  /// producer (kAnnounce only), then takes what the producer holds. True
  /// when *out now holds taken units. Called with the lock held.
  bool AnnounceAndTake(T* out, Wait wait) {
    waiting_.store(wait == Wait::kAnnounce, std::memory_order_seq_cst);
    if (wait != Wait::kAnnounce || !take_) return false;
    // A recycled item goes in, so the take can leave the producer an item
    // that already has storage.
    const bool recycled = !free_.empty();
    if (recycled) {
      *out = std::move(free_.back());
      free_.pop_back();
    }
    // A unit the take misses was published after the announcement, so the
    // producer that published it sees the consumer waiting and hands over.
    const size_t units = take_(out);
    if (units == 0) {
      if (recycled) free_.push_back(std::move(*out));
      return false;
    }
    waiting_.store(false, std::memory_order_relaxed);
    held_units_ = units;
    held_ = true;
    units_ += units;
    if (units_ > peak_) peak_ = units_;
    return true;
  }

  /// Frees the units of the item the consumer holds and keeps the item for
  /// recycling. Called with the lock held.
  void Release(T* out) {
    if (!held_) return;
    held_ = false;
    units_ -= held_units_;
    if (free_.size() < kMaxRecycled) free_.push_back(std::move(*out));
    not_full_.notify_one();
  }

  void DoPop(T* out) {
    Slot& s = ring_[head_];
    *out = std::move(s.item);
    held_units_ = s.units;
    held_ = true;
    head_ = (head_ + 1) % ring_.size();
    --count_;
  }

  /// Doubles the ring, keeping FIFO order. Only while the queue deepens
  /// past anything seen before; the steady state never grows.
  void Grow() {
    std::vector<Slot> bigger(ring_.empty() ? 4 : ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    ring_.swap(bigger);
    head_ = 0;
  }

  const size_t cap_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Slot> ring_;  ///< FIFO ring: count_ items from head_
  size_t head_ = 0;
  size_t count_ = 0;
  std::vector<T> free_;     ///< recycled items for the producer
  size_t units_ = 0;        ///< queued units + held_units_ while held_
  size_t held_units_ = 0;   ///< units of the item the consumer holds
  bool held_ = false;       ///< the consumer holds a popped item
  uint64_t peak_ = 0;
  uint64_t timed_wait_slices_ = 0;
  bool producer_closed_ = false;
  bool consumer_closed_ = false;
  // Its own cache line: the producer reads it per unit, and the consumer's
  // bookkeeping above must not invalidate it on every pop.
  alignas(64) std::atomic<bool> waiting_{false};
  std::function<size_t(T*)> take_;
};

}  // namespace turbo::util
