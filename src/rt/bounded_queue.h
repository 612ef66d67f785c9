#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace shedmon::rt {

// What to do when an ingest buffer is full. Shared by the threaded
// BoundedQueue below and by the synchronous bounded-ingest path inside
// api::Pipeline, which bounds its open-bin record buffer with the two drop
// policies only.
enum class OverflowPolicy : uint8_t {
  // Producer waits for space (backpressure). The synchronous Pipeline facade
  // rejects it: Push IS the processing thread, so there is nothing to wait
  // for.
  kBlock = 0,
  // The incoming item is discarded; the buffer keeps what it has.
  kDropNewest = 1,
  // The oldest buffered item is evicted to make room for the incoming one.
  kDropOldest = 2,
};

// Fixed-capacity MPMC queue with overflow policies and drop accounting —
// the primitive for a live capture front-end where a capture thread
// produces and the pipeline coordinator consumes. Condvar-based: the
// capture loop this feeds is bin-paced (100ms), not per-packet-latency
// bound, so lock-free machinery would buy nothing here.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity, OverflowPolicy policy = OverflowPolicy::kBlock)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Returns false iff the item was dropped (kDropNewest on a full queue) or
  // the queue is closed. kBlock waits; kDropOldest always succeeds by
  // evicting the head. When `evicted` is non-null, a kDropOldest eviction
  // hands the displaced item back through it — essential when items are
  // handles to pooled resources (capture slots) that must be recycled, not
  // leaked, on overflow.
  bool Push(T item, std::optional<T>* evicted = nullptr) SHEDMON_EXCLUDES(mutex_) {
    if (evicted != nullptr) {
      evicted->reset();
    }
    {
      util::MutexLock lock(mutex_);
      if (closed_) {
        return false;
      }
      if (items_.size() >= capacity_) {
        switch (policy_) {
          case OverflowPolicy::kBlock:
            while (items_.size() >= capacity_ && !closed_) {
              not_full_.Wait(lock);
            }
            if (closed_) {
              return false;
            }
            break;
          case OverflowPolicy::kDropNewest:
            ++dropped_newest_;
            return false;
          case OverflowPolicy::kDropOldest:
            if (evicted != nullptr) {
              *evicted = std::move(items_.front());
            }
            items_.pop_front();
            ++dropped_oldest_;
            break;
        }
      }
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained;
  // nullopt means closed-and-empty (consumer should exit).
  std::optional<T> Pop() SHEDMON_EXCLUDES(mutex_) {
    std::optional<T> item;
    {
      util::MutexLock lock(mutex_);
      while (items_.empty() && !closed_) {
        not_empty_.Wait(lock);
      }
      if (items_.empty()) {
        return std::nullopt;
      }
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return item;
  }

  // Bounded-wait variant for consumer loops that interleave queue drains
  // with periodic work (a capture loop advancing the pipeline clock): waits
  // at most ~`timeout_us` for an item, then returns nullopt. A single timed
  // wait, not a deadline loop — spurious wakeups surface as an early empty
  // return, which poll-style callers absorb by design.
  std::optional<T> PopFor(uint64_t timeout_us) SHEDMON_EXCLUDES(mutex_) {
    std::optional<T> item;
    {
      util::MutexLock lock(mutex_);
      if (items_.empty() && !closed_) {
        not_empty_.WaitFor(lock, timeout_us);
      }
      if (items_.empty()) {
        return std::nullopt;
      }
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return item;
  }

  // Non-blocking variant for poll loops.
  std::optional<T> TryPop() SHEDMON_EXCLUDES(mutex_) {
    std::optional<T> item;
    {
      util::MutexLock lock(mutex_);
      if (items_.empty()) {
        return std::nullopt;
      }
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return item;
  }

  // Wakes blocked producers and consumers; Push fails and Pop drains then
  // returns nullopt. Idempotent.
  void Close() SHEDMON_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  size_t Size() const SHEDMON_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return items_.size();
  }
  bool closed() const SHEDMON_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return closed_;
  }
  size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }
  uint64_t dropped_newest() const SHEDMON_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return dropped_newest_;
  }
  uint64_t dropped_oldest() const SHEDMON_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return dropped_oldest_;
  }

 private:
  const size_t capacity_;
  const OverflowPolicy policy_;
  mutable util::Mutex mutex_;
  util::CondVar not_empty_;
  util::CondVar not_full_;
  std::deque<T> items_ SHEDMON_GUARDED_BY(mutex_);
  uint64_t dropped_newest_ SHEDMON_GUARDED_BY(mutex_) = 0;
  uint64_t dropped_oldest_ SHEDMON_GUARDED_BY(mutex_) = 0;
  bool closed_ SHEDMON_GUARDED_BY(mutex_) = false;
};

}  // namespace shedmon::rt
