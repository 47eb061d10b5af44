#ifndef JISC_COMMON_BOUNDED_QUEUE_H_
#define JISC_COMMON_BOUNDED_QUEUE_H_

#include <cstddef>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace jisc {

// Bounded blocking multi-producer / multi-consumer queue. The parallel
// execution engine uses it for every channel: the coordinator -> shard
// feeds and the worker -> coordinator acknowledgements.
//
// Backpressure: Push blocks while the queue is full. Shutdown/drain
// protocol: Close() wakes every waiter; subsequent Push calls are rejected,
// while Pop keeps returning buffered items until the queue is empty and
// only then reports exhaustion. This makes "close, then join the consumer"
// a loss-free drain.
//
// Concurrency contract (compiler-checked): items_ and closed_ are only
// touched under mu_; notifies are issued after the state change is
// committed under the lock and the lock is dropped, so a parked peer
// cannot miss a wake-up, a woken peer never immediately blocks on the
// still-held mutex, and the notify path can never re-enter mu_ (see
// tests/parallel_test.cc BoundedQueueTest.*Parked* for the regression
// guards).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    JISC_CHECK(capacity_ >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while full. Returns false (and drops `v`) if the queue was
  // closed before space became available.
  bool Push(T v) JISC_EXCLUDES(mu_) {
    {
      ReleasableMutexLock lk(&mu_);
      while (!closed_ && items_.size() >= capacity_) not_full_.Wait(&mu_);
      if (closed_) return false;
      items_.push_back(std::move(v));
      lk.Release();
    }
    not_empty_.NotifyOne();
    return true;
  }

  // Non-blocking push; false when full or closed.
  bool TryPush(T& v) JISC_EXCLUDES(mu_) {
    {
      MutexLock lk(&mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(v));
    }
    not_empty_.NotifyOne();
    return true;
  }

  // Blocks while empty and open. Returns false only when the queue is
  // closed AND fully drained.
  bool Pop(T* out) JISC_EXCLUDES(mu_) {
    {
      ReleasableMutexLock lk(&mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(&mu_);
      if (items_.empty()) return false;  // closed and drained
      *out = std::move(items_.front());
      items_.pop_front();
      lk.Release();
    }
    not_full_.NotifyOne();
    return true;
  }

  // Non-blocking pop; false when nothing is buffered.
  bool TryPop(T* out) JISC_EXCLUDES(mu_) {
    {
      MutexLock lk(&mu_);
      if (items_.empty()) return false;
      *out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return true;
  }

  void Close() JISC_EXCLUDES(mu_) {
    {
      MutexLock lk(&mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const JISC_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    return closed_;
  }

  size_t size() const JISC_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ JISC_GUARDED_BY(mu_);
  bool closed_ JISC_GUARDED_BY(mu_) = false;
};

}  // namespace jisc

#endif  // JISC_COMMON_BOUNDED_QUEUE_H_
