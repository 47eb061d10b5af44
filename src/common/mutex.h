#ifndef JISC_COMMON_MUTEX_H_
#define JISC_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace jisc {

class CondVar;

// std::mutex wrapped in clang capability attributes so -Wthread-safety can
// track acquisitions. libstdc++'s std::mutex carries no attributes, which
// makes JISC_GUARDED_BY useless with raw std::lock_guard — hence this
// wrapper. Zero overhead: every method is a single inlined forward.
//
// Use MutexLock for scoped holds; ReleasableMutexLock when the hot path
// wants to drop the lock before a condition-variable notify.
class JISC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() JISC_ACQUIRE() { mu_.lock(); }
  void Unlock() JISC_RELEASE() { mu_.unlock(); }
  bool TryLock() JISC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  // jisc-verify: allow(unguarded-mutex) — this IS the annotated wrapper
  std::mutex mu_;
};

// RAII scoped hold of a Mutex.
class JISC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) JISC_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() JISC_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Like MutexLock, but the lock may be dropped early with Release() — the
// queue implementations use this to notify condition variables after the
// critical section, so a woken thread never immediately blocks on the
// still-held mutex.
class JISC_SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex* mu) JISC_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~ReleasableMutexLock() JISC_RELEASE() {
    if (!released_) mu_->Unlock();
  }

  void Release() JISC_RELEASE() {
    released_ = true;
    mu_->Unlock();
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex* const mu_;
  bool released_ = false;
};

// Condition variable paired with jisc::Mutex. Wait/WaitFor require the
// mutex held (and the analysis checks it); the notify side deliberately has
// no lock requirement, so callers notify after dropping the mutex and a
// notify path can never re-enter a non-recursive mutex its caller holds.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) JISC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the mutex
  }

  // Returns false on timeout (spurious wakeups return true; callers loop on
  // their predicate regardless).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      JISC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lk, timeout);
    lk.release();  // the caller still owns the mutex
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace jisc

#endif  // JISC_COMMON_MUTEX_H_
