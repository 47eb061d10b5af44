// Clean near-miss [unguarded-mutex]: a mutable Mutex with a guarded field,
// a Mutex reached only through a pointer (not a member mutex), and a
// std::mutex named only in a comment — none of it may fire.
#include "fixture_support.h"

namespace fix {

class GuardedCache {
 public:
  int hits() const {
    MutexLock lk(&mu_);
    return hits_;
  }

 private:
  mutable Mutex mu_;
  int hits_ JISC_GUARDED_BY(mu_) = 0;
};

class BorrowedLockHolder {
 private:
  // Borrows a lock owned elsewhere; a std::mutex here would be rejected.
  Mutex* mu_ = nullptr;
};

}  // namespace fix
