// Seeded violation [unguarded-mutex]: a class holds a Mutex but annotates
// no field with JISC_GUARDED_BY, so -Wthread-safety has nothing to check.
#include "fixture_support.h"

namespace fix {

class UnguardedCache {
 public:
  void Hit() {
    MutexLock lk(&mu_);
    ++hits_;
  }

 private:
  Mutex mu_;
  int hits_ = 0;
};

}  // namespace fix
