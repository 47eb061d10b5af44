// Clean near-miss [lock-order]: two locks, always acquired in the same
// order (including through a helper call) — the acquisition graph has an
// a_ -> b_ edge from two places but no cycle.
#include "fixture_support.h"

namespace fix {

class CleanLockOrder {
 public:
  void Produce() {
    MutexLock lk(&a_);
    MutexLock lk2(&b_);
    ++n_;
  }

  void Consume() {
    MutexLock lk(&a_);
    CleanTouchB();
  }

 private:
  void CleanTouchB() {
    MutexLock lk(&b_);
    --n_;
  }

  Mutex a_;
  Mutex b_;
  int n_ JISC_GUARDED_BY(b_) = 0;
};

}  // namespace fix
