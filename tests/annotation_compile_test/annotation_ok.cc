// Positive control for the negative-compile harness: correct lock
// discipline must compile cleanly under -Wthread-safety -Werror. If this
// file ever fails, the harness flags (not the seeded violations) are what
// broke — which keeps the WILL_FAIL tests honest. It also pulls in the
// annotated production headers, so a thread-safety regression in the
// queues or sinks fails here even before the full build does.

#include <cstdint>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/sink.h"

namespace {

class Account {
 public:
  void Deposit(int64_t amount) {
    jisc::MutexLock lk(&mu_);
    balance_ += amount;
  }

  int64_t balance() const {
    jisc::MutexLock lk(&mu_);
    return balance_;
  }

  // The annotated-precondition style: the caller must hold mu_.
  void DepositLocked(int64_t amount) JISC_REQUIRES(mu_) {
    balance_ += amount;
  }

  void DepositTwice(int64_t amount) {
    jisc::MutexLock lk(&mu_);
    DepositLocked(amount);
    DepositLocked(amount);
  }

  // Early-release idiom used by the queues: mutate, drop the lock, notify.
  void DepositAndSignal(int64_t amount) {
    {
      jisc::ReleasableMutexLock lk(&mu_);
      balance_ += amount;
      lk.Release();
    }
    changed_.NotifyOne();
  }

  void WaitForBalance(int64_t at_least) {
    jisc::MutexLock lk(&mu_);
    while (balance_ < at_least) changed_.Wait(&mu_);
  }

 private:
  mutable jisc::Mutex mu_;
  jisc::CondVar changed_;
  int64_t balance_ JISC_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Account account;
  account.Deposit(1);
  account.DepositTwice(2);
  account.DepositAndSignal(3);
  account.WaitForBalance(8);
  jisc::BoundedQueue<int> mpmc(4);
  int v = 1;
  mpmc.TryPush(v);
  return account.balance() == 8 ? 0 : 1;
}
