// Seeded violation [unguarded-mutex]: a raw std::mutex member is rejected
// even though a field names it in JISC_GUARDED_BY — the analysis cannot
// see std::mutex acquisitions.
#include <mutex>

#include "fixture_support.h"

namespace fix {

class RawMutexCache {
 private:
  std::mutex mu_;
  int hits_ JISC_GUARDED_BY(mu_) = 0;
};

}  // namespace fix
