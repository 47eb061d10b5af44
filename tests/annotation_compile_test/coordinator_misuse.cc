// Seeded coordinator-only contract violation: a worker-thread entry point
// calling a JISC_COORDINATOR_ONLY method. This file is never built; the
// ctest case jisc_verify/coordinator_misuse_rejected runs tools/jisc_verify
// over it and REQUIRES a nonzero exit (WILL_FAIL), proving the analyzer
// actually detects the misuse it exists to catch.

#include <cstdint>

#include "common/thread_annotations.h"

namespace jisc_lint_selftest {

class MiniExecutor {
 public:
  JISC_COORDINATOR_ONLY void Barrier();
  JISC_COORDINATOR_ONLY uint64_t StateMemory() const;

  void WorkerLoop(int shard) {
    (void)shard;
    Barrier();  // BUG: shard thread driving the quiescing barrier
  }
};

}  // namespace jisc_lint_selftest
