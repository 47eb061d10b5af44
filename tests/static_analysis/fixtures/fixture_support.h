// Minimal stand-ins for the project types the jisc-verify checks key on.
// The fixtures are analyzed, never linked into the product; they only need
// to parse (textual frontend: token patterns; clang frontend: real AST).
#ifndef JISC_TESTS_STATIC_ANALYSIS_FIXTURES_FIXTURE_SUPPORT_H_
#define JISC_TESTS_STATIC_ANALYSIS_FIXTURES_FIXTURE_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#define JISC_COORDINATOR_ONLY __attribute__((annotate("jisc_coordinator_only")))
#define JISC_GUARDED_BY(x)
#define JISC_CHECK(cond) \
  if (!(cond)) ::abort(); else (void)0

namespace fix {

struct Histogram {
  void Record(uint64_t) {}
};

struct TraceRecorder {
  uint64_t NowNs() { return 0; }
};

struct TelemetryRegistry {
  void AddInput(uint64_t) {}
  void NoteStall(int) {}
};

struct Observability {
  Histogram output_delay_ns;
  TraceRecorder trace;
  TelemetryRegistry* telemetry = nullptr;
};

class Mutex {
 public:
  void Lock() {}
  void Unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

struct ByteWriter {
  void PutU64(uint64_t) {}
  std::string Take() { return ""; }
};

}  // namespace fix

#endif  // JISC_TESTS_STATIC_ANALYSIS_FIXTURES_FIXTURE_SUPPORT_H_
