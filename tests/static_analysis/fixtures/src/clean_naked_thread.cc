// Clean near-miss [naked-thread]: std::thread appears only in comments and
// a string literal, std::this_thread is a different name, and the one real
// std::thread member carries a per-site waiver with a reason.
#include <string>
#include <thread>

namespace fix {

// Spawning a std::thread here would be a finding; naming it is not.
inline std::string CleanThreadLabel() { return "std::thread"; }

inline void CleanThreadYield() { std::this_thread::yield(); }

class CleanThreadSampler {
 private:
  // jisc-verify: allow(naked-thread) — sampler-owned monitoring thread
  std::thread thread_;
};

}  // namespace fix
