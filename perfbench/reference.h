#ifndef JISC_PERFBENCH_REFERENCE_H_
#define JISC_PERFBENCH_REFERENCE_H_

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

// A fixed piece of work of the same character as the engine's hot path --
// a node-based hash map of small vectors, 40-byte items appended, expired
// and copied -- that uses none of the program's code. The machine this
// benchmark runs on changes speed by up to 1.7x for minutes at a time
// (clock frequency and other tenants' load); the kernel's time, taken next
// to each slice, measures that speed so the driver can divide it out
// (README.md, "Machine speed"). Its data stays small (about 100 KiB), and
// it is run once untimed before the timed run, so the engine's own cache
// footprint does not change the timed run.
class ReferenceKernel {
 public:
  // Runs the work twice and returns the second run's duration in ns.
  uint64_t Measure() {
    Work();
    const auto t0 = std::chrono::steady_clock::now();
    Work();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }

 private:
  struct Item {
    uint64_t seq;
    int64_t key;
    uint64_t a, b, c;
  };
  static constexpr int kKeys = 256;
  static constexpr uint64_t kLive = 1500;
  static constexpr int kOps = 8192;

  void Work() {
    uint64_t acc = 0;
    for (int i = 0; i < kOps; ++i) {
      rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
      const int64_t key = static_cast<int64_t>((rng_ >> 33) % kKeys);
      ++seq_;
      map_[key].push_back(Item{seq_, key, rng_, seq_ ^ rng_, 0});
      const uint64_t slot = seq_ % kLive;
      if (seq_ > kLive) {
        std::vector<Item>& old = map_[live_[slot]];
        if (!old.empty()) old.erase(old.begin());
      }
      live_[slot] = key;
      const std::vector<Item>& probe = map_[(key * 7 + 3) % kKeys];
      std::vector<Item> copy(probe.begin(), probe.end());
      for (const Item& it : copy) acc += it.a ^ it.seq;
    }
    checksum_ += acc;
  }

  std::unordered_map<int64_t, std::vector<Item>> map_;
  int64_t live_[kLive] = {};
  uint64_t rng_ = 1;
  uint64_t seq_ = 0;
  uint64_t checksum_ = 0;  // keeps the work observable
};

}  // namespace perfbench

#endif  // JISC_PERFBENCH_REFERENCE_H_
