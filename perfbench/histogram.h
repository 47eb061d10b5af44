#ifndef JISC_PERFBENCH_HISTOGRAM_H_
#define JISC_PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Writes one byte per page of an initialised buffer, so that it is resident
// from here on: a zero-filled allocation may otherwise be left on the
// kernel's shared zero page until its first real write.
inline void MakeResident(void* data, size_t bytes) {
  volatile char* p = static_cast<volatile char*>(data);
  for (size_t i = 0; i < bytes; i += 4096) p[i] = p[i];
}

// Log-linear bucketing of non-negative integer samples (nanoseconds): 32
// linear sub-buckets per power of two, so a bucket is at most 1/32 of its
// lower edge wide. Samples at or above 2^40 ns (about 18 minutes) land in
// the last bucket. Counts live in caller-owned arrays of kBuckets entries.
class LogBuckets {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 40;
  static constexpr int kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  static int Index(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
    int e = 63 - __builtin_clzll(v);
    if (e >= kMaxExp) return kBuckets - 1;
    int sub = static_cast<int>(v >> (e - kSubBits)) - kSub;
    return kSub + (e - kSubBits) * kSub + sub;
  }

  static double Lower(int idx) {
    if (idx < kSub) return idx;
    int e = (idx - kSub) / kSub + kSubBits;
    int sub = (idx - kSub) % kSub;
    return static_cast<double>(static_cast<uint64_t>(kSub + sub)
                               << (e - kSubBits));
  }

  static double Width(int idx) {
    if (idx < kSub) return 1.0;
    int e = (idx - kSub) / kSub + kSubBits;
    return static_cast<double>(uint64_t{1} << (e - kSubBits));
  }

  // q-quantile (0 <= q <= 1) of the samples counted in `counts`,
  // interpolated linearly inside the bucket that holds it. 0 when empty.
  template <typename T>
  static double Quantile(const T* counts, double q) {
    uint64_t total = 0;
    for (int i = 0; i < kBuckets; ++i) total += counts[i];
    if (total == 0) return 0.0;
    double target = q * static_cast<double>(total);
    uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts[i] == 0) continue;
      if (static_cast<double>(cum + counts[i]) >= target) {
        double frac = (target - static_cast<double>(cum)) /
                      static_cast<double>(counts[i]);
        frac = std::clamp(frac, 0.0, 1.0);
        return Lower(i) + frac * Width(i);
      }
      cum += counts[i];
    }
    return Lower(kBuckets - 1);
  }
};

// A single histogram with its own storage, resident from construction on,
// plus the number and the largest of the samples.
class Histogram {
 public:
  Histogram() : counts_(LogBuckets::kBuckets, 0) {
    MakeResident(counts_.data(), counts_.size() * sizeof(counts_[0]));
  }
  void Record(uint64_t v) {
    ++counts_[LogBuckets::Index(v)];
    ++count_;
    max_ = std::max(max_, v);
  }
  double Quantile(double q) const {
    return LogBuckets::Quantile(counts_.data(), q);
  }
  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

// Python's statistics.quantiles(data, n=4) (method "exclusive"), third
// cut point: the upper quartile. Needs at least two values; with one it
// returns that value.
inline double UpperQuartile(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  if (ld == 0) return 0.0;
  if (ld == 1) return data[0];
  const long n = 4;
  const long m = ld + 1;
  const long i = 3;
  long j = i * m / n;
  if (j < 1) j = 1;
  if (j > ld - 1) j = ld - 1;
  const long delta = i * m - j * n;
  return (data[j - 1] * static_cast<double>(n - delta) +
          data[j] * static_cast<double>(delta)) /
         static_cast<double>(n);
}

}  // namespace perfbench

#endif  // JISC_PERFBENCH_HISTOGRAM_H_
