#ifndef JISC_PERFBENCH_ORACLE_H_
#define JISC_PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "histogram.h"
#include "types/tuple.h"

namespace perfbench {

// The driver's own hashing, independent of the program's common/hash.h.
inline uint64_t SeqMix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
inline uint64_t ComboFinal(uint64_t x) {  // murmur3 fmix64
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Identity of one result combination: a hash of its set of base-tuple
// sequence numbers that does not depend on the order of the parts.
inline uint64_t ComboHash(const jisc::Tuple& t) {
  uint64_t sum = 0;
  for (const jisc::BaseTuple& p : t.parts()) sum += SeqMix(p.seq);
  return ComboFinal(sum);
}

// Count and order-independent checksum (wrapping sum of combination
// hashes) of a multiset of result combinations.
struct Tally {
  uint64_t count = 0;
  uint64_t checksum = 0;
  void Add(uint64_t combo_hash) {
    ++count;
    checksum += combo_hash;
  }
  friend bool operator==(const Tally& a, const Tally& b) {
    return a.count == b.count && a.checksum == b.checksum;
  }
};

// Seeded input generator: streams arrive round-robin, keys are uniform on
// [0, key_domain), sequence numbers and event times count arrivals from 1.
class Generator {
 public:
  Generator(uint64_t seed, int streams, uint64_t key_domain)
      : state_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL),
        streams_(streams),
        key_domain_(key_domain) {}

  jisc::BaseTuple Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t r = SeqMix(state_);
    jisc::BaseTuple t;
    t.stream = static_cast<jisc::StreamId>(n_ % static_cast<uint64_t>(streams_));
    t.key = static_cast<jisc::JoinKey>(((r >> 32) * key_domain_) >> 32);
    t.payload = static_cast<int64_t>(r & 0xffff);
    ++n_;
    t.seq = n_;
    t.ts = n_;
    return t;
  }

  uint64_t generated() const { return n_; }

 private:
  uint64_t state_;
  int streams_;
  uint64_t key_domain_;
  uint64_t n_ = 0;
};

// The driver's model of the query's result: per stream, a count window of
// `window` tuples with per-key chains. For every arrival it derives the
// combinations the arrival completes (the outputs the program must emit)
// and, when the arrival displaces the oldest tuple of its stream, the live
// combinations that tuple was part of (the retractions the program must
// emit). Allocation-free and resident after construction.
class WindowModel {
 public:
  WindowModel(int streams, uint64_t window, uint64_t key_domain)
      : window_(window) {
    wins_.resize(static_cast<size_t>(streams));
    for (StreamWin& w : wins_) {
      w.key.assign(window, 0);
      w.seq.assign(window, 0);
      w.next.assign(window, -1);
      w.first.assign(key_domain, -1);
      w.last.assign(key_domain, -1);
      w.count.assign(key_domain, 0);
      MakeResident(w.key.data(), window * sizeof(w.key[0]));
      MakeResident(w.seq.data(), window * sizeof(w.seq[0]));
      MakeResident(w.next.data(), window * sizeof(w.next[0]));
      MakeResident(w.first.data(), key_domain * sizeof(w.first[0]));
      MakeResident(w.last.data(), key_domain * sizeof(w.last[0]));
      MakeResident(w.count.data(), key_domain * sizeof(w.count[0]));
    }
  }

  void Admit(const jisc::BaseTuple& t) {
    StreamWin& w = wins_[t.stream];
    size_t pos;
    if (w.size == window_) {
      pos = w.oldest;
      const int64_t old_key = w.key[pos];
      Combos(t.stream, old_key, SeqMix(w.seq[pos]), &retractions_);
      // The oldest tuple of the stream is the head of its key's chain.
      w.first[old_key] = w.next[pos];
      if (w.first[old_key] < 0) w.last[old_key] = -1;
      --w.count[old_key];
      w.oldest = (w.oldest + 1) % window_;
    } else {
      pos = (w.oldest + w.size) % window_;
      ++w.size;
    }
    Combos(t.stream, t.key, SeqMix(t.seq), &outputs_);
    w.key[pos] = t.key;
    w.seq[pos] = t.seq;
    w.next[pos] = -1;
    const int32_t p = static_cast<int32_t>(pos);
    if (w.last[t.key] >= 0) {
      w.next[w.last[t.key]] = p;
    } else {
      w.first[t.key] = p;
    }
    w.last[t.key] = p;
    ++w.count[t.key];
  }

  const Tally& outputs() const { return outputs_; }
  const Tally& retractions() const { return retractions_; }

 private:
  struct StreamWin {
    std::vector<int64_t> key;
    std::vector<uint64_t> seq;
    std::vector<int32_t> next;   // next ring slot with the same key, or -1
    std::vector<int32_t> first;  // per key: oldest ring slot, or -1
    std::vector<int32_t> last;   // per key: newest ring slot, or -1
    std::vector<uint32_t> count;
    size_t oldest = 0;
    size_t size = 0;
  };

  // Adds every combination of one tuple of stream `skip` (whose mixed seq is
  // `partial`) with one same-key tuple of each other stream.
  void Combos(int skip, int64_t key, uint64_t partial, Tally* tally) const {
    for (int s = 0; s < static_cast<int>(wins_.size()); ++s) {
      if (s != skip && wins_[s].count[key] == 0) return;
    }
    Enumerate(0, skip, key, partial, tally);
  }

  void Enumerate(int s, int skip, int64_t key, uint64_t partial,
                 Tally* tally) const {
    if (s == skip) ++s;
    if (s == static_cast<int>(wins_.size())) {
      tally->Add(ComboFinal(partial));
      return;
    }
    const StreamWin& w = wins_[s];
    for (int32_t p = w.first[key]; p >= 0; p = w.next[p]) {
      Enumerate(s + 1, skip, key, partial + SeqMix(w.seq[p]), tally);
    }
  }

  uint64_t window_;
  std::vector<StreamWin> wins_;
  Tally outputs_;
  Tally retractions_;
};

}  // namespace perfbench

#endif  // JISC_PERFBENCH_ORACLE_H_
