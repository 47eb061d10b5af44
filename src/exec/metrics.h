#ifndef JISC_EXEC_METRICS_H_
#define JISC_EXEC_METRICS_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace jisc {

// One deterministic work counter. Increments use relaxed atomics so the
// per-shard engines of the parallel executor can be aggregated without
// data races. They are not free: an uncontended relaxed fetch_add measured
// 7.9-9.0 ns against 0.7-0.8 ns for a plain increment (x86-64 at 2.0 GHz,
// g++ 12.2 microbenchmark), but making Counter non-atomic moved fig09
// medians by only 1-6 %, inside the run-to-run noise, so counting is not
// the bottleneck. The atomics make individual counter reads race-free,
// not every metrics entry point: which entry points belong to the
// coordinator thread is declared by JISC_COORDINATOR_ONLY on the entry
// point itself (and enforced by tools/jisc_verify) — see ParallelExecutor,
// whose quiescing metrics() carries the marker while MetricsApprox() is
// the thread-safe alternative. Counters are value types: copying snapshots
// the current count, which keeps Metrics copyable for before/after deltas
// in benches and tests.
class Counter {
 public:
  constexpr Counter() = default;
  // Implicit by design: counters initialize/compare against integer
  // literals throughout benches and tests.
  // NOLINTNEXTLINE(google-explicit-constructor)
  constexpr Counter(uint64_t v) : v_(v) {}
  Counter(const Counter& o) : v_(o.value()) {}
  Counter& operator=(const Counter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  Counter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  Counter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator--() {
    v_.fetch_sub(1, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator uint64_t() const { return value(); }

  friend std::ostream& operator<<(std::ostream& os, const Counter& c) {
    return os << c.value();
  }

 private:
  std::atomic<uint64_t> v_{0};
};

// Deterministic work counters maintained by the executor. Benchmarks report
// both wall time and these counters; the counters make the figures'
// *shapes* reproducible independently of machine noise. Each engine (and
// each shard of a parallel executor) owns one Metrics; increments are
// thread-safe, so cross-shard aggregation never races with in-flight work.
//
// Snapshot-consistency contract (what copying a Metrics means while
// workers are incrementing, i.e. what ParallelExecutor::MetricsApprox()
// returns): the copy is member-wise, one atomic load per counter, so
//  (1) every individual counter value is an exact point-in-time read —
//      never torn, never partial;
//  (2) the counters are NOT mutually consistent — `matches` may already
//      reflect an event whose `probes` increment was read a moment
//      earlier; derived sums (WorkUnits) inherit this slack; and
//  (3) because execution only ever increments these counters, each
//      counter — and therefore WorkUnits() — is monotonically
//      non-decreasing across successive approx snapshots. Monitoring
//      loops may rely on (3); anything needing cross-counter exactness
//      must quiesce first (the JISC_COORDINATOR_ONLY metrics() path).
// Locked in by parallel_test.cc (MetricsApproxTotalsAreMonotone).
struct Metrics {
  Counter arrivals;          // base tuples admitted
  Counter messages;          // operator queue messages processed
  Counter probes;            // state probes issued by operators
  // State entries a probe hands to its operator. Nested-loops joins count
  // every entry scanned; set difference, semi join and the completion
  // materializer count the live entries of the probed key; the symmetric
  // hash join counts only its matched bucket entries (the same number it
  // adds to `matches`), so entries examined but not matched never show.
  Counter probe_entries;
  Counter matches;           // successful matches
  Counter inserts;           // state insertions
  Counter removals;          // state entry removals (expiry/suppression)
  Counter outputs;           // tuples delivered to the sink
  Counter retractions;       // retractions delivered to the sink
  Counter completions;       // JISC per-key state completions performed
  Counter completion_inserts;  // entries materialized by completion
  Counter completion_dedup_hits;
  Counter eddy_visits;       // eddy routing hops (CACQ/STAIRs)
  Counter dedup_checks;      // Parallel Track sink dedup lookups
  Counter purge_scan_entries;  // entries scanned by purge detection

  // Scalar proxy for total work, used as the "running time" shape metric.
  uint64_t WorkUnits() const {
    return messages + probes + probe_entries + inserts + removals +
           completion_inserts + eddy_visits + dedup_checks +
           purge_scan_entries;
  }

  void Reset() { *this = Metrics{}; }

  Metrics& operator+=(const Metrics& o);

  std::string ToString() const;

  // Name/value snapshot of every counter, declaration order. This is the
  // bridge to the metrics JSON exporter (obs/trace_export.h), which takes
  // plain pairs so the obs library never depends on exec. Reads follow the
  // per-counter contract above.
  std::vector<std::pair<std::string, uint64_t>> NamedCounters() const;
};

}  // namespace jisc

#endif  // JISC_EXEC_METRICS_H_
