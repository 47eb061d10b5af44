// Benchmark driver for the JISC engine. It generates seeded inputs, pushes
// them through the public processor API, times each public call from the
// outside, checks every output against its own window model and prints the
// result as one JSON line (the last line of stdout). Usage:
//
//   jisc_perfbench --workload <steady_join|migration_churn|sharded_join>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/README.md explains every metric and why it is measured so.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/parallel_engine.h"
#include "exec/parallel_executor.h"
#include "exec/sink.h"
#include "obs/observability.h"
#include "plan/logical_plan.h"
#include "plan/transitions.h"
#include "stream/window.h"
#include "workload/factory.h"

#include "histogram.h"
#include "oracle.h"
#include "reference.h"

// ---------------------------------------------------------------------------
// Allocation counting: the replacement global operator new counts the calls
// made on the driver thread while t_count_allocs is set (around Push only).
// Worker threads of the sharded executor never set it.

namespace {
thread_local bool t_count_allocs = false;
thread_local uint64_t t_allocs = 0;
thread_local uint64_t t_alloc_bytes = 0;

void* CountedAlloc(std::size_t n) {
  if (t_count_allocs) {
    ++t_allocs;
    t_alloc_bytes += n;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

using jisc::BaseTuple;
using jisc::Engine;
using jisc::LogicalPlan;
using jisc::Metrics;
using jisc::StreamProcessor;

using Clock = std::chrono::steady_clock;
// Captured during static initialisation, i.e. at process start.
const Clock::time_point kProcessStart = Clock::now();

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kProcessStart)
          .count());
}

// A KiB field of /proc/self/status: "VmRSS:" is the current resident set,
// "VmHWM:" its high-water mark. getrusage's ru_maxrss is not used: it
// survives execve, so under run.py it reports the Python parent's resident
// set whenever that is the larger.
uint64_t StatusKib(const char* field) {
  uint64_t kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    const size_t len = std::strlen(field);
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, field, len) == 0) {
        kib = std::strtoull(line + len, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
  }
  return kib;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  int streams;
  uint64_t window;      // count window per stream
  uint64_t key_domain;  // keys uniform on [0, key_domain)
  int shards;           // 1 = single-threaded Engine
  bool churn;           // transition/checkpoint cycle in every slice
  // Arrivals per slice. For churn: arrivals after the reversal and after
  // the return to the initial order, and cycles per slice.
  uint64_t slice_arrivals;
  uint64_t reversal_arrivals;
  uint64_t return_arrivals;
  int cycles;
  // Slices of each traced run (fixed, so its counts repeat exactly).
  int traced_slices;
};

// Unit selectivity: key domain = window, so a probe finds one match per
// stream on average and every intermediate state holds about `window`
// entries.
const Workload kWorkloads[] = {
    {"steady_join", 6, 250, 250, 1, false, 100000, 0, 0, 0, 20},
    {"migration_churn", 6, 250, 250, 1, true, 0, 750, 1800, 16, 20},
    {"sharded_join", 6, 250, 250, 2, false, 100000, 0, 0, 0, 20},
};

// The built-in self-test: a small churn workload whose sink withholds one
// output from its tally; the output check must then fail.
const Workload kSelfTest = {"self_test", 3, 64, 64, 1, true, 0, 300, 800, 1, 0};

uint64_t SliceArrivals(const Workload& w) {
  return w.churn ? (w.reversal_arrivals + w.return_arrivals) * w.cycles
                 : w.slice_arrivals;
}

// ---------------------------------------------------------------------------
// The driver's sink: tallies outputs and retractions, and records each
// output's delay into the slice histogram while a slice runs. Under the sharded
// executor it is reached through the executor's LockedSink, so calls are
// serialized; the fields the coordinator changes between slices are atomics
// written only while every shard is idle (after a barrier).

constexpr size_t kDueRing = size_t{1} << 15;  // > any in-flight arrival count
// A run stops after this many slices even before --seconds have passed;
// at 30 s the workloads finish 90-200 slices.
constexpr size_t kMaxSlices = 1024;
constexpr uint64_t kWarmupTurnovers = 20;
// peak_rss_mb is read after this many slices, a fixed amount of work: the
// program's resident set keeps growing with the arrivals it has processed
// (README.md, "End-to-end metrics"), so a peak read at the end of a timed
// run would rise with throughput. Every workload gets there within 15 s,
// even in the machine's slow episodes; a shorter run reads it at its end.
constexpr size_t kRssSlices = 40;
constexpr int kMaxThreads = 8;

class BenchSink : public jisc::Sink {
 public:
  explicit BenchSink(bool withhold_one) : withhold_(withhold_one) {
    MakeResident(due_.data(), due_.size() * sizeof(due_[0]));
  }

  void OnOutput(const jisc::Tuple& tuple, jisc::Stamp) override {
    uint64_t newest = 0;
    for (const BaseTuple& p : tuple.parts()) newest = std::max(newest, p.seq);
    if (uint32_t* hist = hist_.load(std::memory_order_relaxed)) {
      const uint64_t now = NowNs();
      const uint64_t due = due_[newest & (kDueRing - 1)];
      ++hist[LogBuckets::Index(now > due ? now - due : 0)];
    }
    ++per_thread_[ThreadSlot()];
    if (withhold_) {
      withhold_ = false;
      return;
    }
    outputs_.Add(ComboHash(tuple));
  }

  void OnRetract(const jisc::Tuple& tuple, jisc::Stamp) override {
    retractions_.Add(ComboHash(tuple));
  }

  // Due time of arrival `seq`, written by the driver before its Push.
  void SetDue(uint64_t seq, uint64_t ns) { due_[seq & (kDueRing - 1)] = ns; }
  void SetHistogram(uint32_t* hist) {
    hist_.store(hist, std::memory_order_relaxed);
  }

  const Tally& outputs() const { return outputs_; }
  const Tally& retractions() const { return retractions_; }
  const uint64_t* per_thread() const { return per_thread_; }

 private:
  static int ThreadSlot() {
    static std::atomic<int> next{0};
    static thread_local int slot = next.fetch_add(1) % kMaxThreads;
    return slot;
  }

  bool withhold_;
  std::vector<uint64_t> due_ = std::vector<uint64_t>(kDueRing, 0);
  std::atomic<uint32_t*> hist_{nullptr};
  Tally outputs_;
  Tally retractions_;
  uint64_t per_thread_[kMaxThreads] = {};
};

// ---------------------------------------------------------------------------
// One run of a workload: build, fill the windows, run slices, check.

struct RunOptions {
  bool traced = false;        // observability on + allocation counting
  double seconds = 0;         // time-bounded measured phase, or
  int fixed_slices = 0;       // exactly this many slices when > 0
  bool withhold_one = false;  // self-test
};

struct SliceRecord {
  uint64_t arrivals = 0;
  uint64_t ns = 0;
  uint64_t kernel_ns = 0;  // reference kernel, mean of before and after
  uint64_t delay_samples = 0;
  double delay_p50_ns = 0;
  double delay_p99_ns = 0;
};

// The reference kernel's time on this VM at its fast speed. Times are
// reported scaled to it: a rate is multiplied, a duration divided, by
// kernel time / kReferenceNs.
constexpr double kReferenceNs = 650000;

// Counts that must repeat exactly at a fixed seed (traced runs).
struct Counts {
  uint64_t arrivals = 0;
  uint64_t transitions = 0;
  uint64_t probes = 0;
  uint64_t probe_entries = 0;
  uint64_t matches = 0;
  uint64_t work_units = 0;
  uint64_t inserts = 0;
  uint64_t removals = 0;
  uint64_t completions = 0;
  uint64_t completion_inserts = 0;
  uint64_t completion_dedup_hits = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  bool operator==(const Counts&) const = default;
};

struct RunResult {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double raw_setup_s = 0;
  double driver_s = 0;  // of raw_setup_s: process start to the build
  double build_s = 0;   // of raw_setup_s: MakeEngineProcessor alone
  uint64_t setup_kernel_ns = 0;  // reference kernel right after set-up
  double peak_rss_mb = 0;
  std::vector<SliceRecord> slices;
  double throughput_tps = 0;
  double raw_throughput_tps = 0;
  double delay_p50_us = 0;
  double delay_p99_us = 0;
  uint64_t delay_samples = 0;
  int kept_slices = 0;
  Histogram push_ns;
  Histogram post_transition_push_ns;
  Histogram transition_ns;
  Histogram checkpoint_ns;
  Histogram restore_ns;
  uint64_t checkpoint_bytes = 0;
  double barrier_ms = 0;
  double shard_output_skew = 0;
  uint64_t state_bytes = 0;
  double generator_ns_per_tuple = 0;
  double oracle_ns_per_tuple = 0;
  Counts counts;
  std::map<std::string, uint64_t> span_ns;  // traced: totals by span name
  uint64_t spans_dropped = 0;
  Tally expected_outputs;  // over the whole run, fill included
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class Run {
 public:
  Run(const Workload& w, uint64_t seed, const RunOptions& opt)
      : w_(w),
        opt_(opt),
        gen_(seed, w.streams, w.key_domain),
        push_gen_(seed, w.streams, w.key_domain),
        model_(w.streams, w.window, w.key_domain),
        sink_(opt.withhold_one) {
    MakeResident(chunk_.data(), chunk_.size() * sizeof(chunk_[0]));
    MakeResident(slice_hist_.data(),
                 slice_hist_.size() * sizeof(slice_hist_[0]));
    // Room for every slice record, written once so that it is resident.
    res_.slices.resize(kMaxSlices);
    MakeResident(res_.slices.data(), kMaxSlices * sizeof(SliceRecord));
    res_.slices.clear();
    std::vector<jisc::StreamId> order(static_cast<size_t>(w.streams));
    std::iota(order.begin(), order.end(), jisc::StreamId{0});
    initial_ = LogicalPlan::LeftDeep(order, jisc::OpKind::kHashJoin);
    reversed_ = LogicalPlan::LeftDeep(jisc::WorstCaseOrder(order),
                                      jisc::OpKind::kHashJoin);
    windows_ = jisc::WindowSpec::Uniform(w.streams, w.window);
  }

  RunResult Execute() {
    if (opt_.traced) {
      jisc::Observability::Options oo;
      oo.trace_capacity = size_t{1} << 18;
      obs_ = std::make_unique<jisc::Observability>(oo);
    }
    engine_options_.obs = obs_.get();
    engine_options_.parallelism = w_.shards;
    // Every driver buffer is resident by now, so memory above this
    // baseline is the program's (peak_rss_mb).
    const uint64_t baseline_kib = StatusKib("VmRSS:");
    const uint64_t build0 = NowNs();
    res_.driver_s = build0 / 1e9;
    processor_ = jisc::MakeEngineProcessor(
        initial_, windows_, &sink_,
        jisc::EngineStrategyFactory(jisc::ProcessorKind::kJisc),
        engine_options_);
    res_.build_s = (NowNs() - build0) / 1e9;

    // Set-up: fill every window (round-robin arrivals). It ends when the
    // last fill Push returns; the sharded executor may still be working
    // through its feeds, as it is after any Push.
    const uint64_t turnover = static_cast<uint64_t>(w_.streams) * w_.window;
    for (uint64_t i = 0; i < turnover; ++i) processor_->Push(push_gen_.Next());
    res_.raw_setup_s = NowNs() / 1e9;

    // The reference kernel's first run, right after set-up: its time
    // scales setup_s, and its own memory (about 100 KiB) is taken out of
    // peak_rss_mb.
    const double rss_before_kernel = static_cast<double>(StatusKib("VmRSS:"));
    res_.setup_kernel_ns = kernel_.Measure();
    const double kernel_kib =
        static_cast<double>(StatusKib("VmRSS:")) - rss_before_kernel;

    // Warm-up, not part of set-up: kWarmupTurnovers more window turnovers,
    // so measured slices start from steady-state sizes, caches and
    // allocator.
    for (uint64_t i = 0; i < turnover * kWarmupTurnovers; ++i) {
      processor_->Push(push_gen_.Next());
    }
    if (w_.shards > 1) Parallel()->Barrier();

    const size_t max_slices =
        opt_.fixed_slices > 0 ? static_cast<size_t>(opt_.fixed_slices)
                              : kMaxSlices;
    Metrics start_metrics;
    if (opt_.traced) start_metrics = TotalMetrics();
    const uint64_t allocs0 = t_allocs;
    const uint64_t alloc_bytes0 = t_alloc_bytes;

    uint64_t peak_kib = 0;
    const uint64_t measure_start = NowNs();
    const uint64_t deadline =
        measure_start + static_cast<uint64_t>(opt_.seconds * 1e9);
    while (res_.slices.size() < max_slices) {
      if (opt_.fixed_slices == 0 && !res_.slices.empty() &&
          NowNs() >= deadline) {
        break;
      }
      sink_.SetHistogram(slice_hist_.data());
      const uint64_t kernel_before = kernel_.Measure();
      res_.slices.push_back(RunSlice());
      sink_.SetHistogram(nullptr);
      SliceRecord& rec = res_.slices.back();
      rec.kernel_ns = (kernel_before + kernel_.Measure()) / 2;
      rec.delay_samples = std::accumulate(slice_hist_.begin(),
                                          slice_hist_.end(), uint64_t{0});
      rec.delay_p50_ns = LogBuckets::Quantile(slice_hist_.data(), 0.50);
      rec.delay_p99_ns = LogBuckets::Quantile(slice_hist_.data(), 0.99);
      std::fill(slice_hist_.begin(), slice_hist_.end(), 0);
      CatchUpModel();
      if (opt_.traced) CollectSpans();
      if (res_.slices.size() == kRssSlices) peak_kib = StatusKib("VmHWM:");
    }
    if (peak_kib == 0) peak_kib = StatusKib("VmHWM:");

    if (opt_.traced) {
      Metrics end = TotalMetrics();
      Counts& c = res_.counts;
      c.arrivals = measured_arrivals_;
      c.transitions = res_.transition_ns.count();
      c.probes = end.probes - start_metrics.probes;
      c.probe_entries = end.probe_entries - start_metrics.probe_entries;
      c.matches = end.matches - start_metrics.matches;
      c.work_units = end.WorkUnits() - start_metrics.WorkUnits();
      c.inserts = end.inserts - start_metrics.inserts;
      c.removals = end.removals - start_metrics.removals;
      c.completions = end.completions - start_metrics.completions;
      c.completion_inserts =
          end.completion_inserts - start_metrics.completion_inserts;
      c.completion_dedup_hits =
          end.completion_dedup_hits - start_metrics.completion_dedup_hits;
      c.allocs = t_allocs - allocs0;
      c.alloc_bytes = t_alloc_bytes - alloc_bytes0;
      res_.spans_dropped = obs_->trace.dropped();
    }

    res_.state_bytes = processor_->StateMemory();
    res_.peak_rss_mb = (static_cast<double>(peak_kib) -
                        static_cast<double>(baseline_kib) - kernel_kib) /
                       1024.0;
    // The final quiescing metrics() call: the sharded executor's barrier.
    const uint64_t b0 = NowNs();
    const Metrics final_metrics = TotalMetrics();
    res_.barrier_ms = (NowNs() - b0) / 1e6;
    Summarize();
    Check(final_metrics);
    return std::move(res_);
  }

 private:
  jisc::ParallelExecutor* Parallel() {
    auto* p = dynamic_cast<jisc::ParallelExecutor*>(processor_.get());
    if (p == nullptr) std::abort();
    return p;
  }

  // Metrics of the current processor plus those of the engines a restore
  // replaced (a restored engine's counters restart from zero).
  Metrics TotalMetrics() {
    Metrics m = carried_;
    m += processor_->metrics();
    return m;
  }

  // Advances the window model over every arrival pushed so far, outside the
  // timed part. The model has its own generator with the same seed, so it
  // sees the processor's input sequence without an input buffer.
  void CatchUpModel() {
    while (gen_.generated() < push_gen_.generated()) {
      const size_t n = std::min<uint64_t>(
          push_gen_.generated() - gen_.generated(), chunk_.size());
      const uint64_t t0 = NowNs();
      for (size_t i = 0; i < n; ++i) chunk_[i] = gen_.Next();
      const uint64_t t1 = NowNs();
      for (size_t i = 0; i < n; ++i) model_.Admit(chunk_[i]);
      const uint64_t t2 = NowNs();
      gen_ns_ += t1 - t0;
      oracle_ns_ += t2 - t1;
      generated_ += n;
    }
  }

  void Count(bool ok, const char* what) {
    ++res_.attempted;
    if (!ok) {
      ++res_.failed;
      if (res_.error.empty()) res_.error = std::string(what) + " failed";
    }
  }

  // Pushes the next `count` arrivals. `due` is when the first of them
  // became due; each later one is due when the Push before it returned.
  void PushRange(uint64_t count, uint64_t due, bool after_transition) {
    const uint64_t turnover = static_cast<uint64_t>(w_.streams) * w_.window;
    uint64_t prev = due;
    for (uint64_t i = 0; i < count; ++i) {
      const BaseTuple t = push_gen_.Next();
      sink_.SetDue(t.seq, prev);
      const uint64_t start = NowNs();
      if (opt_.traced) t_count_allocs = true;
      processor_->Push(t);
      t_count_allocs = false;
      const uint64_t done = NowNs();
      res_.push_ns.Record(done - start);
      if (after_transition && i < turnover) {
        res_.post_transition_push_ns.Record(done - start);
      }
      prev = done;
      Count(true, "push");
    }
    measured_arrivals_ += count;
  }

  void Transition(const LogicalPlan& plan) {
    const uint64_t t0 = NowNs();
    jisc::Status s = processor_->RequestTransition(plan);
    res_.transition_ns.Record(NowNs() - t0);
    Count(s.ok(), "transition");
  }

  // Checkpoint of the quiescent engine, then restore into a fresh engine
  // that replaces it.
  void CheckpointRestore() {
    auto* engine = dynamic_cast<Engine*>(processor_.get());
    if (engine == nullptr) {
      Count(false, "checkpoint");
      return;
    }
    const uint64_t t0 = NowNs();
    jisc::StatusOr<std::string> bytes = jisc::CheckpointEngine(*engine);
    const uint64_t t1 = NowNs();
    Count(bytes.ok(), "checkpoint");
    if (!bytes.ok()) return;
    res_.checkpoint_ns.Record(t1 - t0);
    res_.checkpoint_bytes = bytes.value().size();
    Metrics before = engine->metrics();
    jisc::StatusOr<std::unique_ptr<Engine>> restored = jisc::RestoreEngine(
        bytes.value(), &sink_,
        jisc::EngineStrategyFactory(jisc::ProcessorKind::kJisc)(),
        engine_options_);
    const uint64_t t2 = NowNs();
    Count(restored.ok(), "restore");
    if (!restored.ok()) return;
    res_.restore_ns.Record(t2 - t1);
    carried_ += before;
    processor_ = std::move(restored.value());
  }

  SliceRecord RunSlice() {
    SliceRecord rec;
    rec.arrivals = SliceArrivals(w_);
    const uint64_t start = NowNs();
    if (w_.churn) {
      // The arrivals after each control step were due when the step began:
      // they carry its wait (Fig. 10's output delay after a transition).
      for (int c = 0; c < w_.cycles; ++c) {
        uint64_t due = NowNs();
        CheckpointRestore();
        Transition(reversed_);
        PushRange(w_.reversal_arrivals, due, true);
        due = NowNs();
        Transition(initial_);
        PushRange(w_.return_arrivals, due, true);
      }
    } else {
      PushRange(rec.arrivals, start, false);
      if (w_.shards > 1) {
        Parallel()->Barrier();
        Count(true, "barrier");
      }
    }
    rec.ns = NowNs() - start;
    return rec;
  }

  void CollectSpans() {
    for (const jisc::TraceSpan& s : obs_->trace.Snapshot()) {
      res_.span_ns[s.name] += s.dur_ns;
    }
    obs_->trace.Clear();
  }

  void Summarize() {
    std::vector<double> rates;
    std::vector<double> scaled;
    for (const SliceRecord& s : res_.slices) {
      rates.push_back(static_cast<double>(s.arrivals) * 1e9 /
                      static_cast<double>(std::max<uint64_t>(s.ns, 1)));
      scaled.push_back(rates.back() * static_cast<double>(s.kernel_ns) /
                       kReferenceNs);
    }
    res_.setup_s = res_.raw_setup_s * kReferenceNs /
                   static_cast<double>(res_.setup_kernel_ns);
    res_.raw_throughput_tps = UpperQuartile(rates);
    res_.throughput_tps = UpperQuartile(scaled);
    // Output delay: the median, over the slices the throughput estimate
    // keeps, of each slice's quantile at reference speed.
    std::vector<double> p50_us;
    std::vector<double> p99_us;
    for (size_t i = 0; i < scaled.size(); ++i) {
      if (scaled[i] < res_.throughput_tps) continue;
      const SliceRecord& s = res_.slices[i];
      const double to_reference =
          kReferenceNs / static_cast<double>(s.kernel_ns) / 1e3;
      p50_us.push_back(s.delay_p50_ns * to_reference);
      p99_us.push_back(s.delay_p99_ns * to_reference);
      res_.delay_samples += s.delay_samples;
      ++res_.kept_slices;
    }
    res_.delay_p50_us = Median(p50_us);
    res_.delay_p99_us = Median(p99_us);

    res_.generator_ns_per_tuple =
        static_cast<double>(gen_ns_) / std::max<uint64_t>(generated_, 1);
    res_.oracle_ns_per_tuple =
        static_cast<double>(oracle_ns_) / std::max<uint64_t>(generated_, 1);

    const uint64_t* per = sink_.per_thread();
    uint64_t total = 0, mx = 0;
    int threads = 0;
    for (int i = 0; i < kMaxThreads; ++i) {
      if (per[i] == 0) continue;
      total += per[i];
      mx = std::max(mx, per[i]);
      ++threads;
    }
    if (total > 0) {
      res_.shard_output_skew =
          static_cast<double>(mx) / (static_cast<double>(total) / threads);
    }
  }

  // The independent output check: the sink's tallies against the window
  // model, and the program's own counters as a third path.
  void Check(const Metrics& m) {
    res_.expected_outputs = model_.outputs();
    char buf[512];
    if (!(sink_.outputs() == model_.outputs())) {
      std::snprintf(buf, sizeof(buf),
                    "outputs: sink %" PRIu64 " (checksum %016" PRIx64
                    ") vs model %" PRIu64 " (checksum %016" PRIx64 ")",
                    sink_.outputs().count, sink_.outputs().checksum,
                    model_.outputs().count, model_.outputs().checksum);
    } else if (!(sink_.retractions() == model_.retractions())) {
      std::snprintf(buf, sizeof(buf),
                    "retractions: sink %" PRIu64 " vs model %" PRIu64,
                    sink_.retractions().count, model_.retractions().count);
    } else if (m.outputs.value() != model_.outputs().count ||
               m.retractions.value() != model_.retractions().count) {
      std::snprintf(buf, sizeof(buf),
                    "program counters: outputs %" PRIu64
                    " retractions %" PRIu64 " vs model %" PRIu64 " / %" PRIu64,
                    m.outputs.value(), m.retractions.value(),
                    model_.outputs().count, model_.retractions().count);
    } else {
      return;
    }
    res_.correct = false;
    if (res_.error.empty()) res_.error = buf;
  }

  const Workload& w_;
  RunOptions opt_;
  Generator gen_;       // feeds the window model
  Generator push_gen_;  // feeds the processor: the same sequence
  WindowModel model_;
  BenchSink sink_;
  LogicalPlan initial_;
  LogicalPlan reversed_;
  jisc::WindowSpec windows_;
  std::unique_ptr<jisc::Observability> obs_;
  Engine::Options engine_options_;
  std::unique_ptr<StreamProcessor> processor_;
  Metrics carried_;
  std::vector<BaseTuple> chunk_ = std::vector<BaseTuple>(1024);
  // Output delays of the running slice.
  std::vector<uint32_t> slice_hist_ =
      std::vector<uint32_t>(LogBuckets::kBuckets, 0);
  uint64_t measured_arrivals_ = 0;
  uint64_t generated_ = 0;
  uint64_t gen_ns_ = 0;
  uint64_t oracle_ns_ = 0;
  ReferenceKernel kernel_;
  RunResult res_;
};

// ---------------------------------------------------------------------------
// Output.

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const JsonMetrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.body().c_str());
  std::fflush(stdout);
}

// Runs the withheld-output self-test; true when the check caught it.
bool SelfTestCatchesWithheldOutput() {
  RunOptions opt;
  opt.fixed_slices = 2;
  opt.withhold_one = true;
  RunResult r = Run(kSelfTest, 7, opt).Execute();
  std::fprintf(stderr, "self-test: withheld one output -> check %s (%s)\n",
               r.correct ? "PASSED (not caught)" : "failed as required",
               r.error.c_str());
  return !r.correct && r.failed == 0;
}

void Describe(const Workload& w, const RunResult& r, const char* label) {
  std::fprintf(stderr,
               "%s %s: slices=%zu kept=%d throughput=%.0f tps (unscaled %.0f) "
               "delay p50=%.2fus p99=%.2fus (n=%" PRIu64 ") setup=%.5fs "
               "(unscaled %.5f: driver %.5f, build %.5f; kernel %.0fus) "
               "rss=+%.3fMiB outputs=%" PRIu64 " checksum=%016" PRIx64 " %s\n",
               label, w.name, r.slices.size(), r.kept_slices, r.throughput_tps,
               r.raw_throughput_tps, r.delay_p50_us, r.delay_p99_us,
               r.delay_samples, r.setup_s, r.raw_setup_s, r.driver_s, r.build_s,
               r.setup_kernel_ns / 1e3,
               r.peak_rss_mb,
               r.expected_outputs.count, r.expected_outputs.checksum,
               r.correct ? "correct" : r.error.c_str());
  std::fprintf(stderr, "  slice k arrivals/s @ reference kernel us:");
  for (const SliceRecord& s : r.slices) {
    std::fprintf(stderr, " %.0f@%.0f",
                 s.arrivals * 1e6 / std::max<uint64_t>(s.ns, 1),
                 s.kernel_ns / 1e3);
  }
  std::fprintf(stderr, "\n");
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: jisc_perfbench --workload "
                 "<steady_join|migration_churn|sharded_join> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }

  JsonMetrics out;
  if (trace == 0) {
    RunOptions opt;
    opt.seconds = seconds;
    RunResult r = Run(*w, seed, opt).Execute();
    Describe(*w, r, "run");
    const bool self_test = SelfTestCatchesWithheldOutput();
    out.Add("setup_s", r.setup_s, "s");
    out.Add("throughput_tps", r.throughput_tps, "1/s");
    // The p99 delay is on standard error only: on sharded_join its spread
    // over ten runs reached 27 % (README.md, "Repeatability").
    out.Add("output_delay_p50_us", r.delay_p50_us, "us");
    out.Add("peak_rss_mb", r.peak_rss_mb, "MiB");
    PrintResult(r.correct && self_test, r.attempted, r.failed, out);
    return 0;
  }

  // Traced mode: an untraced run gives the timings and the tracing-off
  // throughput; two traced runs of a fixed number of slices give the counts
  // and spans, and must agree exactly on every count.
  RunOptions plain;
  plain.seconds = seconds / 2;
  RunResult a = Run(*w, seed, plain).Execute();
  Describe(*w, a, "untraced");
  RunOptions traced;
  traced.traced = true;
  traced.fixed_slices = w->traced_slices;
  RunResult b = Run(*w, seed, traced).Execute();
  Describe(*w, b, "traced#1");
  RunResult c = Run(*w, seed, traced).Execute();
  Describe(*w, c, "traced#2");
  const bool repeat = b.counts == c.counts;
  if (!repeat) std::fprintf(stderr, "deterministic counts differ between traced runs\n");
  if (b.spans_dropped > 0) {
    std::fprintf(stderr, "trace ring dropped %" PRIu64 " spans\n",
                 b.spans_dropped);
  }
  const bool self_test = SelfTestCatchesWithheldOutput();

  const Counts& k = b.counts;
  auto per = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const bool sharded = w->shards > 1;
  out.Add("exec.push_ns_p50", a.push_ns.Quantile(0.50), "ns");
  out.Add("exec.push_ns_p99", a.push_ns.Quantile(0.99), "ns");
  out.Add("exec.probes_per_tuple", per(k.probes, k.arrivals), "count");
  out.Add("exec.probe_entries_per_tuple", per(k.probe_entries, k.arrivals),
          "count");
  out.Add("exec.match_ratio", per(k.matches, k.probes), "ratio");
  out.Add("exec.work_units_per_tuple", per(k.work_units, k.arrivals), "count");
  out.Add("exec.allocs_per_tuple", per(k.allocs, k.arrivals), "count");
  out.Add("exec.alloc_bytes_per_tuple", per(k.alloc_bytes, k.arrivals), "B");
  out.Add("state.inserts_per_tuple", per(k.inserts, k.arrivals), "count");
  out.Add("state.removals_per_tuple", per(k.removals, k.arrivals), "count");
  out.Add("state.bytes", static_cast<double>(a.state_bytes), "B");
  out.Add("core.transition_ms_p50", a.transition_ns.Quantile(0.50) / 1e6,
          "ms");
  out.Add("core.transition_ms_max",
          static_cast<double>(a.transition_ns.max()) / 1e6, "ms");
  out.Add("core.post_transition_push_ns_p50",
          a.post_transition_push_ns.Quantile(0.50), "ns");
  out.Add("core.completions_per_transition",
          per(k.completions, k.transitions), "count");
  out.Add("core.completion_inserts_per_transition",
          per(k.completion_inserts, k.transitions), "count");
  out.Add("core.completion_dedup_ratio",
          per(k.completion_dedup_hits,
              k.completion_inserts + k.completion_dedup_hits),
          "ratio");
  out.Add("core.checkpoint_ms", a.checkpoint_ns.Quantile(0.50) / 1e6, "ms");
  out.Add("core.checkpoint_bytes", static_cast<double>(a.checkpoint_bytes),
          "B");
  out.Add("core.restore_ms", a.restore_ns.Quantile(0.50) / 1e6, "ms");
  auto span_us = [&](const char* name) {
    auto it = b.span_ns.find(name);
    uint64_t ns = it == b.span_ns.end() ? 0 : it->second;
    return per(ns, k.transitions) / 1e3;
  };
  out.Add("core.span.plan_diff_us", span_us("plan-diff"), "us");
  out.Add("core.span.state_carryover_us", span_us("state-carryover"), "us");
  out.Add("core.span.jit_completion_us", span_us("jit-completion"), "us");
  out.Add("parallel.coord_push_ns_p50",
          sharded ? a.push_ns.Quantile(0.50) : 0.0, "ns");
  out.Add("parallel.coord_push_ns_p99",
          sharded ? a.push_ns.Quantile(0.99) : 0.0, "ns");
  out.Add("parallel.barrier_ms", sharded ? a.barrier_ms : 0.0, "ms");
  out.Add("parallel.shard_output_skew", sharded ? a.shard_output_skew : 0.0,
          "ratio");
  out.Add("bench.generator_ns_per_tuple", a.generator_ns_per_tuple, "ns");
  out.Add("bench.oracle_ns_per_tuple", a.oracle_ns_per_tuple, "ns");
  out.Add("bench.tracing_overhead",
          b.throughput_tps > 0 ? a.throughput_tps / b.throughput_tps - 1.0 : 0.0,
          "ratio");
  const bool correct =
      a.correct && b.correct && c.correct && repeat && self_test;
  PrintResult(correct, a.attempted + b.attempted + c.attempted,
              a.failed + b.failed + c.failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
