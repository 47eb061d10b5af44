#ifndef JISC_CORE_ENGINE_H_
#define JISC_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "core/freshness_tracker.h"
#include "core/migration_strategy.h"
#include "exec/ingress_guard.h"
#include "exec/pipeline_executor.h"
#include "exec/stream_processor.h"

namespace jisc {

// The pipelined continuous-query engine: one live plan, event-driven
// execution, and pluggable plan migration (Moving State or JISC; the
// Parallel Track strategy runs several plans and has its own processor).
//
// Event model: every Push is one external event. The arrival is enqueued at
// its stream's scan and the cascade (including window expiry) is processed
// to quiescence before the call returns, so queues are empty between
// events. PushNoDrain/Drain expose the buffered mode used to exercise the
// Section 4.1 queue-clearing phase explicitly.
class Engine : public StreamProcessor {
 public:
  struct Options {
    PipelineExecutor::Options exec;
    // Events between strategy Maintain() sweeps (completion detection).
    uint64_t maintain_period = 256;
    // Track Definition-2 freshness per arrival. Disabling it yields the
    // plain symmetric-hash-join pipeline the paper compares against in
    // Fig. 9a (transitions then require a strategy that does not rely on
    // freshness, e.g. Moving State).
    bool track_freshness = true;
    // Number of hash-partitioned worker shards. The Engine itself is always
    // single-threaded; MakeEngineProcessor (core/parallel_engine.h) reads
    // this knob and routes through the sharded ParallelExecutor when it is
    // greater than one, with single-shard engines as the building block and
    // the single-threaded path (parallelism <= 1) as the default and the
    // equivalence oracle.
    int parallelism = 1;
    // Observability bundle (latency histograms + migration trace). nullptr
    // (the default) keeps every clock read and histogram update out of the
    // hot path; see obs/observability.h. obs_track labels this engine's
    // trace spans (0 = single-threaded/coordinator, shard + 1 for shard
    // engines under the parallel executor).
    Observability* obs = nullptr;
    int obs_track = 0;
    // Opt-in ingress resilience stage (exec/ingress_guard.h): when enabled,
    // MakeEngineProcessor wraps the built processor in a GuardedProcessor
    // that dedups and re-orders the feed before admission. Disabled (the
    // default) adds no wrapper and no branch — the Engine itself never
    // reads this field.
    IngressGuard::Options ingress;
    // Fluid migration (core/migration_strategy.h): when IsFluid() and the
    // installed strategy reports a post-transition backlog, the engine runs
    // one bounded completion batch between events (inside Admit, before the
    // arrival is processed, so the batch cost lands in that event's output
    // delay). All-at-once (the default) never takes the branch.
    FluidOptions fluid;
  };

  Engine(const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
         std::unique_ptr<MigrationStrategy> strategy, Options options);
  Engine(const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
         std::unique_ptr<MigrationStrategy> strategy);

  // --- StreamProcessor ---
  std::string name() const override { return strategy_->name(); }
  void Push(const BaseTuple& tuple) override;
  // External-expiry mode only (exec.external_expiry): one expiry event,
  // processed to quiescence like an arrival.
  void PushExpiry(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;

  // Buffered admission: appends to the engine's arrival queue without
  // processing; Drain() admits the buffered events one at a time (each
  // cascade runs to quiescence before the next event) through the current
  // plan -- the input-queue model of Section 2.1 / 4.1.
  void PushNoDrain(const BaseTuple& tuple);
  void Drain();
  size_t buffered() const { return buffer_.size(); }

  // --- accessors ---
  PipelineExecutor& executor() { return *exec_; }
  const LogicalPlan& plan() const { return exec_->plan(); }
  const WindowSpec& windows() const { return windows_; }
  const PipelineExecutor::Options& exec_options() const {
    return options_.exec;
  }
  Metrics& mutable_metrics() { return metrics_; }
  FreshnessTracker& freshness() { return freshness_; }
  MigrationStrategy& strategy() { return *strategy_; }
  Observability* obs() { return options_.obs; }
  int obs_track() const { return options_.obs_track; }
  // The user-facing sink (never the internal OutputDelaySink wrapper).
  Sink* sink() { return sink_; }
  Seq max_seq_seen() const { return max_seq_seen_; }
  uint64_t transitions() const { return transitions_; }

  // --- strategy support ---
  // Installs a successor executor (built by the strategy) and rewires the
  // sink/metrics/handler/freshness environment on it.
  void ReplaceExecutor(std::unique_ptr<PipelineExecutor> exec);
  // Allocates the next global event stamp (the transition itself consumes
  // one, so completion-materialized entries sort before later arrivals).
  Stamp AllocateStamp() { return next_stamp_++; }
  Stamp next_stamp() const { return next_stamp_; }
  // Checkpoint-restore support: resets the event clocks so a restored
  // engine continues exactly where the checkpointed one stopped.
  void RestoreClocks(Stamp next_stamp, Seq max_seq) {
    next_stamp_ = next_stamp;
    max_seq_seen_ = max_seq;
  }

 private:
  void WireExecutor();
  // Admits one event and processes its cascade to quiescence.
  void Admit(const BaseTuple& tuple);
  // Marks the event's admission on the output-delay sink; the first event
  // after a transition is backdated to the transition request, charging the
  // stall to its outputs.
  void BeginObsEvent();
  // Runs one fluid completion batch if due (options_.fluid cadence) and the
  // strategy has backlog; refreshes the migration-backlog gauge.
  void MaybeRunFluidBatch(Stamp stamp);
  // Updates this track's telemetry state-memory gauge (no-op when telemetry
  // is off). Called on the maintain cadence, not per event: the estimate is
  // O(num_ops) and a gauge only needs sampling-rate freshness.
  void RefreshStateMemoryGauge();

  WindowSpec windows_;
  Options options_;
  Sink* sink_;
  // Interposed between the executor and sink_ when options_.obs is set:
  // stamps each output with its delay since event admission.
  OutputDelaySink obs_sink_;
  std::unique_ptr<MigrationStrategy> strategy_;
  Metrics metrics_;
  FreshnessTracker freshness_;
  std::unique_ptr<PipelineExecutor> exec_;
  std::deque<BaseTuple> buffer_;
  Stamp next_stamp_ = 1;
  Seq max_seq_seen_ = 0;
  uint64_t transitions_ = 0;
  uint64_t events_since_maintain_ = 0;
  uint64_t events_since_fluid_ = 0;
  // Trace-clock reading taken when a transition was requested; consumed by
  // the next BeginObsEvent. 0 = none pending.
  uint64_t pending_transition_ns_ = 0;
};

}  // namespace jisc

#endif  // JISC_CORE_ENGINE_H_
