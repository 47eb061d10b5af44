#include "core/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/validate.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace jisc {

namespace {

// The telemetry registry when both observability and its telemetry option
// are on; nullptr otherwise, so every gauge site below stays one pointer
// test on the disabled path.
inline TelemetryRegistry* TelemetryOf(const Engine::Options& options) {
  return options.obs != nullptr ? options.obs->telemetry.get() : nullptr;
}

}  // namespace

Engine::Engine(const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
               std::unique_ptr<MigrationStrategy> strategy)
    : Engine(plan, windows, sink, std::move(strategy), Options()) {}

Engine::Engine(const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
               std::unique_ptr<MigrationStrategy> strategy, Options options)
    : windows_(windows),
      options_(options),
      sink_(sink),
      strategy_(std::move(strategy)),
      freshness_(windows.num_streams()) {
  JISC_CHECK(strategy_ != nullptr);
  JISC_CHECK(plan.streams().size() <= windows_.num_streams());
  exec_ = std::make_unique<PipelineExecutor>(plan, windows_, options_.exec);
  WireExecutor();
}

uint64_t Engine::StateMemory() const { return StateMemoryBytes(*exec_); }

void Engine::WireExecutor() {
  if (options_.obs != nullptr) {
    obs_sink_.Wire(sink_, options_.obs);
    exec_->SetSink(&obs_sink_);
    exec_->SetObservability(options_.obs, options_.obs_track);
    if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
      telemetry->RegisterTracks(options_.obs_track + 1);
    }
  } else {
    exec_->SetSink(sink_);
  }
  exec_->SetMetrics(&metrics_);
  exec_->SetFreshness(options_.track_freshness ? &freshness_ : nullptr);
  exec_->SetCompletionHandler(strategy_->handler());
}

void Engine::Push(const BaseTuple& tuple) {
  if (!buffer_.empty()) Drain();
  if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
    // The coordinator owns the input gauges; a shard engine's arrivals were
    // already counted by the ParallelExecutor front-end that routed them.
    if (options_.obs_track == 0) telemetry->OnInput(tuple.seq);
  }
  Admit(tuple);
  if (++events_since_maintain_ >= options_.maintain_period) {
    events_since_maintain_ = 0;
    strategy_->Maintain(this);
    RefreshStateMemoryGauge();
  }
}

void Engine::BeginObsEvent() {
  if (options_.obs == nullptr) return;
  if (pending_transition_ns_ != 0) {
    obs_sink_.BeginEventAt(pending_transition_ns_);
    pending_transition_ns_ = 0;
  } else {
    obs_sink_.BeginEvent();
  }
}

void Engine::MaybeRunFluidBatch(Stamp stamp) {
  if (!options_.fluid.IsFluid()) return;
  if (++events_since_fluid_ < options_.fluid.batch_period) return;
  events_since_fluid_ = 0;
  if (strategy_->FluidBacklog() == 0) return;
  strategy_->RunFluidBatch(this, stamp);
  if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
    telemetry->SetMigrationBacklog(options_.obs_track,
                                   strategy_->FluidBacklog());
  }
}

void Engine::Admit(const BaseTuple& tuple) {
  BeginObsEvent();
  Stamp stamp = AllocateStamp();
  max_seq_seen_ = std::max(max_seq_seen_, tuple.seq);
  MaybeRunFluidBatch(stamp);
  strategy_->OnArrival(this, tuple, stamp);
  exec_->PushArrival(tuple, stamp);
  exec_->RunUntilIdle();
  if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
    telemetry->OnEventProcessed(options_.obs_track, tuple.seq);
  }
}

void Engine::PushExpiry(const BaseTuple& tuple) {
  if (!buffer_.empty()) Drain();
  // One external event, like an arrival: the removal cascade runs to
  // quiescence under its own stamp. Counted toward the maintain cadence so
  // sharded JISC engines still sweep completion detection under expiry-
  // heavy phases.
  BeginObsEvent();
  Stamp stamp = AllocateStamp();
  MaybeRunFluidBatch(stamp);
  exec_->PushExpiry(tuple, stamp);
  exec_->RunUntilIdle();
  if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
    // Expiries count as progress: an expiry-heavy shard is busy, not
    // stalled, and must not trip the stall watchdog.
    telemetry->OnEventProcessed(options_.obs_track, tuple.seq);
  }
  if (++events_since_maintain_ >= options_.maintain_period) {
    events_since_maintain_ = 0;
    strategy_->Maintain(this);
    RefreshStateMemoryGauge();
  }
}

void Engine::RefreshStateMemoryGauge() {
  if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
    telemetry->SetStateMemoryBytes(options_.obs_track,
                                   ApproxStateMemoryBytes(*exec_));
  }
}

void Engine::PushNoDrain(const BaseTuple& tuple) { buffer_.push_back(tuple); }

void Engine::Drain() {
  while (!buffer_.empty()) {
    BaseTuple t = buffer_.front();
    buffer_.pop_front();
    Admit(t);
  }
}

Status Engine::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  if (!(new_plan.streams() == plan().streams())) {
    return Status::InvalidArgument(
        "new plan must cover the same streams as the old plan");
  }
  // Section 4.1 (safe plan transition): all tuples received before the
  // transition are processed through the old plan first (buffer clearing).
  Observability* obs = options_.obs;
  TraceScope transition(obs ? &obs->trace : nullptr, "transition",
                        "migration", options_.obs_track);
  transition.SetArg("buffered", buffer_.size());
  {
    TraceScope drain(obs ? &obs->trace : nullptr, "drain", "migration",
                     options_.obs_track);
    Drain();
  }
  freshness_.BumpGeneration();
  ++transitions_;
  // Charge the transition's own duration to the first post-transition
  // event: its outputs are delayed by exactly this stall.
  uint64_t t_request = obs != nullptr ? obs->trace.NowNs() : 0;
  Status s = strategy_->Migrate(this, new_plan);
  if (!s.ok()) return s;
  if (obs != nullptr) pending_transition_ns_ = t_request;
  if (TelemetryRegistry* telemetry = TelemetryOf(options_)) {
    telemetry->SetMigrationBacklog(options_.obs_track,
                                   strategy_->FluidBacklog());
  }
  // The strategy installed the successor executor via ReplaceExecutor.
  return Status::Ok();
}

void Engine::ReplaceExecutor(std::unique_ptr<PipelineExecutor> exec) {
  JISC_CHECK(exec != nullptr);
  exec_ = std::move(exec);
  WireExecutor();
}

}  // namespace jisc
