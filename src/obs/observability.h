// Observability hub attached to every SimContext: a flight recorder
// (bounded event ring), a span profiler (simulated-time phase tree), a
// metrics registry (counters + bounded histograms), and per-container SLO
// windows (rolling time-series over simulated time).
//
// Disabled by default: the only cost on the simulation fast path is one
// branch on `enabled()`. The backing stores are allocated lazily (by
// Enable() or the first accessor call), so a SimContext that never
// observes pays nothing beyond a few pointers.
//
// Sampling (DESIGN.md §11): set_sample_every(N) keeps recorder, span and
// histogram writes for 1 in N *root* operations — the decision is latched
// when the outermost TraceScope opens, so a sampled operation records its
// whole span subtree and an unsampled one records nothing (begin/end stay
// paired, the span tree stays consistent). The gate is a pure counter:
// no RNG, no clock reads, no effect on simulated time or any determinism
// digest — enabling sampling cannot change a trace hash. SLO-window
// writes and self-accounting stay at full rate (that is the point:
// bounded-memory telemetry that is cheap enough to leave always on).
//
// Self-accounting: the hub counts every write it performs and every write
// the gate suppressed (ObsSelfStats); bench_ext_obs_overhead turns these
// into a CI-enforced overhead budget.
//
// Thread-safety: none — the hub lives inside one SimContext and is only
// ever touched by that machine's (single) simulation thread. Under
// SimCluster each shard has its own hub; a shard hands its recorded data
// to the merging thread by value via Detach(), after which the context's
// hub is back to the never-enabled state and the detached copy is owned
// exclusively by the caller.
// Ownership: the hub owns recorder/profiler/metrics/SLO windows;
// references returned by the accessors are valid until Detach() or
// destruction. The accessors are total: on a never-enabled hub they
// allocate empty stores (without enabling recording).
#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include <map>
#include <memory>
#include <ostream>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/slo_window.h"
#include "src/obs/span_profiler.h"
#include "src/sim/trace.h"

namespace cki {

// What observing cost us: every counter is "writes the obs layer
// performed (or suppressed) on behalf of the simulation".
struct ObsSelfStats {
  uint64_t root_ops = 0;           // outermost scopes opened
  uint64_t sampled_ops = 0;        // root ops the gate kept
  uint64_t ring_writes = 0;        // flight-recorder records written
  uint64_t suppressed_writes = 0;  // ring writes skipped by the gate
  uint64_t hist_samples = 0;       // histogram samples added
  uint64_t flow_points = 0;        // causal flow records written
  uint64_t slo_samples = 0;        // SLO-window latency observations
};

class Observability {
 public:
  bool enabled() const { return enabled_; }

  // Turns recording on, allocating the stores on first use. Re-enabling
  // keeps previously recorded data; `ring_capacity` applies only if no
  // Enable or accessor call allocated the stores before.
  void Enable(size_t ring_capacity = FlightRecorder::kDefaultCapacity);
  // Stops recording but keeps the data for export.
  void Disable() { enabled_ = false; }
  // Whether the stores exist (Enable() ran, or an accessor allocated them).
  bool has_data() const { return recorder_ != nullptr; }

  // Current container attribution for recorded events (0: host kernel).
  uint32_t owner() const { return owner_; }
  void set_owner(uint32_t owner) { owner_ = owner; }

  // --- sampling gate -------------------------------------------------------

  // Keep recorder/span/histogram writes for 1 in `n` root operations
  // (n <= 1: full rate). Takes effect at the next root scope.
  void set_sample_every(uint32_t n) { sample_every_ = n == 0 ? 1 : n; }
  uint32_t sample_every() const { return sample_every_; }

  // Called by TraceScope on entry/exit. The outermost scope latches the
  // keep/suppress decision for the whole operation; the return value is
  // that decision. Never hold a scope across Detach().
  bool EnterScope() {
    if (scope_depth_++ == 0) {
      current_sampled_ = (self_.root_ops % sample_every_) == 0;
      self_.root_ops++;
      if (current_sampled_) {
        self_.sampled_ops++;
      }
    }
    return current_sampled_;
  }
  void ExitScope() {
    if (scope_depth_ > 0) {
      scope_depth_--;
    }
  }
  // Whether a write at this point should be kept. Writes outside any
  // scope (setup, teardown) are always kept — only hot-path operations
  // under a root scope are sampled.
  bool ShouldRecord() const { return scope_depth_ == 0 || current_sampled_; }

  // Allocate empty stores on first access, so they never dereference null.
  FlightRecorder& recorder() { return (EnsureStores(), *recorder_); }
  const FlightRecorder& recorder() const { return (EnsureStores(), *recorder_); }
  SpanProfiler& profiler() { return (EnsureStores(), *profiler_); }
  const SpanProfiler& profiler() const { return (EnsureStores(), *profiler_); }
  MetricsRegistry& metrics() { return (EnsureStores(), *metrics_); }
  const MetricsRegistry& metrics() const { return (EnsureStores(), *metrics_); }

  // Self-accounted ring write (TraceScope span markers go through here).
  void RecordRing(const TraceRecord& r) {
    self_.ring_writes++;
    recorder().Record(r);
  }

  // Self-accounted histogram sample (SyscallScope).
  void AddHistSample(std::string_view family, std::string_view item, SimNanos v) {
    self_.hist_samples++;
    metrics().Hist(family, item).Add(v);
  }

  // Fast-path hook called by SimContext for every architectural event.
  void OnEvent(SimNanos now, PathEvent e, uint64_t arg = 0) {
    if (!enabled_) {
      return;
    }
    if (!ShouldRecord()) {
      self_.suppressed_writes++;
      return;
    }
    self_.ring_writes++;
    recorder_->Record(TraceRecord{.ts = now,
                                  .arg = arg,
                                  .owner = owner_,
                                  .code = static_cast<uint16_t>(e),
                                  .kind = TraceRecordKind::kInstant});
  }

  // Causal flow point for request `trace_id` (kFlowStart/Step/End).
  // No-op for inactive traces; subject to the sampling gate like every
  // other ring write.
  void RecordFlowPoint(SimNanos now, TraceRecordKind kind, uint64_t trace_id) {
    if (!enabled_ || trace_id == 0) {
      return;
    }
    if (!ShouldRecord()) {
      self_.suppressed_writes++;
      return;
    }
    self_.flow_points++;
    self_.ring_writes++;
    recorder_->Record(TraceRecord{.ts = now, .arg = trace_id, .owner = owner_, .code = 0,
                                  .kind = kind});
  }

  // --- per-container SLO windows (always on while enabled) -----------------

  // Window geometry for SLO windows created after this call.
  void set_slo_config(SloWindow::Config config) { slo_config_ = config; }

  void SloObserveSyscall(uint32_t owner, SimNanos now, SimNanos latency_ns) {
    if (!enabled_) {
      return;
    }
    self_.slo_samples++;
    Slo(owner).ObserveLatency(now, latency_ns);
  }
  void SloIncFault(uint32_t owner, SimNanos now) {
    if (!enabled_) {
      return;
    }
    Slo(owner).IncFaults(now);
  }
  // RX-ring overrun event (VirtNic backpressure -> rolling SLO view).
  void SloIncOverload(uint32_t owner, SimNanos now) {
    if (!enabled_) {
      return;
    }
    Slo(owner).IncOverloads(now);
  }
  void SloSetGauge(uint32_t owner, SimNanos now, uint64_t value) {
    if (!enabled_) {
      return;
    }
    Slo(owner).SetGauge(now, value);
  }

  // The window for `owner`, created on first use.
  SloWindow& Slo(uint32_t owner);
  // All windows (nullptr until the stores exist); keyed by container id.
  const std::map<uint32_t, SloWindow>* slos() const { return slos_.get(); }
  const SloWindow* FindSlo(uint32_t owner) const;

  const ObsSelfStats& self_stats() const { return self_; }
  // Dumps the self-accounting as counters `obs/self/<name>`.
  void ExportSelfMetrics(MetricsRegistry& metrics) const;
  // Dumps every container SLO window as gauges `slo/<owner>/{p99_ns,
  // window_ops,ops_per_sec,faults,overload,gauge}` so the rolling SLO view shows
  // up in --metrics-csv and merged cluster registries (SimCluster and
  // BenchObsSink call this; values are point-in-time, not additive).
  void ExportSloMetrics(MetricsRegistry& metrics) const;

  // Moves the recorded data (recorder, profiler, metrics, SLO windows,
  // self stats, owner stamp) into a standalone hub and resets this one to
  // the never-enabled state (enabled() false, has_data() false). Used by
  // cluster shard bodies to hand their machine's observations across the
  // thread join without leaving the live context with dangling
  // enabled-but-empty state. The returned hub is disabled (export-only):
  // WriteJson and the accessors work, OnEvent is a no-op.
  Observability Detach();

  // Full machine-readable dump:
  //   {"enabled":..,"recorder":{..},"spans":[..],"metrics":{..},
  //    "slo":{"<owner>":{..}},"self":{..}}
  void WriteJson(std::ostream& os) const;

 private:
  void EnsureStores(size_t ring_capacity = FlightRecorder::kDefaultCapacity) const {
    if (recorder_ == nullptr) {
      AllocateStores(ring_capacity);
    }
  }
  void AllocateStores(size_t ring_capacity) const;

  bool enabled_ = false;
  uint32_t owner_ = 0;
  uint32_t sample_every_ = 1;
  uint32_t scope_depth_ = 0;
  bool current_sampled_ = true;
  ObsSelfStats self_;
  SloWindow::Config slo_config_;
  // Lazily allocated together (EnsureStores); mutable so the const
  // accessors can allocate too.
  mutable std::unique_ptr<FlightRecorder> recorder_;
  mutable std::unique_ptr<SpanProfiler> profiler_;
  mutable std::unique_ptr<MetricsRegistry> metrics_;
  mutable std::unique_ptr<std::map<uint32_t, SloWindow>> slos_;
};

}  // namespace cki

#endif  // SRC_OBS_OBSERVABILITY_H_
