#include "src/obs/observability.h"

namespace cki {

void Observability::AllocateStores(size_t ring_capacity) const {
  recorder_ = std::make_unique<FlightRecorder>(ring_capacity);
  profiler_ = std::make_unique<SpanProfiler>();
  metrics_ = std::make_unique<MetricsRegistry>();
  slos_ = std::make_unique<std::map<uint32_t, SloWindow>>();
}

void Observability::Enable(size_t ring_capacity) {
  EnsureStores(ring_capacity);
  enabled_ = true;
}

SloWindow& Observability::Slo(uint32_t owner) {
  EnsureStores();
  auto it = slos_->find(owner);
  if (it == slos_->end()) {
    it = slos_->emplace(owner, SloWindow(slo_config_)).first;
  }
  return it->second;
}

const SloWindow* Observability::FindSlo(uint32_t owner) const {
  if (slos_ == nullptr) {
    return nullptr;
  }
  auto it = slos_->find(owner);
  return it == slos_->end() ? nullptr : &it->second;
}

void Observability::ExportSelfMetrics(MetricsRegistry& metrics) const {
  metrics.Inc("obs/self/root_ops", self_.root_ops);
  metrics.Inc("obs/self/sampled_ops", self_.sampled_ops);
  metrics.Inc("obs/self/ring_writes", self_.ring_writes);
  metrics.Inc("obs/self/suppressed_writes", self_.suppressed_writes);
  metrics.Inc("obs/self/hist_samples", self_.hist_samples);
  metrics.Inc("obs/self/flow_points", self_.flow_points);
  metrics.Inc("obs/self/slo_samples", self_.slo_samples);
}

void Observability::ExportSloMetrics(MetricsRegistry& metrics) const {
  if (slos_ == nullptr) {
    return;
  }
  // One gauge set per container window, under slo/<owner>/..., so the SLO
  // view reaches --metrics-csv and merged cluster registries. Rates are
  // rounded to integers (counters are u64); the JSON slo section keeps
  // full precision.
  for (const auto& [owner, window] : *slos_) {
    std::string prefix = "slo/" + std::to_string(owner) + "/";
    metrics.Inc(prefix + "p99_ns", window.Percentile(99));
    metrics.Inc(prefix + "window_ops", window.WindowOps());
    metrics.Inc(prefix + "ops_per_sec", static_cast<uint64_t>(window.OpsPerSec() + 0.5));
    metrics.Inc(prefix + "faults", window.WindowFaults());
    metrics.Inc(prefix + "overload", window.WindowOverloads());
    metrics.Inc(prefix + "gauge", window.gauge());
  }
}

Observability Observability::Detach() {
  Observability out;
  out.owner_ = owner_;
  out.sample_every_ = sample_every_;
  out.self_ = self_;
  out.slo_config_ = slo_config_;
  out.recorder_ = std::move(recorder_);
  out.profiler_ = std::move(profiler_);
  out.metrics_ = std::move(metrics_);
  out.slos_ = std::move(slos_);
  enabled_ = false;
  owner_ = 0;
  scope_depth_ = 0;
  current_sampled_ = true;
  self_ = ObsSelfStats{};
  recorder_.reset();
  profiler_.reset();
  metrics_.reset();
  slos_.reset();
  return out;
}

void Observability::WriteJson(std::ostream& os) const {
  if (recorder_ == nullptr) {
    os << "{\"enabled\":false}";
    return;
  }
  os << "{\"enabled\":" << (enabled_ ? "true" : "false") << ",\"recorder\":{\"size\":"
     << recorder_->size() << ",\"capacity\":" << recorder_->capacity()
     << ",\"dropped\":" << recorder_->dropped() << "},\"spans\":";
  profiler_->WriteJson(os);
  os << ",\"metrics\":";
  metrics_->WriteJson(os);
  os << ",\"sample_every\":" << sample_every_ << ",\"slo\":{";
  bool first = true;
  for (const auto& [owner, window] : *slos_) {
    os << (first ? "" : ",") << "\"" << owner << "\":";
    window.WriteJson(os);
    first = false;
  }
  os << "},\"self\":{\"root_ops\":" << self_.root_ops << ",\"sampled_ops\":" << self_.sampled_ops
     << ",\"ring_writes\":" << self_.ring_writes
     << ",\"suppressed_writes\":" << self_.suppressed_writes
     << ",\"hist_samples\":" << self_.hist_samples << ",\"flow_points\":" << self_.flow_points
     << ",\"slo_samples\":" << self_.slo_samples << "}}";
}

}  // namespace cki
