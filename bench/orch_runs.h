// Shared by bench_ext_orchestrator and bench_ext_resilience: one labelled
// orchestration run, and the one writer of its results through
// BenchObsSink (fleet metrics to --metrics-csv, OrchStats to --json-out).
#ifndef BENCH_ORCH_RUNS_H_
#define BENCH_ORCH_RUNS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/orch/orchestrator.h"

namespace cki {

struct OrchRun {
  std::string label;
  OrchStats stats;
  uint64_t combined_hash = 0;
};

// Runs one orchestration and adds its fleet metrics to the CSV under
// `label`, so --metrics-csv comes from the run the bench reports.
inline OrchRun RunOrchestration(std::string label, const OrchConfig& cfg,
                                const OrchPolicy& policy, BenchObsSink& sink) {
  Orchestrator orch(cfg, policy);
  OrchRun run{std::move(label), orch.Run(), orch.CombinedHash()};
  sink.AddMetrics(run.label, orch.metrics());
  return run;
}

// The combined cluster+control hash of `cfg` run at `threads` workers:
// the run CheckThreadInvariant repeats.
inline uint64_t OrchHashAt(OrchConfig cfg, const OrchPolicy& policy, uint32_t threads) {
  cfg.threads = threads;
  Orchestrator orch(cfg, policy);
  orch.Run();
  return orch.CombinedHash();
}

// Adds the fleet shape and a "runs" array (every OrchStats counter per
// run) to --json-out.
inline void AddOrchRunsJson(BenchObsSink& sink, const OrchConfig& cfg,
                            const std::vector<OrchRun>& runs) {
  for (const auto& [key, value] : {std::pair{"shards", uint64_t{cfg.shards}},
                                   std::pair{"epochs", uint64_t{cfg.epochs}},
                                   std::pair{"epoch_ns", cfg.epoch_ns},
                                   std::pair{"slo_p99_ns", cfg.slo_p99_ns},
                                   std::pair{"deadline_ns", cfg.resil.deadline_ns}}) {
    sink.AddJson(key, std::to_string(value));
  }
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const OrchStats& s = runs[i].stats;
    os << (i > 0 ? "," : "") << "\n{\"label\":";
    WriteJsonString(os, runs[i].label);
    os << ",\"requests\":" << s.requests << ",\"served\":" << s.served << ",\"lost\":" << s.lost
       << ",\"slo_attainment\":";
    WriteJsonNumber(os, s.SloAttainment());
    os << ",\"overall_p99_ns\":" << s.overall_p99_ns << ",\"cold_starts_per_1k\":";
    WriteJsonNumber(os, s.ColdStartPerK());
    os << ",\"clones\":" << s.clones << ",\"template_boots\":" << s.template_boots
       << ",\"migrations\":" << s.migrations << ",\"migrations_aborted\":" << s.migrations_aborted
       << ",\"reaps\":" << s.reaps << ",\"machine_kills\":" << s.machine_kills
       << ",\"container_kills\":" << s.container_kills << ",\"replacements\":" << s.replacements
       << ",\"gray_episodes\":" << s.gray_episodes << ",\"blackholed\":" << s.blackholed
       << ",\"retries\":" << s.retries << ",\"retries_denied\":" << s.retries_denied
       << ",\"hedges\":" << s.hedges << ",\"hedge_wins\":" << s.hedge_wins
       << ",\"hedges_cancelled\":" << s.hedges_cancelled << ",\"sheds\":" << s.sheds
       << ",\"deadline_misses\":" << s.deadline_misses << ",\"drains\":" << s.drains
       << ",\"probes\":" << s.probes << ",\"breaker_opens\":" << s.breaker_opens
       << ",\"breaker_short_circuits\":" << s.breaker_short_circuits
       << ",\"leaked_frames\":" << s.leaked_frames << ",\"combined_hash\":\"0x" << std::hex
       << runs[i].combined_hash << std::dec << "\"}";
  }
  os << "\n]";
  sink.AddJson("runs", os.str());
}

}  // namespace cki

#endif  // BENCH_ORCH_RUNS_H_
