// Extension bench: the deterministic cluster orchestrator under
// production-shaped traffic (src/orch, DESIGN.md §12).
//
// A fleet of CKI shards serves a diurnal + flash-crowd open-loop arrival
// process while seeded chaos kills whole machines and individual
// containers mid-rebalance. Two control policies run over the identical
// workload and chaos seeds:
//   * static   — replacement only: refill killed capacity, never adapt,
//   * reactive — autoscale hot shards, CKISNAP1-migrate off saturated
//                ones, reap idle containers.
// Reported per policy: SLO attainment (epochs meeting the p99 target with
// zero lost arrivals), overall request p99, cold starts per 1k requests,
// clone/migration/reap counts, chaos kills, and lost arrivals.
//
// Hard self-checks (CI runs `--smoke` in release and under ASan/UBSan;
// the process exits non-zero when any fails):
//   1. the combined cluster+control trace hash of the reactive run is
//      bit-identical at --threads 1, 2 and 8,
//   2. chaos actually struck (machine and container kills > 0) and every
//      victim was re-placed with zero leaked frames,
//   3. the reactive policy migrated off hot shards and reaped idle
//      containers, and both policies kept serving (served > 0).
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/orch_runs.h"
#include "src/metrics/report.h"
#include "src/orch/orchestrator.h"
#include "src/orch/policy.h"

namespace cki {
namespace {

OrchConfig BaseConfig(const BenchIo& io) {
  const bool smoke = io.smoke;
  OrchConfig cfg;
  cfg.shards = io.ShardsOr(smoke ? 4 : 6);
  cfg.threads = io.ThreadsOr(1);
  cfg.root_seed = io.root_seed;
  cfg.epochs = smoke ? 24 : 64;
  cfg.epoch_ns = 1'000'000;       // 1 simulated ms control epochs
  cfg.slo_p99_ns = 400'000;
  cfg.initial_containers = 2;
  // Diurnal day with a 4x flash crowd; later shards run hotter so the
  // reactive policy has real imbalance to migrate away. The first two
  // slots become dead-of-night (zero traffic) so containers genuinely go
  // idle and the reap path runs every simulated day.
  cfg.arrivals = ArrivalConfig::DiurnalBurst(/*seed=*/0, /*base_rate_per_sec=*/90'000);
  cfg.arrivals.diurnal[0] = 0.0;
  cfg.arrivals.diurnal[1] = 0.0;
  cfg.shard_load_skew = 0.6;
  // Chaos: roughly one machine funeral and a handful of container kills
  // per run at the default epoch counts.
  cfg.machine_kill_rate = 0.02;
  cfg.container_kill_rate = 0.05;
  // Crash-only arms: this bench is about hard chaos + rebalancing; the
  // request resilience layer (deadlines/retries/hedges/shedding) has its
  // own controlled comparison in bench_ext_resilience.
  cfg.resil.enabled = false;
  return cfg;
}

ReactiveConfig ReactiveTuning() {
  ReactiveConfig rc;
  rc.min_containers = 1;
  rc.max_containers = 3;           // hot shards cap out and must migrate
  rc.capacity_ops_per_sec = 90'000;
  rc.reap_idle_epochs = 4;
  return rc;
}

int Run(BenchObsSink& sink) {
  const OrchConfig cfg = BaseConfig(sink.io());
  int rc = 0;

  StaticPolicy static_policy(cfg.initial_containers);
  ReactivePolicy reactive_policy(ReactiveTuning());
  // Braced-list elements run in order: static first, as in the CSV.
  const std::vector<OrchRun> outcomes = {
      RunOrchestration(std::string(static_policy.name()), cfg, static_policy, sink),
      RunOrchestration(std::string(reactive_policy.name()), cfg, reactive_policy, sink)};

  ReportTable table("Orchestrated fleet under diurnal+burst traffic with chaos, " +
                        std::to_string(cfg.shards) + " shards x " +
                        std::to_string(cfg.epochs) + " epochs",
                    "policy",
                    {"SLO att %", "p99 us", "cold/1k req", "clones", "migrations", "reaps",
                     "kills", "lost"});
  for (const OrchRun& out : outcomes) {
    const OrchStats& s = out.stats;
    table.AddRow(out.label,
                 {100.0 * s.SloAttainment(), static_cast<double>(s.overall_p99_ns) * 1e-3,
                  s.ColdStartPerK(), static_cast<double>(s.clones),
                  static_cast<double>(s.migrations), static_cast<double>(s.reaps),
                  static_cast<double>(s.machine_kills + s.container_kills),
                  static_cast<double>(s.lost)},
                 /*weight=*/s.requests > 0 ? s.requests : 1);
  }
  sink.Print(table, 2);

  // --- hard self-checks -----------------------------------------------------

  // 1. Control-plane determinism: the combined cluster+control hash of
  //    the reactive configuration is bit-identical at any thread count.
  if (!CheckThreadInvariant("reactive combined", {1, 2, 8}, [&](uint32_t threads) {
        return OrchHashAt(cfg, reactive_policy, threads);
      })) {
    rc = 1;
  }

  // 2. Chaos struck and every victim was re-placed without leaking.
  for (const OrchRun& out : outcomes) {
    const OrchStats& s = out.stats;
    if (s.machine_kills == 0 || s.container_kills == 0) {
      std::cout << "FAIL: " << out.label << " saw no chaos (machine_kills="
                << s.machine_kills << ", container_kills=" << s.container_kills << ")\n";
      rc = 1;
    }
    if (s.leaked_frames != 0) {
      std::cout << "FAIL: " << out.label << " leaked " << s.leaked_frames
                << " frames across kills/reaps/migrations\n";
      rc = 1;
    }
    if (s.replacements == 0) {
      std::cout << "FAIL: " << out.label << " never re-placed killed capacity\n";
      rc = 1;
    }
    if (s.served == 0 || s.requests != s.served + s.lost) {
      std::cout << "FAIL: " << out.label << " request accounting broken (requests="
                << s.requests << ", served=" << s.served << ", lost=" << s.lost << ")\n";
      rc = 1;
    }
  }

  // 3. The reactive policy actually adapted: migrations and reaps > 0.
  const OrchStats& reactive = outcomes[1].stats;
  if (reactive.migrations == 0) {
    std::cout << "FAIL: reactive policy performed no live migrations\n";
    rc = 1;
  }
  if (reactive.reaps == 0) {
    std::cout << "FAIL: reactive policy never reaped idle capacity\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "chaos overlap: OK (" << reactive.machine_kills << " machine + "
              << reactive.container_kills << " container kills re-placed, "
              << reactive.migrations << " migrations, " << reactive.reaps
              << " reaps, 0 leaked frames)\n";
  }

  AddOrchRunsJson(sink, cfg, outcomes);
  return rc;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_orchestrator", cki::kSmokeMode, cki::Run);
}
