// Extension bench: the request resilience layer under gray-failure chaos
// (src/resil + src/fault/gray_fault.h, DESIGN.md §13).
//
// The orchestrated fleet serves the same diurnal + flash-crowd open-loop
// traffic as bench_ext_orchestrator, but the chaos is GRAY: seeded
// degradation episodes (latency inflation, throughput throttles, packet
// blackholes, syscall jitter — injector sites 10-13) make machines slow
// or lossy without making them dead. Two arms run over the identical
// workload and chaos seeds:
//   * resilience-off — crash-only baseline: no deadlines, retries,
//     hedges, breakers or shedding; the policy cannot see gray health,
//   * resilience-on  — deadline propagation, budgeted retries with
//     backoff, quantile hedging, per-destination circuit breakers,
//     admission shedding, and health-probe-driven drains off gray shards.
// Reported per arm: SLO attainment, overall request p99, lost arrivals,
// blackholed attempts, retries (+budget denials), hedges fired/won,
// sheds, drains and breaker opens.
//
// Hard self-checks (CI runs `--smoke` in release and under ASan/UBSan;
// the process exits non-zero when any fails):
//   1. resilience-on beats resilience-off on SLO attainment AND fleet
//      p99 over the identical gray chaos,
//   2. the combined cluster+control trace hash of the resilience-on arm
//      is bit-identical at --threads 1, 2 and 8,
//   3. the retry budget held: retries never exceed
//      cap * shards + ratio * served (no retry storm under blackholes),
//      and the baseline arm issued zero retries/hedges/sheds,
//   4. gray chaos actually struck (episodes and blackholed attempts > 0
//      in both arms), every defense engaged (retries, hedges, drains,
//      probes > 0), request accounting balances, zero leaked frames.
//
// `--chaos-kinds=a,b,...` arms only the named gray fault kinds
// (FaultKindFromName names, e.g. packet_blackhole); default is all four.
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/orch_runs.h"
#include "src/fault/fault_domain.h"
#include "src/metrics/report.h"
#include "src/orch/orchestrator.h"
#include "src/orch/policy.h"

namespace cki {
namespace {

// Which gray sites the run arms. Parsed from --chaos-kinds via the
// compile-checked FaultKindFromName table, so a typo'd kind name is a
// startup error instead of a silently-disarmed site.
struct GrayKinds {
  bool latency = false;
  bool throttle = false;
  bool blackhole = false;
  bool jitter = false;
};

bool ParseChaosKinds(std::string_view list, GrayKinds* kinds) {
  while (!list.empty()) {
    size_t comma = list.find(',');
    std::string_view name = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view() : list.substr(comma + 1);
    if (name.empty()) {
      continue;
    }
    auto kind = FaultKindFromName(name);
    if (!kind.has_value()) {
      std::cerr << "error: --chaos-kinds: unknown fault kind '" << name << "'\n";
      return false;
    }
    switch (*kind) {
      case FaultKind::kLatencyInflation:
        kinds->latency = true;
        break;
      case FaultKind::kThroughputThrottle:
        kinds->throttle = true;
        break;
      case FaultKind::kPacketBlackhole:
        kinds->blackhole = true;
        break;
      case FaultKind::kSyscallJitter:
        kinds->jitter = true;
        break;
      default:
        std::cerr << "error: --chaos-kinds: '" << name
                  << "' is not a gray kind (sites 10-13)\n";
        return false;
    }
  }
  return true;
}

OrchConfig BaseConfig(const BenchIo& io, const GrayKinds& kinds) {
  const bool smoke = io.smoke;
  OrchConfig cfg;
  cfg.shards = io.ShardsOr(smoke ? 4 : 6);
  cfg.threads = io.ThreadsOr(1);
  cfg.root_seed = io.root_seed;
  cfg.epochs = smoke ? 32 : 64;
  cfg.epoch_ns = 1'000'000;  // 1 simulated ms control epochs
  cfg.slo_p99_ns = 400'000;
  cfg.initial_containers = 2;
  // Same production-shaped traffic as bench_ext_orchestrator: diurnal day
  // with a 4x flash crowd, later shards hotter. No hard kills — this
  // bench isolates gray degradation, where the machine keeps answering
  // (slowly, lossily) and crash-only recovery never triggers.
  // Run the fleet near — not past — saturation: the flash crowd should
  // stress queues without structurally exceeding capacity, so gray
  // degradation (not overload) is the dominant failure source and the
  // two arms differ by how they handle it.
  cfg.arrivals = ArrivalConfig::DiurnalBurst(/*seed=*/0, /*base_rate_per_sec=*/40'000);
  // Soften the flash crowd from 4x to 2.5x: a 4x spike structurally
  // exceeds what the autoscaler can add within an epoch, so both arms
  // fail burst epochs identically and the SLO comparison loses signal.
  // At 2.5x a healthy fleet absorbs the crowd and the epochs that differ
  // are exactly the gray ones.
  cfg.arrivals.burst[4] = 2.5;
  // Gray chaos: per-epoch per-machine episode-start rates. At these rates
  // a 64-epoch run sees a steady drizzle of multi-epoch episodes on a
  // few machines at a time — gray, not globally down.
  cfg.latency_inflation_rate = kinds.latency ? 0.15 : 0;
  cfg.throughput_throttle_rate = kinds.throttle ? 0.05 : 0;
  cfg.packet_blackhole_rate = kinds.blackhole ? 0.10 : 0;
  cfg.syscall_jitter_rate = kinds.jitter ? 0.10 : 0;
  return cfg;
}

// Both arms run the same autoscaler tuning; only gray awareness differs.
// Headroom (max_containers 8) lets the autoscaler absorb the flash crowd,
// so shedding stays a gray-episode defense instead of a steady-state one.
ReactiveConfig ReactiveTuning(bool gray_aware) {
  ReactiveConfig rc;
  rc.reap_idle_epochs = 4;
  rc.gray_health_x1000 = gray_aware ? 700 : 0;
  return rc;
}

int Run(BenchObsSink& sink) {
  // No --chaos-kinds arms all four gray kinds.
  GrayKinds kinds{true, true, true, true};
  if (!sink.io().chaos_kinds.empty()) {
    kinds = GrayKinds{};
    if (!ParseChaosKinds(sink.io().chaos_kinds, &kinds)) {
      return kBenchUsageError;
    }
    if (!kinds.latency && !kinds.throttle && !kinds.blackhole && !kinds.jitter) {
      std::cerr << "error: --chaos-kinds armed no gray fault kinds\n";
      return kBenchUsageError;
    }
  }
  OrchConfig off_cfg = BaseConfig(sink.io(), kinds);
  off_cfg.resil.enabled = false;
  OrchConfig on_cfg = BaseConfig(sink.io(), kinds);
  on_cfg.resil.enabled = true;
  int rc = 0;

  ReactivePolicy blind_policy(ReactiveTuning(/*gray_aware=*/false));
  ReactivePolicy aware_policy(ReactiveTuning(/*gray_aware=*/true));
  // Braced-list elements run in order: off first, as in the CSV.
  const std::vector<OrchRun> outcomes = {
      RunOrchestration("resilience-off", off_cfg, blind_policy, sink),
      RunOrchestration("resilience-on", on_cfg, aware_policy, sink)};
  const OrchStats& off = outcomes[0].stats;
  const OrchStats& on = outcomes[1].stats;

  ReportTable table("Gray-failure chaos, resilience off vs on, " +
                        std::to_string(on_cfg.shards) + " shards x " +
                        std::to_string(on_cfg.epochs) + " epochs",
                    "arm",
                    {"SLO att %", "p99 us", "lost", "blackholed", "retries", "hedges",
                     "sheds", "drains"});
  for (const OrchRun& out : outcomes) {
    const OrchStats& s = out.stats;
    table.AddRow(out.label,
                 {100.0 * s.SloAttainment(), static_cast<double>(s.overall_p99_ns) * 1e-3,
                  static_cast<double>(s.lost), static_cast<double>(s.blackholed),
                  static_cast<double>(s.retries), static_cast<double>(s.hedges),
                  static_cast<double>(s.sheds), static_cast<double>(s.drains)},
                 /*weight=*/s.requests > 0 ? s.requests : 1);
  }
  sink.Print(table, 2);

  // --- hard self-checks -----------------------------------------------------

  // The arm-comparison and defense-engagement checks assume the full
  // four-kind chaos mix; a --chaos-kinds subset is an exploration run
  // where e.g. a jitter-only fleet never blackholes and never retries.
  const bool full_chaos = kinds.latency && kinds.throttle && kinds.blackhole && kinds.jitter;
  if (!full_chaos) {
    std::cout << "note: --chaos-kinds subset armed; arm-comparison and "
                 "engagement checks skipped\n";
  }

  // 1. The resilience layer earns its keep on every headline axis at
  //    once. This is the hard part: the baseline's blackhole losses act
  //    as free load shedding (lost requests record no latency), so the
  //    on arm must beat a survivor-biased p99 while also serving more.
  if (full_chaos && on.SloAttainment() <= off.SloAttainment()) {
    std::cout << "FAIL: resilience did not improve SLO attainment (on="
              << on.SloAttainment() << ", off=" << off.SloAttainment() << ")\n";
    rc = 1;
  }
  if (full_chaos && on.overall_p99_ns >= off.overall_p99_ns) {
    std::cout << "FAIL: resilience did not improve fleet p99 (on=" << on.overall_p99_ns
              << "ns, off=" << off.overall_p99_ns << "ns)\n";
    rc = 1;
  }
  // Lost arrivals are reported but not gated: the off arm's losses are
  // silent blackhole drops while the on arm's are mostly deliberate
  // sheds of deadline-infeasible work, so the raw counts are not
  // comparable across arms (the served-within-deadline axes above are).

  // 2. Determinism: gray episodes, timeouts, hedges, breaker state and
  //    drains are all functions of simulated time — the resilience-on
  //    hash must be bit-identical at any thread count.
  if (!CheckThreadInvariant("resilience-on combined", {1, 2, 8}, [&](uint32_t threads) {
        return OrchHashAt(on_cfg, aware_policy, threads);
      })) {
    rc = 1;
  }

  // 3. No retry storm: the token bucket bounds total retry volume even
  //    with blackholes swallowing attempts all run long.
  const uint64_t retry_bound =
      static_cast<uint64_t>(on_cfg.resil.retry_budget_cap) * on_cfg.shards +
      static_cast<uint64_t>(on_cfg.resil.retry_budget_ratio *
                            static_cast<double>(on.served)) +
      1;
  if (on.retries > retry_bound) {
    std::cout << "FAIL: retry storm — " << on.retries << " retries exceed budget bound "
              << retry_bound << "\n";
    rc = 1;
  }
  if (off.retries != 0 || off.hedges != 0 || off.sheds != 0 || off.probes != 0 ||
      off.breaker_opens != 0 || off.drains != 0) {
    std::cout << "FAIL: baseline arm ran resilience machinery (retries=" << off.retries
              << ", hedges=" << off.hedges << ", sheds=" << off.sheds
              << ", probes=" << off.probes << ", drains=" << off.drains << ")\n";
    rc = 1;
  }

  // 4. The chaos was real and every defense engaged.
  for (const OrchRun& out : outcomes) {
    const OrchStats& s = out.stats;
    if (s.gray_episodes == 0 || (kinds.blackhole && s.blackholed == 0)) {
      std::cout << "FAIL: " << out.label << " saw no gray chaos (episodes="
                << s.gray_episodes << ", blackholed=" << s.blackholed << ")\n";
      rc = 1;
    }
    if (s.leaked_frames != 0) {
      std::cout << "FAIL: " << out.label << " leaked " << s.leaked_frames << " frames\n";
      rc = 1;
    }
    // Sheds are a subset of lost: a shed arrival was minted but never
    // served, so the top-level books still balance.
    if (s.served == 0 || s.requests != s.served + s.lost || s.sheds > s.lost) {
      std::cout << "FAIL: " << out.label << " request accounting broken (requests="
                << s.requests << ", served=" << s.served << ", lost=" << s.lost
                << ", sheds=" << s.sheds << ")\n";
      rc = 1;
    }
  }
  if (full_chaos &&
      (on.retries == 0 || on.hedges == 0 || on.drains == 0 || on.probes == 0)) {
    std::cout << "FAIL: a defense never engaged (retries=" << on.retries
              << ", hedges=" << on.hedges << ", drains=" << on.drains
              << ", probes=" << on.probes << ")\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "resilience: OK (" << on.gray_episodes << " gray episodes, "
              << on.blackholed << " blackholed; recovered via " << on.retries
              << " retries (" << on.retries_denied << " denied), " << on.hedges
              << " hedges (" << on.hedge_wins << " wins), " << on.sheds << " sheds, "
              << on.drains << " drains, " << on.breaker_opens << " breaker opens)\n";
  }

  AddOrchRunsJson(sink, on_cfg, outcomes);
  return rc;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_resilience", cki::kSmokeMode | cki::kChaosKindsMode,
                        cki::Run);
}
