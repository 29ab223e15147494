// Extension benchmark: what does observing cost? (obs self-accounting,
// DESIGN.md §11)
//
// Runs the same syscall-dense workload three ways — observability off,
// full-rate, and sampled (1 in kSampleEvery) — and measures host
// wall-clock per simulated op for each, taking the minimum over reps run
// round-robin across the modes. The obs layer's own counters
// (ObsSelfStats) say exactly how many writes each mode performed, so the
// bench checks two kinds of invariant:
//
//   structural (deterministic, never flaky):
//     * simulated time is identical across all three modes — observing
//       never charges the virtual clock
//     * the sampling gate suppresses the expected fraction of writes
//       (sampled_ops == ceil(root_ops / kSampleEvery), ring writes drop
//       by at least 8x at 1-in-64 sampling)
//
//   budget (wall clock, generous margins for CI/sanitizer noise):
//     * full-rate overhead stays under kFullBudgetRatio x the obs-off
//       baseline
//     * sampled-mode overhead is a step-function below full-rate
//       (<= kSampledVsFullRatio of the full-rate overhead), unless
//       full-rate overhead is itself below the noise floor
//
// Any violated invariant exits non-zero — this is the CI gate that keeps
// "always-on telemetry" honest. --smoke shrinks the op count for
// sanitizer builds.
#include <array>
#include <chrono>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/guest/syscall.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"

namespace cki {
namespace {

constexpr uint32_t kSampleEvery = 64;
constexpr int kReps = 3;                    // min-of-reps timing
// The obs-off baseline is a very cheap simulated getpid (~tens of ns of
// host work), so even a healthy fixed per-op telemetry cost is a large
// multiple of it. 12x flags a pathological hot path (accidental O(n),
// allocation per write) without tripping on a constant-cost layer.
constexpr double kFullBudgetRatio = 12.0;   // full-rate wall <= 12x obs-off wall
constexpr double kSampledVsFullRatio = 0.6; // sampled overhead <= 60% of full
constexpr double kNoiseFloorNsPerOp = 10.0; // below this, overhead is noise

enum class Mode { kOff, kFull, kSampled };
constexpr Mode kModes[] = {Mode::kOff, Mode::kFull, Mode::kSampled};

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kFull:
      return "full";
    case Mode::kSampled:
      return "sampled";
  }
  return "?";
}

struct ModeResult {
  double wall_ns_per_op = 0;  // min over reps
  SimNanos sim_ns = 0;        // simulated time (must match across modes)
  ObsSelfStats self;          // from the last rep
};

// One rep: a fresh testbed running `ops` cheap syscalls under `mode`.
// Returns host wall ns; fills sim/self outputs. With `export_to` set, the
// rep's hub (metrics plus self stats) is exported there after the timed
// region.
double RunRep(Mode mode, uint64_t ops, SimNanos* sim_ns, ObsSelfStats* self,
              BenchObsSink* export_to) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  SimContext& ctx = bed.ctx();
  if (mode != Mode::kOff) {
    ctx.obs().Enable();
    ctx.obs().set_sample_every(mode == Mode::kSampled ? kSampleEvery : 1);
  }
  SyscallRequest req{.no = Sys::kGetpid};
  auto start = std::chrono::steady_clock::now();
  SimNanos sim_before = ctx.clock().now();
  for (uint64_t i = 0; i < ops; ++i) {
    bed.engine().UserSyscall(req);
  }
  *sim_ns = ctx.clock().now() - sim_before;
  auto end = std::chrono::steady_clock::now();
  if (mode != Mode::kOff) {
    ctx.obs().Disable();
    *self = ctx.obs().self_stats();
    if (export_to != nullptr) {
      ctx.obs().ExportSelfMetrics(ctx.obs().metrics());
      export_to->AddConfig("obs_overhead", *sim_ns, ctx.obs());
    }
  } else {
    *self = ObsSelfStats{};
  }
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
}

// Runs kReps rounds of one rep per mode (off, full, sampled), so a noisy
// stretch of host time hits every mode alike rather than one; each mode
// keeps its fastest rep. The last full-rate rep's hub goes to `export_to`
// if set. Indexed by Mode.
std::array<ModeResult, 3> RunModes(uint64_t ops, BenchObsSink* export_to) {
  std::array<ModeResult, 3> results;
  for (int rep = 0; rep < kReps; ++rep) {
    for (Mode mode : kModes) {
      ModeResult& r = results[static_cast<size_t>(mode)];
      bool export_rep = mode == Mode::kFull && rep == kReps - 1;
      double wall = RunRep(mode, ops, &r.sim_ns, &r.self, export_rep ? export_to : nullptr) /
                    static_cast<double>(ops);
      if (rep == 0 || wall < r.wall_ns_per_op) {
        r.wall_ns_per_op = wall;
      }
    }
  }
  return results;
}

int Run(BenchObsSink& sink) {
  const uint64_t ops = sink.io().smoke ? 20000 : 200000;
  // The last full-rate rep's hub is what --json-out/--metrics-csv export.
  const std::array<ModeResult, 3> results = RunModes(ops, sink.active() ? &sink : nullptr);
  const ModeResult& off = results[static_cast<size_t>(Mode::kOff)];
  const ModeResult& full = results[static_cast<size_t>(Mode::kFull)];
  const ModeResult& sampled = results[static_cast<size_t>(Mode::kSampled)];

  ReportTable table("Observability self-cost (" + std::to_string(ops) + " getpid ops)", "mode",
                    {"wall ns/op", "ring writes", "suppressed", "hist samples", "slo samples"});
  for (Mode mode : kModes) {
    const ModeResult& r = results[static_cast<size_t>(mode)];
    table.AddRow(ModeName(mode),
                 {r.wall_ns_per_op, static_cast<double>(r.self.ring_writes),
                  static_cast<double>(r.self.suppressed_writes),
                  static_cast<double>(r.self.hist_samples),
                  static_cast<double>(r.self.slo_samples)});
  }
  sink.Print(table, 1);

  double full_overhead = full.wall_ns_per_op - off.wall_ns_per_op;
  double sampled_overhead = sampled.wall_ns_per_op - off.wall_ns_per_op;
  std::cout << "\nfull-rate overhead:   " << full_overhead << " ns/op\n"
            << "sampled (1/" << kSampleEvery << ") overhead: " << sampled_overhead << " ns/op\n";

  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      failures++;
      std::cerr << "FAIL: " << what << "\n";
    }
  };

  // Structural invariants (deterministic).
  check(off.sim_ns == full.sim_ns && off.sim_ns == sampled.sim_ns,
        "simulated time must be identical across obs modes (off=" +
            std::to_string(off.sim_ns) + " full=" + std::to_string(full.sim_ns) +
            " sampled=" + std::to_string(sampled.sim_ns) + ")");
  uint64_t expect_sampled = (full.self.root_ops + kSampleEvery - 1) / kSampleEvery;
  check(sampled.self.root_ops == full.self.root_ops,
        "both observed modes must see the same root op count");
  check(sampled.self.sampled_ops == expect_sampled,
        "sampling gate must keep exactly ceil(root_ops/" + std::to_string(kSampleEvery) +
            ") ops (kept " + std::to_string(sampled.self.sampled_ops) + ", expected " +
            std::to_string(expect_sampled) + ")");
  check(sampled.self.ring_writes * 8 <= full.self.ring_writes,
        "1-in-" + std::to_string(kSampleEvery) +
            " sampling must cut ring writes by at least 8x (full=" +
            std::to_string(full.self.ring_writes) +
            " sampled=" + std::to_string(sampled.self.ring_writes) + ")");
  check(sampled.self.slo_samples == full.self.slo_samples,
        "SLO windows must stay at full rate under sampling");

  // Wall-clock budgets (generous: sanitizers inflate everything evenly).
  check(full.wall_ns_per_op <= kFullBudgetRatio * off.wall_ns_per_op,
        "full-rate observing must stay under " + std::to_string(kFullBudgetRatio) +
            "x the obs-off baseline");
  if (full_overhead > kNoiseFloorNsPerOp) {
    check(sampled_overhead <= kSampledVsFullRatio * full_overhead,
          "sampled-mode overhead must be a step-function below full rate");
  }

  std::cout << (failures == 0 ? "\nAll observability overhead invariants hold.\n"
                              : "\nERROR: observability overhead gate failed (see above).\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_obs_overhead", cki::kSmokeMode, cki::Run);
}
