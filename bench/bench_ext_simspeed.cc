// Raw simulator speed and scale-out gate (DESIGN.md §9, §14).
//
// Runs the full Figure 13 sweep (55 independent simulated machines) at
// 1, 2, 4, 8 and 16 worker threads (capped by --threads) and reports wall
// clock, speedup over one thread at fixed work, simulated ops/sec (trace
// events retired per wall second) and containers per wall second.
// Speedups are only real if results never move, so the bench hard-fails
// (exit 1) if
//
//  * the merged determinism hash differs across any two thread counts, or
//  * the hash drifts from the pre-refactor golden pinned below.
//
// The golden changes ONLY when the simulated workload or cost model
// legitimately changes — never because a host-side data structure got
// faster. A perf refactor that moves this hash is a broken refactor
// (DESIGN.md §14 explains how to prove a change hash-neutral).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig13_cells.h"
#include "src/cluster/sim_cluster.h"
#include "src/metrics/report.h"

namespace cki {
namespace {

// Merged fig13-sweep hash, pinned before the ISSUE-9 raw-speed refactor
// (bench_fig13_sweep "determinism-hash" line). Cells consume no random
// draws, so the hash is independent of --root-seed.
constexpr uint64_t kGoldenHash = 0x487be7a142a8c9daULL;

struct SpeedRun {
  uint32_t threads = 1;
  double wall_ms = 0;
  double events = 0;      // simulated ops: trace events retired
  double sim_ns = 0;      // aggregate simulated machine-time
  uint64_t hash = 0;
  size_t cells = 0;

  double MopsPerSec() const { return wall_ms > 0 ? events / 1e3 / wall_ms : 0; }
  double CellsPerSec() const { return wall_ms > 0 ? cells * 1e3 / wall_ms : 0; }
  // Simulated seconds retired per wall second ("how much faster than the
  // fiction's own hardware the simulator runs").
  double SimPerWall() const { return wall_ms > 0 ? sim_ns / 1e6 / wall_ms : 0; }
};

SpeedRun RunSweep(const std::vector<Fig13Cell>& cells, uint32_t threads, uint64_t root_seed) {
  ClusterConfig cc;
  cc.shards = static_cast<uint32_t>(cells.size());
  cc.threads = threads;
  cc.root_seed = root_seed;
  SimCluster cluster(cc);

  auto t0 = std::chrono::steady_clock::now();
  ClusterResult result = cluster.Run([&cells](const ShardTask& task) {
    return RunFig13Cell(cells[task.index]);
  });
  auto t1 = std::chrono::steady_clock::now();

  SpeedRun run;
  run.threads = threads;
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.events = result.SumValue("events");
  run.sim_ns = static_cast<double>(result.TotalSimNs());
  run.hash = result.trace_hash();
  run.cells = cells.size();
  return run;
}

int Run(BenchObsSink& sink) {
  const BenchIo& io = sink.io();
  const std::vector<Fig13Cell> cells = Fig13CellList();
  std::vector<uint32_t> thread_counts;
  for (uint32_t t = 1; t <= 16 && t <= io.ThreadsOr(16); t *= 2) {
    thread_counts.push_back(t);
  }
  // Timing noise: keep the best (fastest) wall clock of `reps` runs per
  // thread count; hashes are checked on every rep.
  const int reps = io.smoke ? 1 : 3;

  std::vector<SpeedRun> runs;
  bool golden_ok = true;
  const bool invariant =
      CheckThreadInvariant("fig13 sweep", thread_counts, [&](uint32_t threads) {
        SpeedRun best;
        for (int rep = 0; rep < reps; ++rep) {
          SpeedRun r = RunSweep(cells, threads, io.root_seed);
          if (rep == 0 || r.wall_ms < best.wall_ms) {
            best = r;
          }
          golden_ok &= r.hash == kGoldenHash;
        }
        runs.push_back(best);
        return best.hash;
      });

  ReportTable table("bench_ext_simspeed: fig13 sweep raw speed", "threads",
                    {"wall_ms", "speedup", "Mops/s", "cells/s", "sim_s_per_wall_s"});
  double peak_mops = 0;
  std::ostringstream json;
  json << "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SpeedRun& r = runs[i];
    table.AddRow(std::to_string(r.threads),
                 {r.wall_ms, r.wall_ms > 0 ? runs[0].wall_ms / r.wall_ms : 0, r.MopsPerSec(),
                  r.CellsPerSec(), r.SimPerWall()});
    peak_mops = std::max(peak_mops, r.MopsPerSec());
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "0x%016llx",
                  static_cast<unsigned long long>(r.hash));
    json << (i > 0 ? ",\n" : "\n") << "{\"threads\":" << r.threads
         << ",\"wall_ms\":" << r.wall_ms << ",\"events\":" << static_cast<uint64_t>(r.events)
         << ",\"sim_ns\":" << static_cast<uint64_t>(r.sim_ns)
         << ",\"mops_per_sec\":" << r.MopsPerSec() << ",\"cells_per_sec\":" << r.CellsPerSec()
         << ",\"hash\":\"" << hash_hex << "\"}";
  }
  json << "\n]";
  sink.Print(table, 2);
  sink.AddJson("cells", std::to_string(cells.size()));
  sink.AddJson("runs", json.str());

  std::cout << "cells: " << cells.size() << ", simulated ops: "
            << static_cast<uint64_t>(runs[0].events) << ", peak " << peak_mops << " Mops/s\n";
  std::cout << "host: " << std::thread::hardware_concurrency()
            << " hardware threads (speedup caps at min(threads, cores))\n";

  // Hard gates: the thread-invariance check above, and the golden.
  if (!golden_ok) {
    std::cout << "FAIL: determinism hash drifted from pre-refactor golden 0x" << std::hex
              << kGoldenHash << std::dec
              << " — the refactor changed simulated results, not just speed\n";
  }
  if (!invariant || !golden_ok) {
    return 1;
  }
  std::cout << "simspeed gate ok: hash bit-identical at every thread count and equal to golden\n";
  return 0;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_simspeed", cki::kSmokeMode, cki::Run);
}
