// Extension bench: cold start vs snapshot restore vs CoW clone (src/snap).
//
// For each engine and each container count N in {1, 16, 64, 256}, starts
// N containers three ways on one machine and reports per-container
// simulated latency plus the per-container dirty-memory footprint:
//   * cold    — boot a fresh engine and run the warm-up workload from
//               scratch (the serverless cold-start baseline),
//   * restore — RestoreContainer() from one checkpoint of a warmed
//               template (every frame copied, no sharing),
//   * clone   — CloneContainer() from the live template (CoW frame
//               sharing), then dirty a 16-page working set so the clone
//               pays its realistic first-write CoW breaks.
//
// Hard self-check (CI runs `--smoke` under ASan/UBSan): the CKI clone
// path must start containers at least 5x faster than cold boot at N=64,
// and a checkpoint restored on two fresh SimCluster shards must replay a
// deterministic workload bit-identically (cross-shard migration). The
// process exits non-zero if either property fails.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"
#include "src/snap/snap_stream.h"
#include "src/snap/snapshot.h"

namespace cki {
namespace {

// Clones share the template's CKI segment budget, so density runs want a
// small per-container segment instead of the 2 GiB production default.
constexpr uint64_t kCkiSegmentPages = 1024;
constexpr uint64_t kWarmMmapPages = 384;
constexpr uint64_t kCloneDirtyPages = 16;
constexpr double kRequiredCloneSpeedup = 5.0;

std::vector<BenchConfig> Configs() {
  return {
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal},
      {"HVM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
      {"gVisor", RuntimeKind::kGvisor, Deployment::kBareMetal},
  };
}

std::unique_ptr<ContainerEngine> NewEngine(Machine& machine, RuntimeKind kind) {
  if (kind == RuntimeKind::kCki) {
    return std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages);
  }
  return MakeEngine(machine, kind);
}

// The serverless "function warm-up": page in code+data via anonymous
// memory and stage a request log in tmpfs. Returns the mapping base so
// later phases can dirty the same working set.
uint64_t WarmWorkload(ContainerEngine& e) {
  SyscallResult r = e.UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = 1});
  if (r.ok()) {
    uint64_t fd = static_cast<uint64_t>(r.value);
    e.UserSyscall(SyscallRequest{.no = Sys::kWrite, .arg0 = fd, .arg1 = 16384});
    e.UserSyscall(SyscallRequest{.no = Sys::kClose, .arg0 = fd});
  }
  return e.MmapAnon(kWarmMmapPages * kPageSize, /*populate=*/true);
}

// Deterministic post-start probe used by the migration check: syscall
// results + kernel counters, folded FNV-1a style. No clock reads.
uint64_t WorkloadHash(ContainerEngine& e) {
  uint64_t h = kFnvOffsetBasis;
  auto mix = [&h](uint64_t v) { h = FnvMix64(h, v); };
  mix(static_cast<uint64_t>(e.UserSyscall(SyscallRequest{.no = Sys::kGetpid}).value));
  mix(static_cast<uint64_t>(e.UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = 1}).value));
  mix(static_cast<uint64_t>(e.UserSyscall(SyscallRequest{.no = Sys::kBrk, .arg0 = 0}).value));
  uint64_t extra = e.MmapAnon(4 * kPageSize, /*populate=*/true);
  mix(extra);
  mix(static_cast<uint64_t>(e.UserTouch(extra, /*write=*/true)));
  mix(e.kernel().total_syscalls());
  mix(e.kernel().total_page_faults());
  return h;
}

struct ScaleRow {
  double cold_us_per = 0;
  double restore_us_per = 0;
  double clone_us_per = 0;
  double speedup = 0;
  double cold_frames = 0;
  double clone_dirty_frames = 0;
};

ScaleRow RunScale(const BenchConfig& config, uint32_t n) {
  Machine machine(MachineConfigFor(config.kind, config.deployment));
  SimContext& ctx = machine.ctx();
  ScaleRow row;

  // Cold starts: boot + warm from scratch, N times.
  {
    std::vector<std::unique_ptr<ContainerEngine>> engines;
    SimNanos t0 = ctx.clock().now();
    for (uint32_t i = 0; i < n; ++i) {
      engines.push_back(NewEngine(machine, config.kind));
      engines.back()->Boot();
      WarmWorkload(*engines.back());
    }
    row.cold_us_per = static_cast<double>(ctx.clock().now() - t0) * 1e-3 / n;
    uint64_t frames = 0;
    for (const auto& e : engines) {
      frames += machine.frames().OwnedFrames(e->id());
    }
    row.cold_frames = static_cast<double>(frames) / n;
    for (auto& e : engines) {
      e->KillFromFault();  // release frames before the next phase
    }
  }

  // Template for the snapshot paths.
  std::unique_ptr<ContainerEngine> tmpl = NewEngine(machine, config.kind);
  tmpl->Boot();
  uint64_t base = WarmWorkload(*tmpl);
  SnapshotImage image = CheckpointContainer(*tmpl);

  // Restores: full frame copies from the image, no sharing.
  {
    std::vector<std::unique_ptr<ContainerEngine>> engines;
    SimNanos t0 = ctx.clock().now();
    for (uint32_t i = 0; i < n; ++i) {
      RestoreOutcome out = RestoreContainer(machine, image);
      if (!out.ok) {
        std::cerr << "restore failed for " << config.label << " at n=" << n << "\n";
        std::exit(1);
      }
      engines.push_back(std::move(out.engine));
    }
    row.restore_us_per = static_cast<double>(ctx.clock().now() - t0) * 1e-3 / n;
    for (auto& e : engines) {
      e->KillFromFault();
    }
  }

  // Clones: CoW shares, then each clone dirties its 16-page working set.
  {
    std::vector<std::unique_ptr<ContainerEngine>> clones;
    SimNanos t0 = ctx.clock().now();
    for (uint32_t i = 0; i < n; ++i) {
      clones.push_back(CloneContainer(*tmpl));
      // CloneContainer leaves the clone's address space active on the CPU.
      for (uint64_t p = 0; p < kCloneDirtyPages; ++p) {
        clones.back()->UserTouch(base + p * kPageSize, /*write=*/true);
      }
    }
    row.clone_us_per = static_cast<double>(ctx.clock().now() - t0) * 1e-3 / n;
    uint64_t dirty = 0;
    for (const auto& c : clones) {
      dirty += machine.frames().OwnedFrames(c->id());
    }
    row.clone_dirty_frames = static_cast<double>(dirty) / n;
    for (auto& c : clones) {
      c->KillFromFault();
    }
  }

  row.speedup = row.clone_us_per > 0 ? row.cold_us_per / row.clone_us_per : 0;
  return row;
}

// Checkpoint on the source machine, restore on two fresh cluster shards,
// and require the deterministic workload to replay bit-identically.
int RunMigrationCheck(uint64_t root_seed) {
  Machine source(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  std::unique_ptr<ContainerEngine> tmpl = NewEngine(source, RuntimeKind::kCki);
  tmpl->Boot();
  WarmWorkload(*tmpl);
  SnapshotImage image = CheckpointContainer(*tmpl);
  const uint64_t want = WorkloadHash(*tmpl);

  SimCluster cluster(ClusterConfig{.shards = 2, .threads = 2, .root_seed = root_seed});
  ClusterResult result = cluster.Run([&image, want](const ShardTask& task) {
    ShardResult shard;
    shard.index = task.index;
    Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
    RestoreOutcome out = RestoreContainer(machine, image);
    if (!out.ok) {
      shard.ok = false;
      shard.error = "restore failed on shard";
      return shard;
    }
    uint64_t h = WorkloadHash(*out.engine);
    shard.HashMix(h);
    shard.ok = h == want;
    if (!shard.ok) {
      shard.error = "workload hash diverged after migration";
    }
    return shard;
  });

  std::cout << "migration: image=" << image.bytes.size() << " B hash=0x" << std::hex
            << image.content_hash() << " cluster-hash=0x" << result.trace_hash() << std::dec
            << "\n";
  if (!result.all_ok() ||
      result.shards()[0].trace_hash() != result.shards()[1].trace_hash()) {
    std::cout << "FAIL: cross-shard migration did not reproduce the workload\n";
    return 1;
  }
  std::cout << "migration: OK (both shards replayed the source workload bit-identically)\n";
  return 0;
}

int Run(BenchObsSink& sink) {
  std::vector<uint32_t> scales = sink.io().smoke ? std::vector<uint32_t>{1, 64}
                                       : std::vector<uint32_t>{1, 16, 64, 256};
  int rc = 0;
  double cki_speedup_at_64 = 0;

  for (uint32_t n : scales) {
    ReportTable table("Container start: cold boot vs restore vs CoW clone, N=" +
                          std::to_string(n),
                      "engine",
                      {"cold us/ctr", "restore us/ctr", "clone us/ctr", "clone speedup",
                       "cold frames", "clone dirty"});
    for (const BenchConfig& config : Configs()) {
      ScaleRow row = RunScale(config, n);
      table.AddRow(config.label, {row.cold_us_per, row.restore_us_per, row.clone_us_per,
                                  row.speedup, row.cold_frames, row.clone_dirty_frames});
      if (config.kind == RuntimeKind::kCki && n == 64) {
        cki_speedup_at_64 = row.speedup;
      }
    }
    sink.Print(table, 1);
    std::cout << "\n";
  }

  std::cout << "clone working set: " << kCloneDirtyPages << " dirty pages of a "
            << kWarmMmapPages << "-page template\n";
  if (cki_speedup_at_64 < kRequiredCloneSpeedup) {
    std::cout << "FAIL: CKI clone speedup at N=64 is " << cki_speedup_at_64 << "x, need >= "
              << kRequiredCloneSpeedup << "x\n";
    rc = 1;
  } else {
    std::cout << "speedup: OK (CKI clone " << cki_speedup_at_64 << "x faster than cold at N=64)\n";
  }

  rc |= RunMigrationCheck(sink.io().root_seed);
  return rc;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_coldstart", cki::kSmokeMode, cki::Run);
}
