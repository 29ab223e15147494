// Extension bench: container boot cost and memory density per design —
// the serverless/high-density context the paper's introduction cites
// (RunD, Firecracker). Measures simulated boot time of a container
// (guest-kernel init through the design's PTE mechanism) and host memory
// consumed per idle container.
//
// Scale-out: the run shards `--shards` independent simulated machines
// across `--threads` workers (SimCluster, DESIGN.md §9), each machine
// booting a batch of containers, so total density scales to hundreds of
// containers per design. Boot latencies merge bucket-wise into one
// histogram; the printed table and the determinism hash are identical at
// any thread count.
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/sim/fnv.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"

namespace cki {
namespace {

constexpr uint32_t kDefaultShards = 8;
constexpr int kContainersPerShard = 8;

// Boots one batch of containers on a fresh machine and records per-boot
// latency + frame footprint into the shard's metrics.
ShardResult RunShard(RuntimeKind kind, const ShardTask& task, const BenchObsSink& sink) {
  ShardResult r;
  Machine machine(MachineConfigFor(kind, Deployment::kBareMetal));
  if (sink.active()) {
    sink.EnableHub(machine.ctx().obs());
  }
  {
    std::vector<std::unique_ptr<ContainerEngine>> engines;
    for (int c = 0; c < kContainersPerShard; ++c) {
      uint64_t frames_before = machine.frames().allocated_frames();
      SimNanos t0 = machine.ctx().clock().now();
      std::unique_ptr<ContainerEngine> engine;
      if (kind == RuntimeKind::kCki) {
        // Density configuration: a small delegated segment per container.
        engine = std::make_unique<CkiEngine>(machine, CkiAblation::kNone, /*segment_pages=*/2048);
      } else {
        engine = MakeEngine(machine, kind);
      }
      engine->Boot();
      // First request readiness: run one trivial syscall + one page touch.
      engine->UserSyscall(SyscallRequest{.no = Sys::kGetpid});
      uint64_t page = engine->MmapAnon(kPageSize, false);
      engine->UserTouch(page, true);
      SimNanos boot_ns = machine.ctx().clock().now() - t0;
      uint64_t frames = machine.frames().allocated_frames() - frames_before;
      r.metrics.Hist("density/boot_ns").Add(boot_ns);
      r.metrics.Inc("density/frames", frames);
      r.metrics.Inc("density/containers");
      r.HashMix(boot_ns);
      r.HashMix(frames);
      engines.push_back(std::move(engine));
    }
    // Engines tear down here, before the machine; their teardown events
    // still land in the shard's recorder.
  }
  r.sim_ns = machine.ctx().clock().now();
  r.values["containers"] = kContainersPerShard;
  r.obs = machine.ctx().obs().Detach();
  (void)task;  // density workload is deterministic; the seed feeds chaos variants
  return r;
}

void Run(BenchObsSink& sink) {
  const BenchIo& io = sink.io();
  ClusterConfig cc;
  cc.shards = io.ShardsOr(kDefaultShards);
  cc.threads = io.ThreadsOr(1);
  cc.root_seed = io.root_seed;
  SimCluster cluster(cc);

  ReportTable table("Container boot cost & density", "design",
                    {"containers", "boot us p50", "boot us p99", "host frames/container",
                     "boots/s (1 core)"});
  uint64_t fleet_hash = kFnvOffsetBasis;

  for (RuntimeKind kind : {RuntimeKind::kRunc, RuntimeKind::kHvm, RuntimeKind::kPvm,
                           RuntimeKind::kGvisor, RuntimeKind::kLibOs, RuntimeKind::kCki}) {
    ClusterResult result = cluster.Run(
        [kind, &sink](const ShardTask& task) { return RunShard(kind, task, sink); });
    MetricsRegistry merged = result.MergedMetrics();
    const Histogram* boots = merged.FindHist("density/boot_ns");
    double containers = static_cast<double>(merged.CounterValue("density/containers"));
    double frames = static_cast<double>(merged.CounterValue("density/frames"));
    double p50_us = boots != nullptr ? boots->Percentile(50) * 1e-3 : 0;
    double p99_us = boots != nullptr ? boots->Percentile(99) * 1e-3 : 0;
    double mean_us = boots != nullptr ? boots->Mean() * 1e-3 : 0;
    table.AddRow(std::string(RuntimeKindName(kind)),
                 {containers, p50_us, p99_us, containers > 0 ? frames / containers : 0,
                  mean_us > 0 ? 1e6 / mean_us : 0});
    // Fold per-design cluster hashes into one fleet digest, design order.
    fleet_hash ^= result.trace_hash();
    fleet_hash *= kFnvPrime;  // whole-word fold, not the byte-wise mixer
    for (const ShardResult& shard : result.shards()) {
      sink.AddConfig(std::string(RuntimeKindName(kind)) + "/shard-" +
                         std::to_string(shard.index),
                     shard.sim_ns, shard.obs);
    }
  }
  sink.Print(table, 1);
  std::cout << "cluster: " << cc.shards << " shards x " << kContainersPerShard
            << " containers, " << cluster.config().threads
            << " threads, root-seed=" << cc.root_seed << "\n";
  std::cout << "determinism-hash: 0x" << std::hex << fleet_hash << std::dec << "\n";
  std::cout << "Note: CKI's per-container footprint includes the delegated physical\n"
               "segment (sized here for density) plus KSM pages; PVM adds shadow\n"
               "tables; HVM adds EPT tables. Boot cost is dominated by how the\n"
               "design prices the guest kernel's initialization PTE stores.\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_density", cki::kNoMode, cki::Run);
}
