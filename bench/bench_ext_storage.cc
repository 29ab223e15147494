// Extension bench: the layered block store + guest page cache (src/blkfs,
// DESIGN.md §15). Four phases, three of them hard gates (CI runs
// `--smoke` under ASan/UBSan and the process exits non-zero on any FAIL):
//
//   1. Per-engine table across the six Fig.16 configurations: WAL commits
//      (fsync barrier per transaction) and a sequential scan run cold
//      then warm, with page-cache hit/miss/readahead/writeback columns.
//      Gate: the warm scan beats the cold scan on the same trace for
//      every engine, and every WAL fsync reached the device as a FLUSH.
//   2. Dedup density: N containers boot from one template image through
//      one LayerStore and each reads the full image. Gate: the base
//      image is materialized in host frames exactly once (not once per
//      container), no container pays a single private frame for it, and
//      after KillFromFault every container's owned + shared frame count
//      is exactly zero.
//   3. Cluster determinism: the same sharded blkfs workload (WAL + scan
//      per container, optional blkfs_io_error chaos) runs at --threads
//      1, 2 and 8. Gate: the combined blkfs + injector + fault-bus trace
//      hash is bit-identical across all three thread counts.
//
// `--chaos-kinds=blkfs_io_error` arms the storage chaos site (injector
// site 14) for phase 3; kind names go through the compile-checked
// FaultKindFromName / BlkfsOpFromName tables so a typo is a startup
// error instead of a silently-disarmed site.
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/blkfs/blkfs.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/report.h"
#include "src/workloads/blkfs_workload.h"

namespace cki {
namespace {

constexpr uint64_t kWalName = 0x6c6177;      // "wal"
constexpr uint64_t kDataName = 0x64617461;   // "data"
constexpr uint64_t kScanBlocks = 192;        // fits the 256-page cache with the WAL window
constexpr uint64_t kCkiSegmentPages = 1024;  // small per-container segment for density

// The template image every phase boots from: a 64-block WAL window plus
// the scan file. Phase 2 swaps in a larger single-file root image.
BlkfsImageSpec BenchSpec(uint64_t data_blocks) {
  return BlkfsImageSpec{{{.name = kWalName, .blocks = 64, .tag_seed = 7},
                         {.name = kDataName, .blocks = data_blocks, .tag_seed = 9}}};
}

std::unique_ptr<ContainerEngine> NewEngine(Machine& machine, RuntimeKind kind) {
  if (kind == RuntimeKind::kCki) {
    return std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages);
  }
  return MakeEngine(machine, kind);
}

// --- phase 1: per-engine cache columns + warm-beats-cold gate -------------

int RunEngineTable(BenchObsSink& sink) {
  const int wal_txns = sink.io().smoke ? 64 : 200;
  int rc = 0;
  ReportTable table("blkfs: WAL commits and cold/warm sequential scan", "config",
                    {"WAL txn/s", "flush/txn", "cold scan req/s", "warm scan req/s",
                     "warm hit%", "readahead", "writebacks"});
  for (const BenchConfig& config : Fig16Configs()) {
    Testbed bed(config.kind, config.deployment);
    LayerStore store(bed.machine());
    BlkfsImageSpec spec = BenchSpec(kScanBlocks);
    int image = BuildBlkfsImage(store, spec);
    Blkfs fs(bed.engine(), store, image, spec);

    if (sink.active()) {
      sink.EnableHub(bed.ctx().obs());
      bed.ctx().obs().set_owner(bed.engine().id());
    }
    SimNanos t0 = bed.ctx().clock().now();
    BlkfsRunResult wal = RunBlkfsWal(bed.engine(), fs, wal_txns, kWalName);
    BlkfsRunResult cold = RunBlkfsScan(bed.engine(), fs, kDataName, kScanBlocks);
    BlkfsRunResult warm = RunBlkfsScan(bed.engine(), fs, kDataName, kScanBlocks);
    if (sink.active()) {
      bed.ctx().obs().Disable();
      fs.ExportMetrics(bed.ctx().obs().metrics());
      sink.AddConfig("storage/" + config.label, bed.ctx().clock().now() - t0, bed.ctx().obs());
    }

    double warm_lookups = static_cast<double>(warm.hits + warm.misses);
    table.AddRow(config.label,
                 {wal.ops_per_sec, static_cast<double>(wal.dev_flushes) / wal_txns,
                  cold.ops_per_sec, warm.ops_per_sec,
                  warm_lookups > 0 ? 100.0 * static_cast<double>(warm.hits) / warm_lookups : 0,
                  static_cast<double>(cold.readahead), static_cast<double>(wal.writebacks)});

    if (wal.dev_flushes < static_cast<uint64_t>(wal_txns)) {
      std::cout << "FAIL: " << config.label << " WAL issued " << wal.dev_flushes
                << " device flushes for " << wal_txns << " fsyncs (barrier path skipped)\n";
      rc = 1;
    }
    if (warm.elapsed >= cold.elapsed) {
      std::cout << "FAIL: " << config.label << " warm scan (" << warm.elapsed
                << " ns) did not beat the cold scan (" << cold.elapsed
                << " ns) on the same trace\n";
      rc = 1;
    }
  }
  sink.Print(table, 1);
  if (rc == 0) {
    std::cout << "cache: OK (warm scan beat cold scan on every engine; every fsync "
                 "reached the device)\n";
  }
  std::cout << "\n";
  return rc;
}

// --- phase 2: one image, N containers, exact frame accounting -------------

int RunDedupDensity(bool smoke) {
  const uint32_t n = smoke ? 8 : 32;
  const uint64_t image_blocks = smoke ? 128 : 512;
  const uint64_t root_name = 0x726f6f74;  // "root"

  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store(machine);
  BlkfsImageSpec spec{{{.name = root_name, .blocks = image_blocks, .tag_seed = 21}}};
  int image = BuildBlkfsImage(store, spec);

  // The cache holds the whole image so nothing evicts mid-measurement and
  // the share counts below are exact.
  BlkfsConfig cfg;
  cfg.cache_pages = image_blocks;

  std::vector<std::unique_ptr<ContainerEngine>> engines;
  std::vector<std::unique_ptr<Blkfs>> fss;  // destroyed before the engines
  uint64_t private_delta = 0;
  uint64_t boot_frames = 0;
  for (uint32_t i = 0; i < n; ++i) {
    engines.push_back(NewEngine(machine, RuntimeKind::kCki));
    engines.back()->Boot();
    uint64_t booted = machine.frames().OwnedFrames(engines.back()->id());
    boot_frames += booted;
    fss.push_back(std::make_unique<Blkfs>(*engines.back(), store, image, spec, cfg));
    RunBlkfsScan(*engines.back(), *fss.back(), root_name, image_blocks);
    private_delta += machine.frames().OwnedFrames(engines.back()->id()) - booted;
  }

  uint64_t materialized = store.materialized_frames(image);
  uint64_t shared_maps = 0;
  for (const auto& e : engines) {
    shared_maps += machine.frames().SharedFrames(e->id());
  }
  std::cout << "dedup: " << n << " containers x " << image_blocks << "-frame image -> "
            << materialized << " base frames materialized, "
            << static_cast<double>(private_delta) / n << " private frames/ctr, "
            << static_cast<double>(shared_maps) / n << " shared mappings/ctr, "
            << static_cast<double>(materialized + private_delta) / n
            << " physical frames/ctr amortized\n";
  std::cout << "dedup: boot footprint " << static_cast<double>(boot_frames) / n
            << " frames/ctr (kernel + page tables, not image data)\n";

  int rc = 0;
  if (materialized != image_blocks) {
    std::cout << "FAIL: base image materialized " << materialized << " frames, want exactly "
              << image_blocks << " (one physical copy for the fleet)\n";
    rc = 1;
  }
  if (private_delta != 0) {
    std::cout << "FAIL: containers paid " << private_delta
              << " private frames reading a read-only shared image, want 0\n";
    rc = 1;
  }

  for (auto& e : engines) {
    e->KillFromFault();
  }
  uint64_t leaked = 0;
  for (const auto& e : engines) {
    leaked += machine.frames().OwnedFrames(e->id()) + machine.frames().SharedFrames(e->id());
  }
  if (leaked != 0) {
    std::cout << "FAIL: " << leaked << " frames still owned/shared after killing all " << n
              << " containers\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "dedup: OK (one physical image copy, zero private frames, zero leaks "
                 "after reap)\n";
  }
  std::cout << "\n";
  return rc;
}

// --- phase 3: cluster hash identity across thread counts ------------------

struct ClusterOutcome {
  uint64_t hash = 0;
  bool ok = false;
  double wal_txn_s = 0;
  uint64_t io_errors = 0;
};

ClusterOutcome RunClusterOnce(uint32_t shards, uint32_t threads, uint64_t root_seed,
                              double io_error_rate, bool smoke) {
  const int wal_txns = smoke ? 16 : 48;
  const uint64_t scan_blocks = 64;
  const uint32_t containers = 4;

  SimCluster cluster(
      ClusterConfig{.shards = shards, .threads = threads, .root_seed = root_seed});
  ClusterResult result =
      cluster.Run([io_error_rate, wal_txns, scan_blocks, containers](const ShardTask& task) {
        ShardResult shard;
        shard.index = task.index;
        Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
        FaultInjector injector(
            InjectorConfig{.seed = task.seed, .blkfs_io_error_rate = io_error_rate});
        LayerStore store(machine);
        BlkfsImageSpec spec = BenchSpec(scan_blocks);
        int image = BuildBlkfsImage(store, spec);

        BlkfsConfig cfg;
        cfg.cache_pages = 128;
        std::vector<std::unique_ptr<ContainerEngine>> engines;
        std::vector<std::unique_ptr<Blkfs>> fss;  // destroyed before the engines
        double txn_s = 0;
        uint64_t io_errors = 0;
        for (uint32_t i = 0; i < containers; ++i) {
          engines.push_back(
              std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages));
          engines.back()->Boot();
          fss.push_back(std::make_unique<Blkfs>(*engines.back(), store, image, spec, cfg));
          fss.back()->set_injector(&injector);
          BlkfsRunResult wal = RunBlkfsWal(*engines.back(), *fss.back(), wal_txns, kWalName);
          RunBlkfsScan(*engines.back(), *fss.back(), kDataName, scan_blocks);
          RunBlkfsScan(*engines.back(), *fss.back(), kDataName, scan_blocks);
          txn_s += wal.ops_per_sec;
          io_errors += fss.back()->frontend().io_errors();
          shard.HashMix(fss.back()->trace_hash());
        }
        // The full determinism surface: per-container cache traces above,
        // then the chaos schedule and every fault the machine recorded.
        shard.HashMix(injector.trace_hash());
        shard.HashMix(machine.faults().trace_hash());

        for (auto& e : engines) {
          e->KillFromFault();
        }
        uint64_t leaked = 0;
        for (const auto& e : engines) {
          leaked +=
              machine.frames().OwnedFrames(e->id()) + machine.frames().SharedFrames(e->id());
        }
        if (leaked != 0) {
          shard.ok = false;
          shard.error = "leaked " + std::to_string(leaked) + " frames after reap";
        }
        shard.values["wal_txn_s"] = txn_s / containers;
        shard.values["blkfs_io_errors"] = static_cast<double>(io_errors);
        shard.sim_ns = machine.ctx().clock().now();
        return shard;
      });

  ClusterOutcome out;
  out.ok = result.all_ok();
  out.hash = result.trace_hash();
  out.wal_txn_s = result.SumValue("wal_txn_s") / shards;
  out.io_errors = static_cast<uint64_t>(result.SumValue("blkfs_io_errors"));
  if (!out.ok) {
    for (const ShardResult& s : result.shards()) {
      if (!s.ok) {
        std::cout << "FAIL: shard " << s.index << ": " << s.error << "\n";
      }
    }
  }
  return out;
}

int RunClusterDeterminism(const BenchIo& io, double io_error_rate) {
  const uint32_t shards = io.ShardsOr(io.smoke ? 4 : 8);
  std::cout << "cluster: " << shards << " shards, 4 containers each, chaos rate "
            << io_error_rate << " (blkfs_io_error)\n";
  bool shards_ok = true;
  const bool invariant = CheckThreadInvariant(
      "cluster blkfs+injector+fault", {1, 2, 8}, [&](uint32_t threads) {
        ClusterOutcome out = RunClusterOnce(shards, threads, io.root_seed, io_error_rate, io.smoke);
        std::cout << "cluster: threads=" << threads << " wal=" << out.wal_txn_s
                  << " txn/s/ctr io-errors=" << out.io_errors << "\n";
        shards_ok &= out.ok;
        return out.hash;
      });
  if (!invariant || !shards_ok) {
    return 1;
  }
  std::cout << "cluster: OK (zero leaked frames at every thread count)\n";
  return 0;
}

// --chaos-kinds parsing through the compile-checked name tables: the only
// storage chaos site is blkfs_io_error (injector site 14); a blkfs *op*
// name gets a targeted error instead of "unknown".
bool ParseChaosKinds(std::string_view list, double* io_error_rate) {
  while (!list.empty()) {
    size_t comma = list.find(',');
    std::string_view name = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view() : list.substr(comma + 1);
    if (name.empty()) {
      continue;
    }
    auto kind = FaultKindFromName(name);
    if (!kind.has_value()) {
      if (BlkfsOpFromName(name) != BlkfsOp::kCount) {
        std::cerr << "error: --chaos-kinds: '" << name
                  << "' is a blkfs trace op, not an injectable fault kind\n";
      } else {
        std::cerr << "error: --chaos-kinds: unknown fault kind '" << name << "'\n";
      }
      return false;
    }
    if (*kind != FaultKind::kBlkfsIoError) {
      std::cerr << "error: --chaos-kinds: '" << name
                << "' is not a storage kind (this bench arms site 14 only)\n";
      return false;
    }
    *io_error_rate = 0.01;
  }
  return true;
}

int Run(BenchObsSink& sink) {
  double io_error_rate = 0;
  if (!ParseChaosKinds(sink.io().chaos_kinds, &io_error_rate)) {
    return kBenchUsageError;
  }
  int rc = RunEngineTable(sink);
  rc |= RunDedupDensity(sink.io().smoke);
  rc |= RunClusterDeterminism(sink.io(), io_error_rate);
  return rc;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_storage", cki::kSmokeMode | cki::kChaosKindsMode,
                        cki::Run);
}
