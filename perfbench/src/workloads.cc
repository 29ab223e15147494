#include "src/workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "bench/fig13_cells.h"
#include "src/blkfs/blkfs.h"
#include "src/blkfs/layer_store.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/orch/orchestrator.h"
#include "src/orch/policy.h"
#include "src/runtime/runtime.h"
#include "src/sim/fnv.h"
#include "src/sim/rng.h"
#include "src/snap/snapshot.h"
#include "src/workloads/blkfs_workload.h"
#include "src/workloads/service_chain.h"

namespace perfbench {

using cki::Blkfs;
using cki::ContainerEngine;
using cki::Deployment;
using cki::Machine;
using cki::PathEvent;
using cki::RuntimeKind;
using cki::SimNanos;

void PassResult::SetLatencies(const std::vector<double>& samples_ns) {
  latency_samples = samples_ns.size();
  tail_percentile = TailPercentile(samples_ns.size());
  sim_p50_ns = Percentile(samples_ns, 50);
  sim_p99_ns = Percentile(samples_ns, tail_percentile);
}

namespace {

double HostNowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A timed part of a pass: adds its host time to `*total_ns` and records a
// root span ("setup" or "measured") that the layer spans nest under.
class Region {
 public:
  Region(double* total_ns, SpanRecorder& spans, std::string_view name, uint64_t op)
      : total_ns_(total_ns), span_(spans, name, op), start_ns_(HostNowNs()) {}
  ~Region() { *total_ns_ += HostNowNs() - start_ns_; }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

 private:
  double* total_ns_;
  ScopedSpan span_;
  double start_ns_;
};

// TraceLog counters reported per layer.
struct EventMetric {
  const char* name;
  PathEvent event;
};
constexpr EventMetric kEventMetrics[] = {
    {"hw.tlb_hit", PathEvent::kTlbHit},
    {"hw.tlb_miss", PathEvent::kTlbMiss},
    {"hw.page_walk_1d", PathEvent::kPageWalk1D},
    {"hw.page_walk_2d", PathEvent::kPageWalk2D},
    {"guest.syscall", PathEvent::kSyscallEntry},
    {"guest.page_fault", PathEvent::kPageFault},
    {"guest.context_switch", PathEvent::kContextSwitch},
    {"cki.pks_switch", PathEvent::kPksSwitch},
    {"cki.ksm_call", PathEvent::kKsmCall},
    {"virt.vm_exit", PathEvent::kVmExit},
    {"virt.nested_vm_exit", PathEvent::kNestedVmExit},
    {"virt.ept_violation", PathEvent::kEptViolation},
    {"virt.shadow_pt_update", PathEvent::kShadowPtUpdate},
    {"virt.mode_switch", PathEvent::kModeSwitch},
    {"host.virtio_kick", PathEvent::kVirtioKick},
    {"host.hw_interrupt", PathEvent::kHwInterrupt},
    {"host.virq_inject", PathEvent::kVirqInject},
};

using EventCounts = std::array<uint64_t, static_cast<size_t>(PathEvent::kCount)>;

uint64_t Total(const EventCounts& counts) {
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  return total;
}

// Adds the TraceLog events since `before` to the pass's counts.
void AddEvents(const EventCounts& before, const cki::TraceLog& log, PassResult& r) {
  for (const EventMetric& m : kEventMetrics) {
    r.sim[m.name] += static_cast<double>(cki::CountDelta(before, log, m.event));
  }
  r.events += log.TotalEvents() - Total(before);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Ratios derived from the pass's counts, computed once the pass is done.
void AddRatios(PassResult& r) {
  r.sim["hw.tlb_hit_ratio"] =
      Ratio(r.sim["hw.tlb_hit"], r.sim["hw.tlb_hit"] + r.sim["hw.tlb_miss"]);
  r.sim["blkfs.hit_ratio"] = Ratio(r.sim["blkfs.hit"], r.sim["blkfs.hit"] + r.sim["blkfs.miss"]);
}

// Keeps a timed call's result alive so the optimizer cannot drop the call.
volatile uint64_t g_probe_sink = 0;

// One FrameAllocator::OwnedFrames call on `machine`, timed on the host.
void ProbeOwnedFrames(Machine& machine, cki::OwnerId owner, PassResult& r) {
  double t0 = HostNowNs();
  g_probe_sink = machine.frames().OwnedFrames(owner);
  double t1 = HostNowNs();
  r.host_samples["host.owned_frames.host_us"].push_back((t1 - t0) / 1e3);
}

void NotePeakFrames(Machine& machine, PassResult& r) {
  double& peak = r.sim["host.frames_peak"];
  peak = std::max(peak, static_cast<double>(machine.frames().allocated_frames()));
}

// --- mem_sweep ---------------------------------------------------------------

// The 55 Figure 13 cells, each on a fresh Testbed with telemetry off. The
// digest is the SimCluster merge of the per-cell results, so at the default
// seed it is the hash bench_ext_simspeed pins.
class MemSweep : public Workload {
 public:
  MemSweep(uint64_t seed, Size size)
      : btree_seed_(seed + 1), xsbench_seed_(seed + 2), cells_(cki::Fig13CellList()) {
    if (size == Size::kTiny) {
      std::vector<cki::Fig13Cell> few;
      for (size_t i = 0; i < cells_.size(); i += 11) {
        few.push_back(cells_[i]);
      }
      cells_ = std::move(few);
    }
  }

  uint64_t golden_digest() const override { return 0x487be7a142a8c9daULL; }

  PassResult RunPass(SpanRecorder& spans, bool /*traced*/) override {
    PassResult r;
    std::vector<cki::ShardResult> shards;
    std::vector<double> latencies;
    for (size_t i = 0; i < cells_.size(); ++i) {
      const cki::Fig13Cell& cell = cells_[i];
      r.units++;
      try {
        std::unique_ptr<cki::Testbed> bed;
        {
          Region setup(&r.setup_ns, spans, "setup", i);
          ScopedSpan boot(spans, "runtime.boot", i);
          bed = std::make_unique<cki::Testbed>(cell.kind, cell.deployment);
        }
        const EventCounts before = bed->ctx().trace().Snapshot();
        SimNanos ns = 0;
        {
          Region measured(&r.measured_ns, spans, "measured", i);
          ScopedSpan mem(spans, "workloads.mem", i);
          ns = cell.app == cki::Fig13App::kBtree
                   ? cki::RunBtreeRatio(bed->engine(), cell.param, 20000, btree_seed_)
                   : cki::RunXsbenchParticles(bed->engine(), static_cast<int>(cell.param), 1500,
                                              xsbench_seed_);
        }
        AddEvents(before, bed->ctx().trace(), r);
        ProbeOwnedFrames(bed->machine(), bed->engine().id(), r);
        NotePeakFrames(bed->machine(), r);
        cki::ShardResult shard;
        shard.index = static_cast<uint32_t>(i);
        shard.sim_ns = bed->ctx().clock().now();
        shard.HashMix(ns);
        shards.push_back(std::move(shard));
        latencies.push_back(static_cast<double>(ns));
        r.sim_ns += static_cast<double>(ns);
        r.ops++;
      } catch (const std::exception& e) {
        r.Fail("cell " + std::to_string(i) + " threw: " + e.what());
      }
    }
    r.digest = cki::ClusterResult(std::move(shards)).trace_hash();
    r.SetLatencies(latencies);
    AddRatios(r);
    return r;
  }

 private:
  uint64_t btree_seed_;
  uint64_t xsbench_seed_;
  std::vector<cki::Fig13Cell> cells_;
};

// --- service_chain -----------------------------------------------------------

struct ChainPoint {
  RuntimeKind kind;
  Deployment deployment;
  int concurrency;
};

// The service chain's existing sim-time spans, reported per layer.
constexpr std::pair<std::string_view, const char*> kChainSpans[] = {
    {"chain/client", "span.chain-client.sim_us"},
    {"chain/proxy", "span.chain-proxy.sim_us"},
    {"chain/backend", "span.chain-backend.sim_us"},
    {"nic/kick", "span.nic-kick.sim_us"},
    {"nic/irq", "span.nic-irq.sim_us"},
    {"gate/hypercall", "span.gate-hypercall.sim_us"},
    {"ksm/roundtrip", "span.ksm-roundtrip.sim_us"},
    {"net/hop", "span.net-hop.sim_us"},
};

// RunServiceChain (load generator -> proxy -> backend on one machine) on
// three engines at three concurrencies, closed loop, telemetry on.
class ServiceChain : public Workload {
 public:
  ServiceChain(uint64_t seed, Size size) : seed_(seed) {
    if (size == Size::kTiny) {
      points_ = {{RuntimeKind::kCki, Deployment::kBareMetal, 1},
                 {RuntimeKind::kPvm, Deployment::kBareMetal, 16}};
      requests_ = 32;
      return;
    }
    const std::pair<RuntimeKind, Deployment> engines[] = {
        {RuntimeKind::kCki, Deployment::kBareMetal},
        {RuntimeKind::kHvm, Deployment::kNested},
        {RuntimeKind::kPvm, Deployment::kBareMetal}};
    for (const auto& [kind, deployment] : engines) {
      for (int concurrency : {1, 16, 64}) {
        points_.push_back({kind, deployment, concurrency});
      }
    }
    requests_ = kFullRequests;
  }

  uint64_t golden_digest() const override { return 0x52ad30e620681401ULL; }

  PassResult RunPass(SpanRecorder& spans, bool traced) override {
    PassResult r;
    uint64_t digest = cki::kFnvOffsetBasis;
    std::vector<double> latencies;
    double on_ns = 0;
    double off_ns = 0;
    for (size_t i = 0; i < points_.size(); ++i) {
      r.units++;
      try {
        double before_ns = r.measured_ns;
        cki::ChainResult res = RunPoint(i, /*telemetry=*/true, spans, r);
        on_ns += r.measured_ns - before_ns;
        if (res.served != static_cast<uint64_t>(requests_) || res.matched_traces != res.served) {
          r.Fail("point " + std::to_string(i) + ": served " + std::to_string(res.served) + " of " +
                 std::to_string(requests_) + ", matched traces " +
                 std::to_string(res.matched_traces));
          continue;
        }
        digest = cki::FnvMix64(digest, res.trace_hash);
        digest = cki::FnvMix64(digest, res.served);
        digest = cki::FnvMix64(digest, res.elapsed_ns);
        digest = cki::FnvMix64(digest, res.matched_traces);
        r.ops += res.served;
        r.sim_ns += static_cast<double>(res.elapsed_ns);
        r.sim["net.switch_packets"] += static_cast<double>(res.switch_packets);
        r.sim["net.nic_kicks"] += static_cast<double>(res.proxy_nic.kicks + res.backend_nic.kicks);
        r.sim["net.nic_irqs"] +=
            static_cast<double>(res.proxy_nic.interrupts + res.backend_nic.interrupts);
        r.sim["net.rx_drops"] += static_cast<double>(res.proxy_nic.rx_drops + res.backend_nic.rx_drops);
        // Closed loop: every request of a round waits for the round, so a
        // point's per-request latency is concurrency / throughput.
        double latency = static_cast<double>(res.elapsed_ns) * points_[i].concurrency /
                         static_cast<double>(res.served);
        latencies.insert(latencies.end(), res.served, latency);
        if (traced) {
          // The same point with telemetry off: its host time gives the
          // telemetry's share, and its simulated result must not move.
          PassResult off;
          spans.set_enabled(false);
          cki::ChainResult quiet = RunPoint(i, /*telemetry=*/false, spans, off);
          spans.set_enabled(true);
          off_ns += off.measured_ns;
          if (quiet.trace_hash != res.trace_hash || quiet.elapsed_ns != res.elapsed_ns) {
            r.Fail("point " + std::to_string(i) + ": telemetry changed the simulated result");
          }
        }
      } catch (const std::exception& e) {
        r.Fail("point " + std::to_string(i) + " threw: " + e.what());
      }
    }
    r.digest = digest;
    r.sim["net.nic_kicks_per_req"] = Ratio(r.sim["net.nic_kicks"], static_cast<double>(r.ops));
    r.sim["net.nic_irqs_per_req"] = Ratio(r.sim["net.nic_irqs"], static_cast<double>(r.ops));
    if (traced && on_ns > 0) {
      r.host_samples["obs.telemetry.host_share"].push_back(1.0 - off_ns / on_ns);
    }
    r.SetLatencies(latencies);
    AddRatios(r);
    return r;
  }

 private:
  static constexpr int kFullRequests = 384;

  cki::ChainResult RunPoint(size_t i, bool telemetry, SpanRecorder& spans, PassResult& r) {
    const ChainPoint& point = points_[i];
    Machine machine(cki::MachineConfigFor(point.kind, point.deployment));
    std::unique_ptr<ContainerEngine> proxy;
    std::unique_ptr<ContainerEngine> backend;
    {
      Region setup(&r.setup_ns, spans, "setup", i);
      ScopedSpan boot(spans, "runtime.boot", i);
      proxy = cki::MakeEngine(machine, point.kind);
      proxy->Boot();
      backend = cki::MakeEngine(machine, point.kind);
      backend->Boot();
    }
    cki::SimContext& ctx = machine.ctx();
    if (telemetry) {
      ctx.obs().Enable();
      ctx.obs().set_owner(0);
      ctx.obs().set_sample_every(1);
    }
    const EventCounts before = ctx.trace().Snapshot();
    cki::ChainConfig config{.concurrency = point.concurrency,
                            .total_requests = requests_,
                            .seed = cki::SimCluster::ShardSeed(seed_, static_cast<uint32_t>(i))};
    cki::ChainResult res;
    {
      Region measured(&r.measured_ns, spans, "measured", i);
      ScopedSpan chain(spans, "net.chain", i);
      res = cki::RunServiceChain(*proxy, *backend, config);
    }
    AddEvents(before, ctx.trace(), r);
    if (telemetry) {
      ctx.obs().Disable();
      const cki::SpanProfiler& prof = ctx.obs().profiler();
      for (const cki::SpanProfiler::Node& node : prof.nodes()) {
        for (const auto& [span, metric] : kChainSpans) {
          if (node.name == span) {
            r.sim[metric] += static_cast<double>(node.self) / 1e3;
          }
        }
      }
    }
    ProbeOwnedFrames(machine, proxy->id(), r);
    NotePeakFrames(machine, r);
    return res;
  }

  uint64_t seed_;
  std::vector<ChainPoint> points_;
  int requests_ = 0;
};

// --- clone_burst -------------------------------------------------------------

constexpr uint64_t kCkiSegmentPages = 1024;
constexpr uint64_t kWalName = 0x6c6177;      // "wal"
constexpr uint64_t kDataName = 0x64617461;   // "data"
constexpr uint64_t kScanBlocks = 32;

std::unique_ptr<ContainerEngine> NewEngine(Machine& machine, RuntimeKind kind) {
  if (kind == RuntimeKind::kCki) {
    return std::make_unique<cki::CkiEngine>(machine, cki::CkiAblation::kNone, kCkiSegmentPages);
  }
  return cki::MakeEngine(machine, kind);
}

// The serverless warm-up: stage a request log in tmpfs and page in an
// anonymous working set. Returns the mapping base.
uint64_t WarmUp(ContainerEngine& e, uint64_t pages) {
  cki::SyscallResult r = e.UserSyscall(cki::SyscallRequest{.no = cki::Sys::kOpen, .arg0 = 1});
  if (r.ok()) {
    uint64_t fd = static_cast<uint64_t>(r.value);
    e.UserSyscall(cki::SyscallRequest{.no = cki::Sys::kWrite, .arg0 = fd, .arg1 = 16384});
    e.UserSyscall(cki::SyscallRequest{.no = cki::Sys::kClose, .arg0 = fd});
  }
  return e.MmapAnon(pages * cki::kPageSize, /*populate=*/true);
}

enum class StartPath : uint8_t { kCold, kRestore, kClone };

// A stateful serverless burst: per engine, N containers started cold, N
// restored from a checkpoint and N cloned from a live template. Each one
// dirties a CoW working set, scans a shared blkfs base image and runs an
// fsync'd WAL burst; then the burst is killed and every frame must return.
class CloneBurst : public Workload {
 public:
  CloneBurst(uint64_t seed, Size size)
      : seed_(seed), containers_(size == Size::kTiny ? 2 : kFullContainers) {}

  uint64_t golden_digest() const override { return 0x1a389cdd6bbebe91ULL; }

  PassResult RunPass(SpanRecorder& spans, bool /*traced*/) override {
    PassResult r;
    uint64_t digest = cki::kFnvOffsetBasis;
    std::vector<double> latencies;
    double clones = 0;
    for (size_t k = 0; k < std::size(kKinds); ++k) {
      try {
        digest = cki::FnvMix64(digest, RunEngine(k, spans, r, latencies, clones));
      } catch (const std::exception& e) {
        r.units++;
        r.Fail(std::string("engine ") + std::string(cki::RuntimeKindName(kKinds[k])) +
               " threw: " + e.what());
      }
    }
    r.digest = digest;
    // Per clone, after it dirtied its working set.
    r.sim["snap.clone_dirty_frames"] = Ratio(r.sim["snap.clone_dirty_frames"], clones);
    r.sim["snap.clone_shared_frames"] = Ratio(r.sim["snap.clone_shared_frames"], clones);
    r.SetLatencies(latencies);
    AddRatios(r);
    return r;
  }

 private:
  static constexpr uint32_t kFullContainers = 256;
  static constexpr RuntimeKind kKinds[] = {RuntimeKind::kCki, RuntimeKind::kHvm,
                                           RuntimeKind::kPvm};

  struct Live {
    std::unique_ptr<ContainerEngine> engine;
    std::unique_ptr<Blkfs> fs;  // destroyed before the engine
  };

  uint64_t RunEngine(size_t k, SpanRecorder& spans, PassResult& r,
                     std::vector<double>& latencies, double& clones) {
    const RuntimeKind kind = kKinds[k];
    cki::Rng rng(cki::SimCluster::ShardSeed(seed_, static_cast<uint32_t>(k)));
    const uint64_t warm_pages = 380 + rng.NextBelow(9);
    const cki::BlkfsImageSpec spec{
        {{.name = kWalName, .blocks = 16, .tag_seed = rng.Next()},
         {.name = kDataName, .blocks = kScanBlocks, .tag_seed = rng.Next()}}};
    cki::BlkfsConfig cfg;
    cfg.cache_pages = 64;

    Machine machine(cki::MachineConfigFor(kind, Deployment::kBareMetal));
    cki::SimContext& ctx = machine.ctx();
    std::unique_ptr<cki::LayerStore> store;
    std::unique_ptr<ContainerEngine> tmpl;
    int image_id = -1;
    uint64_t base = 0;
    {
      Region setup(&r.setup_ns, spans, "setup", k);
      {
        ScopedSpan boot(spans, "runtime.boot", k);
        tmpl = NewEngine(machine, kind);
        tmpl->Boot();
      }
      base = WarmUp(*tmpl, warm_pages);
      store = std::make_unique<cki::LayerStore>(machine);
      image_id = cki::BuildBlkfsImage(*store, spec);
    }

    uint64_t digest = cki::kFnvOffsetBasis;
    const EventCounts before = ctx.trace().Snapshot();
    const SimNanos sim_start = ctx.clock().now();
    cki::SnapshotImage image;
    {
      Region measured(&r.measured_ns, spans, "measured", k);
      ScopedSpan checkpoint(spans, "snap.checkpoint", k);
      image = cki::CheckpointContainer(*tmpl);
    }
    r.sim["snap.image_bytes"] += static_cast<double>(image.bytes.size());
    digest = cki::FnvMix64(digest, image.content_hash());

    for (StartPath path : {StartPath::kCold, StartPath::kRestore, StartPath::kClone}) {
      std::vector<Live> live;
      {
        Region measured(&r.measured_ns, spans, "measured", k);
        for (uint32_t n = 0; n < containers_; ++n) {
          const uint64_t op = (k << 32) | (static_cast<uint64_t>(path) << 16) | n;
          r.units++;
          Live c;
          uint64_t ws_base = base;
          const SimNanos t0 = ctx.clock().now();
          if (path == StartPath::kCold) {
            ScopedSpan boot(spans, "runtime.boot", op);
            c.engine = NewEngine(machine, kind);
            c.engine->Boot();
            ws_base = WarmUp(*c.engine, warm_pages);
          } else if (path == StartPath::kRestore) {
            ScopedSpan restore(spans, "snap.restore", op);
            cki::RestoreOutcome out = cki::RestoreContainer(machine, image);
            if (!out.ok) {
              r.Fail("restore " + std::to_string(n) + " on " +
                     std::string(cki::RuntimeKindName(kind)) + " failed");
              continue;
            }
            c.engine = std::move(out.engine);
          } else {
            ScopedSpan clone(spans, "snap.clone", op);
            c.engine = cki::CloneContainer(*tmpl);
          }
          const SimNanos start_ns = ctx.clock().now() - t0;
          latencies.push_back(static_cast<double>(start_ns));
          digest = cki::FnvMix64(digest, start_ns);
          {
            ScopedSpan dirty(spans, "runtime.cow_dirty", op);
            const uint64_t pages = 12 + rng.NextBelow(9);
            for (uint64_t p = 0; p < pages; ++p) {
              c.engine->UserTouch(ws_base + rng.NextBelow(warm_pages) * cki::kPageSize,
                                  /*write=*/true);
            }
          }
          c.fs = std::make_unique<Blkfs>(*c.engine, *store, image_id, spec, cfg);
          {
            ScopedSpan scan(spans, "blkfs.scan", op);
            cki::RunBlkfsScan(*c.engine, *c.fs, kDataName, kScanBlocks);
          }
          {
            ScopedSpan wal(spans, "blkfs.wal", op);
            cki::RunBlkfsWal(*c.engine, *c.fs, 4 + static_cast<int>(rng.NextBelow(5)), kWalName);
          }
          digest = cki::FnvMix64(digest, c.fs->trace_hash());
          AddBlkfs(*c.fs, r);
          r.ops++;
          live.push_back(std::move(c));
        }
      }
      NotePeakFrames(machine, r);
      if (path == StartPath::kClone) {
        for (const Live& c : live) {
          r.sim["snap.clone_dirty_frames"] +=
              static_cast<double>(machine.frames().OwnedFrames(c.engine->id()));
          r.sim["snap.clone_shared_frames"] +=
              static_cast<double>(machine.frames().SharedFrames(c.engine->id()));
          clones++;
        }
      }
      {
        Region measured(&r.measured_ns, spans, "measured", k);
        for (Live& c : live) {
          ScopedSpan kill(spans, "runtime.kill", c.engine->id());
          c.fs.reset();
          c.engine->KillFromFault();
        }
      }
      for (const Live& c : live) {
        uint64_t leaked = machine.frames().OwnedFrames(c.engine->id()) +
                          machine.frames().SharedFrames(c.engine->id());
        if (leaked != 0) {
          r.sim["host.frames_leaked"] += static_cast<double>(leaked);
          r.Fail("container " + std::to_string(c.engine->id()) + " on " +
                 std::string(cki::RuntimeKindName(kind)) + " leaked " + std::to_string(leaked) +
                 " frames");
        }
      }
    }
    AddEvents(before, ctx.trace(), r);
    r.sim_ns += static_cast<double>(ctx.clock().now() - sim_start);
    ProbeOwnedFrames(machine, tmpl->id(), r);
    digest = cki::FnvMix64(digest, ctx.clock().now());
    digest = cki::FnvMix64(digest, ctx.trace().TotalEvents());
    digest = cki::FnvMix64(digest, machine.faults().trace_hash());
    tmpl->KillFromFault();
    return digest;
  }

  static void AddBlkfs(const Blkfs& fs, PassResult& r) {
    const cki::BlkfsCounters& c = fs.counters();
    r.sim["blkfs.hit"] += static_cast<double>(c.hits);
    r.sim["blkfs.miss"] += static_cast<double>(c.misses);
    r.sim["blkfs.readahead"] += static_cast<double>(c.readahead);
    r.sim["blkfs.writeback"] += static_cast<double>(c.writebacks);
    r.sim["blkfs.base_share"] += static_cast<double>(c.base_shares);
    r.sim["blkfs.cow_break"] += static_cast<double>(c.cow_breaks);
    r.sim["blkfs.dev_flush"] += static_cast<double>(fs.device_stats().flushes);
  }

  uint64_t seed_;
  uint32_t containers_;
};

// --- fleet_gray --------------------------------------------------------------

// Percentile of a cki::Histogram with the samples spread evenly across
// their bucket. Histogram::Percentile answers with the bucket midpoint,
// which moves in steps of up to 1/8 of an octave as inputs change; this
// estimate moves with the distribution.
double InterpolatedPercentile(const cki::Histogram& h, double p) {
  if (h.count() == 0) {
    return 0;
  }
  const double target =
      std::clamp(std::ceil(p / 100.0 * static_cast<double>(h.count()) - 1e-9), 1.0,
                 static_cast<double>(h.count()));
  double cum = 0;
  for (size_t i = 0; i < cki::Histogram::kOverflowBucket; ++i) {
    const double in_bucket = static_cast<double>(h.bucket(i));
    if (cum + in_bucket >= target) {
      const double frac = (target - cum - 0.5) / in_bucket;
      const double v = static_cast<double>(cki::Histogram::BucketLowerBound(i)) +
                       frac * static_cast<double>(cki::Histogram::BucketWidth(i));
      return std::clamp(v, static_cast<double>(h.min()), static_cast<double>(h.max()));
    }
    cum += in_bucket;
  }
  return static_cast<double>(h.max());
}

// Orchestrator::Run of CKI fleets with resilience on, the gray-aware
// reactive policy, all four gray fault kinds at bench_ext_resilience rates
// and container-kill chaos. Open loop: diurnal + burst Poisson arrivals.
// A pass runs several independent fleets (root seeds split from the
// workload seed) and pools their latency histograms, so the pass's tail
// is not one fleet's luck.
class FleetGray : public Workload {
 public:
  FleetGray(uint64_t seed, Size size) : seed_(seed) {
    fleets_ = size == Size::kTiny ? 1 : 32;
    cfg_.shards = size == Size::kTiny ? 2 : 4;
    cfg_.epochs = size == Size::kTiny ? 8 : 96;  // four simulated 24-epoch days
    cfg_.threads = 1;
    cfg_.epoch_ns = 1'000'000;
    cfg_.slo_p99_ns = 400'000;
    cfg_.initial_containers = 2;
    cfg_.arrivals = cki::ArrivalConfig::DiurnalBurst(/*seed=*/0, /*base_rate_per_sec=*/40'000);
    cfg_.arrivals.burst[4] = 2.5;
    cfg_.latency_inflation_rate = 0.15;
    cfg_.throughput_throttle_rate = 0.05;
    cfg_.packet_blackhole_rate = 0.10;
    cfg_.syscall_jitter_rate = 0.10;
    cfg_.container_kill_rate = 0.02;
    cfg_.resil.enabled = true;
    cki::ReactiveConfig rc;
    rc.reap_idle_epochs = 4;
    rc.gray_health_x1000 = 700;
    policy_ = std::make_unique<cki::ReactivePolicy>(rc);
  }

  uint64_t golden_digest() const override { return 0x8a2ac3e06e111f96ULL; }

  PassResult RunPass(SpanRecorder& spans, bool /*traced*/) override {
    PassResult r;
    uint64_t digest = cki::kFnvOffsetBasis;
    cki::Histogram latency;
    double epochs = 0;
    double epochs_met = 0;
    double hedge_wins = 0;
    double lost_ns = 0;
    // All fleets of the region are built first and stay resident until the
    // pass ends, so the pass's memory is the whole region's.
    std::vector<std::unique_ptr<cki::Orchestrator>> fleets(fleets_);
    for (uint32_t f = 0; f < fleets_; ++f) {
      r.units++;
      cki::OrchConfig cfg = cfg_;
      cfg.root_seed = cki::SimCluster::ShardSeed(seed_, f);
      try {
        Region setup(&r.setup_ns, spans, "setup", f);
        ScopedSpan ctor(spans, "orch.ctor", f);
        fleets[f] = std::make_unique<cki::Orchestrator>(cfg, *policy_);
      } catch (const std::exception& e) {
        r.Fail("fleet " + std::to_string(f) + " constructor threw: " + e.what());
      }
    }
    for (uint32_t f = 0; f < fleets_; ++f) {
      if (fleets[f] == nullptr) {
        continue;
      }
      cki::Orchestrator& orch = *fleets[f];
      try {
        cki::OrchStats s;
        {
          Region measured(&r.measured_ns, spans, "measured", f);
          ScopedSpan run(spans, "orch.run", f);
          s = orch.Run();
        }
        digest = cki::FnvMix64(digest, orch.CombinedHash());
        r.ops += s.requests;
        if (const cki::Histogram* lat = orch.metrics().FindHist("orch/request_latency_ns")) {
          latency.Merge(*lat);
        }
        epochs += static_cast<double>(s.epochs);
        epochs_met += static_cast<double>(s.epochs_slo_met);
        hedge_wins += static_cast<double>(s.hedge_wins);
        lost_ns += static_cast<double>(s.lost) *
                   static_cast<double>(orch.config().resil.deadline_ns);
        AddStats(s, r);
        if (std::string error = CheckStats(orch.config(), s); !error.empty()) {
          r.Fail("fleet " + std::to_string(f) + ": " + error);
        }
      } catch (const std::exception& e) {
        r.Fail("fleet " + std::to_string(f) + " threw: " + e.what());
      }
    }
    r.digest = digest;
    // Served latency plus each lost request charged its deadline budget, so
    // losing requests cannot make the fleet look faster.
    r.sim_ns = latency.Sum() + lost_ns;
    r.latency_samples = latency.count();
    r.tail_percentile = TailPercentile(latency.count());
    r.sim_p50_ns = InterpolatedPercentile(latency, 50);
    r.sim_p99_ns = InterpolatedPercentile(latency, r.tail_percentile);
    r.sim["orch.p99_bucket_us"] = latency.Percentile(99) / 1e3;
    r.sim["orch.slo_attainment"] = Ratio(epochs_met, epochs);
    r.sim["resil.hedge_win_ratio"] = Ratio(hedge_wins, r.sim["resil.hedge"]);
    AddRatios(r);
    return r;
  }

 private:
  static void AddStats(const cki::OrchStats& s, PassResult& r) {
    r.sim["orch.clone"] += static_cast<double>(s.clones);
    r.sim["orch.template_boot"] += static_cast<double>(s.template_boots);
    r.sim["orch.migration"] += static_cast<double>(s.migrations);
    r.sim["orch.reap"] += static_cast<double>(s.reaps);
    r.sim["orch.container_kill"] += static_cast<double>(s.container_kills);
    r.sim["resil.retry"] += static_cast<double>(s.retries);
    r.sim["resil.retry_denied"] += static_cast<double>(s.retries_denied);
    r.sim["resil.hedge"] += static_cast<double>(s.hedges);
    r.sim["resil.shed"] += static_cast<double>(s.sheds);
    r.sim["resil.breaker_open"] += static_cast<double>(s.breaker_opens);
    r.sim["fault.gray_episode"] += static_cast<double>(s.gray_episodes);
    r.sim["fault.blackholed"] += static_cast<double>(s.blackholed);
    r.sim["host.frames_leaked"] += static_cast<double>(s.leaked_frames);
  }

  // The invariants bench_ext_resilience checks; empty when they hold.
  static std::string CheckStats(const cki::OrchConfig& cfg, const cki::OrchStats& s) {
    const uint64_t retry_bound =
        static_cast<uint64_t>(cfg.resil.retry_budget_cap) * cfg.shards +
        static_cast<uint64_t>(cfg.resil.retry_budget_ratio * static_cast<double>(s.served)) + 1;
    if (s.leaked_frames != 0) {
      return "leaked " + std::to_string(s.leaked_frames) + " frames";
    }
    if (s.served == 0 || s.requests != s.served + s.lost || s.sheds > s.lost) {
      return "request accounting broken: requests=" + std::to_string(s.requests) +
             " served=" + std::to_string(s.served) + " lost=" + std::to_string(s.lost) +
             " sheds=" + std::to_string(s.sheds);
    }
    if (s.retries > retry_bound) {
      return "retry storm: " + std::to_string(s.retries) + " retries exceed " +
             std::to_string(retry_bound);
    }
    return "";
  }

  uint64_t seed_;
  uint32_t fleets_ = 1;
  cki::OrchConfig cfg_;
  std::unique_ptr<cki::ReactivePolicy> policy_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed, Size size) {
  if (name == "mem_sweep") {
    return std::make_unique<MemSweep>(seed, size);
  }
  if (name == "service_chain") {
    return std::make_unique<ServiceChain>(seed, size);
  }
  if (name == "clone_burst") {
    return std::make_unique<CloneBurst>(seed, size);
  }
  if (name == "fleet_gray") {
    return std::make_unique<FleetGray>(seed, size);
  }
  return nullptr;
}

}  // namespace perfbench
