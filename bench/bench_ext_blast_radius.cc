// Extension benchmark: blast-radius containment. N containers share one
// machine; one of them is killed (or chaos-injected to death) mid-run, and
// the benchmark reports what the neighbors felt:
//   * neighbor per-round latency p50/p99, undisturbed vs with the kill —
//     these must be within noise of each other (containment);
//   * recovery time: the simulated cost of the kill + frame-reclaim sweep
//     (the `fault/kill` and `fault/reclaim` TraceScopes);
//   * frames still owned by the victim after the sweep — must be zero.
//
// A second chaos phase arms the deterministic FaultInjector on every
// engine, NIC, and the vswitch, runs the same mixed workload twice with the
// same seed, and checks that the fault traces (injector draw hash, fault-bus
// record hash, switch packet hash) are bit-identical — the determinism
// contract that makes chaos failures replayable.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/report.h"
#include "src/net/virt_nic.h"
#include "src/net/vswitch.h"
#include "src/runtime/runtime.h"
#include "src/sim/stats.h"

namespace cki {
namespace {

constexpr int kContainers = 4;
constexpr int kRounds = 300;
constexpr int kKillRound = 150;
constexpr uint64_t kRoundPages = 16;
constexpr uint64_t kChaosSeed = 42;
constexpr int kChaosRounds = 200;

std::vector<BenchConfig> Configs() {
  return {
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
      {"gVisor", RuntimeKind::kGvisor, Deployment::kBareMetal},
  };
}

// One round of per-container work, driven entirely through the syscall path
// (the engines share one CPU, so touches would fight over CR3).
void OpRound(ContainerEngine& eng) {
  eng.UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  uint64_t base = eng.MmapAnon(kRoundPages * kPageSize, /*populate=*/true);
  if (base != 0) {
    eng.UserSyscall(SyscallRequest{
        .no = Sys::kMunmap, .arg0 = base, .arg1 = kRoundPages * kPageSize});
  }
  eng.UserSyscall(SyscallRequest{.no = Sys::kWrite, .arg0 = 1, .arg1 = 256});
}

struct DisturbedResult {
  Stats neighbor_ns;        // per-round latency of the non-victim containers
  SimNanos recovery_ns = 0; // simulated cost of kill + reclaim
  uint64_t victim_frames_after = 0;
  uint64_t victim_frames_before = 0;
  uint64_t containers_killed = 0;
};

DisturbedResult RunPoint(const BenchConfig& config, bool kill_victim,
                         BenchObsSink& sink) {
  Machine machine(MachineConfigFor(config.kind, config.deployment));
  SimContext& ctx = machine.ctx();
  std::vector<std::unique_ptr<ContainerEngine>> engines;
  for (int i = 0; i < kContainers; ++i) {
    engines.push_back(MakeEngine(machine, config.kind));
    engines.back()->Boot();
  }
  ContainerEngine& victim = *engines.front();

  SimNanos observed_from = ctx.clock().now();
  sink.EnableHub(ctx.obs());
  ctx.obs().set_owner(0);
  DisturbedResult out;
  for (int round = 0; round < kRounds; ++round) {
    if (kill_victim && round == kKillRound) {
      out.victim_frames_before = machine.frames().OwnedFrames(victim.id());
      SimNanos before = ctx.clock().now();
      machine.faults().Kill(
          FaultReport{FaultKind::kProtectionViolation, victim.id(), 0});
      out.recovery_ns = ctx.clock().now() - before;
    }
    for (int i = 0; i < kContainers; ++i) {
      if (!engines[static_cast<size_t>(i)]->alive()) {
        continue;
      }
      SimNanos t0 = ctx.clock().now();
      OpRound(*engines[static_cast<size_t>(i)]);
      if (i != 0) {  // the victim's own rounds are not "neighbor" samples
        out.neighbor_ns.Add(static_cast<double>(ctx.clock().now() - t0));
      }
    }
  }
  ctx.obs().Disable();
  out.victim_frames_after = machine.frames().OwnedFrames(victim.id());
  out.containers_killed = machine.faults().containers_killed();

  if (sink.active() && kill_victim) {
    machine.faults().ExportMetrics(ctx.obs().metrics());
    sink.AddConfig(std::string(config.label) + "/kill",
                   ctx.clock().now() - observed_from, ctx.obs());
  }
  return out;
}

struct ChaosTrace {
  uint64_t injector_hash = 0;
  uint64_t bus_hash = 0;
  uint64_t switch_hash = 0;
  uint64_t injected = 0;
  uint64_t draws = 0;
  uint64_t killed = 0;
  uint64_t faults_reported = 0;
  int survivors = 0;
};

ChaosTrace RunChaos(const BenchConfig& config, BenchObsSink& sink,
                    const std::string& sink_label) {
  Machine machine(MachineConfigFor(config.kind, config.deployment));
  SimContext& ctx = machine.ctx();
  InjectorConfig inject;
  inject.seed = kChaosSeed;
  inject.pks_violation_rate = 0.002;
  inject.pte_flip_rate = 0.001;
  inject.segment_oom_rate = 0.003;
  inject.virtio_corrupt_rate = 0.004;
  inject.packet_drop_rate = 0.02;
  inject.packet_dup_rate = 0.01;
  FaultInjector injector(inject);

  VSwitch vswitch(ctx);
  vswitch.set_injector(&injector);
  std::vector<std::unique_ptr<ContainerEngine>> engines;
  std::vector<std::unique_ptr<VirtNic>> nics;
  for (int i = 0; i < kContainers; ++i) {
    engines.push_back(MakeEngine(machine, config.kind));
    engines.back()->Boot();
    engines.back()->set_injector(&injector);
    nics.push_back(std::make_unique<VirtNic>(*engines.back(), vswitch,
                                             "c" + std::to_string(i)));
    nics.back()->set_injector(&injector);
  }
  // Ring of pre-established flows: container i streams to container i+1.
  std::vector<int> flows;
  for (int i = 0; i < kContainers; ++i) {
    int peer = (i + 1) % kContainers;
    int flow = vswitch.AllocFlow();
    nics[static_cast<size_t>(i)]->OpenRawFlow(flow, nics[static_cast<size_t>(peer)]->port());
    nics[static_cast<size_t>(peer)]->OpenRawFlow(flow, nics[static_cast<size_t>(i)]->port());
    flows.push_back(flow);
  }

  SimNanos observed_from = ctx.clock().now();
  sink.EnableHub(ctx.obs());
  ctx.obs().set_owner(0);
  for (int round = 0; round < kChaosRounds; ++round) {
    for (int i = 0; i < kContainers; ++i) {
      ContainerEngine& eng = *engines[static_cast<size_t>(i)];
      if (!eng.alive()) {
        continue;
      }
      OpRound(eng);
      // Touches hit the injector's PKS-violation site; under the shared CPU
      // the access itself may miss this engine's mappings, which is fine —
      // the result is an error return either way, never an abort.
      eng.UserTouch(0x5000'0000 + static_cast<uint64_t>(round) * kPageSize,
                    /*write=*/true);
      nics[static_cast<size_t>(i)]->Transmit(flows[static_cast<size_t>(i)], 1500);
      nics[static_cast<size_t>(i)]->Flush();
    }
  }
  ctx.obs().Disable();

  ChaosTrace trace;
  trace.injector_hash = injector.trace_hash();
  trace.bus_hash = machine.faults().trace_hash();
  trace.switch_hash = vswitch.trace_hash();
  trace.injected = injector.injected();
  trace.draws = injector.draws();
  trace.killed = machine.faults().containers_killed();
  trace.faults_reported = machine.faults().faults_reported();
  for (const auto& eng : engines) {
    trace.survivors += eng->alive() ? 1 : 0;
  }
  if (sink.active() && !sink_label.empty()) {
    machine.faults().ExportMetrics(ctx.obs().metrics());
    vswitch.ExportMetrics(ctx.obs().metrics());
    ctx.obs().metrics().Inc("fault/faults_injected", injector.injected());
    ctx.obs().metrics().Inc("fault/injector_draws", injector.draws());
    sink.AddConfig(sink_label, ctx.clock().now() - observed_from, ctx.obs());
  }
  return trace;
}

bool Run(BenchObsSink& sink) {
  ReportTable blast("Blast radius: kill 1 of " + std::to_string(kContainers) +
                        " containers mid-run (neighbor ns/round)",
                    "config",
                    {"p50 calm", "p99 calm", "p50 kill", "p99 kill",
                     "recover us", "victim frames"});
  bool ok = true;
  for (const BenchConfig& config : Configs()) {
    DisturbedResult calm = RunPoint(config, /*kill_victim=*/false, sink);
    DisturbedResult kill = RunPoint(config, /*kill_victim=*/true, sink);
    blast.AddRow(config.label,
                 {calm.neighbor_ns.Percentile(50), calm.neighbor_ns.Percentile(99),
                  kill.neighbor_ns.Percentile(50), kill.neighbor_ns.Percentile(99),
                  static_cast<double>(kill.recovery_ns) * 1e-3,
                  static_cast<double>(kill.victim_frames_after)});
    if (kill.containers_killed != 1 || kill.victim_frames_after != 0) {
      ok = false;
      std::cerr << "ERROR: " << config.label << ": killed="
                << kill.containers_killed << " victim_frames_after="
                << kill.victim_frames_after << " (want 1 and 0)\n";
    }
  }
  sink.Print(blast, 0);

  ReportTable chaos("Chaos: deterministic injection, seed " +
                        std::to_string(kChaosSeed),
                    "config",
                    {"draws", "injected", "faults", "killed", "survivors",
                     "replay ok"});
  for (const BenchConfig& config : Configs()) {
    ChaosTrace a = RunChaos(config, sink, std::string(config.label) + "/chaos");
    ChaosTrace b = RunChaos(config, sink, "");
    bool replay_ok = a.injector_hash == b.injector_hash &&
                     a.bus_hash == b.bus_hash && a.switch_hash == b.switch_hash;
    if (!replay_ok) {
      ok = false;
      std::cerr << "ERROR: " << config.label
                << ": same seed produced different fault traces\n";
    }
    chaos.AddRow(config.label,
                 {static_cast<double>(a.draws), static_cast<double>(a.injected),
                  static_cast<double>(a.faults_reported),
                  static_cast<double>(a.killed),
                  static_cast<double>(a.survivors), replay_ok ? 1.0 : 0.0});
  }
  sink.Print(chaos, 0);
  std::cout << (ok ? "Blast radius contained: neighbors' percentiles are "
                     "unchanged, the victim's frames are fully reclaimed, and "
                     "every fault trace replays bit-identically.\n"
                   : "ERROR: blast-radius or determinism check failed (see "
                     "stderr).\n");
  return ok;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_blast_radius", cki::kNoMode,
                        [](cki::BenchObsSink& sink) { return cki::Run(sink) ? 0 : 1; });
}
