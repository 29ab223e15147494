// Extension benchmark: a two-hop service chain (load generator ->
// nginx-style proxy container -> redis-style backend container) on one
// machine, swept across engines and concurrency. Each request crosses every
// container boundary twice, so the designs' kick/interrupt/syscall costs
// amplify across hops — the cluster-level view the single-container figures
// cannot show. The obs layer attributes the measured time per hop
// (chain/client, chain/proxy, chain/backend) and the per-hop totals must
// sum to the measured elapsed time.
//
// Two causal-tracing gates ride on top (DESIGN.md §11), and each failure
// makes the binary exit non-zero:
//   * flow continuity — every served response must carry the trace id its
//     request was minted with (ChainResult.matched_traces == served), and
//     at full recording rate the flight recorder must hold the
//     kFlowStart/kFlowStep/kFlowEnd points Perfetto needs to render one
//     request as a single arrow chain across containers.
//   * migration continuity — a request is sent to a CKI backend on machine
//     A, the backend receives it (adopting its trace), is checkpointed
//     mid-flight and restored on machine B, and the response it then sends
//     must still carry machine A's minted trace id. With --trace-out both
//     machines export as separate process tracks joined by one flow.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/net/load_gen.h"
#include "src/net/virt_nic.h"
#include "src/obs/span_profiler.h"
#include "src/runtime/runtime.h"
#include "src/snap/snapshot.h"
#include "src/workloads/service_chain.h"

namespace cki {
namespace {

constexpr int kConcurrencies[] = {1, 4, 16, 64};
constexpr int kRequests = 1000;
constexpr int kHopDetailConc = 16;  // concurrency shown in the per-hop table

SimNanos SpanTotal(const SpanProfiler& prof, std::string_view name) {
  int node = prof.FindChild(-1, name);
  return node < 0 ? 0 : prof.nodes()[static_cast<size_t>(node)].total;
}

struct SweepPoint {
  ChainResult result;
  SimNanos client_ns = 0;
  SimNanos proxy_ns = 0;
  SimNanos backend_ns = 0;
  // Flow points retained by the flight recorder (full rate only; the
  // sampling gate may legitimately suppress them at --sample-every > 1).
  uint64_t flow_starts = 0;
  uint64_t flow_steps = 0;
  uint64_t flow_ends = 0;
  SimNanos hop_sum() const { return client_ns + proxy_ns + backend_ns; }
};

SweepPoint RunPoint(const BenchConfig& config, int concurrency, BenchObsSink& sink) {
  Machine machine(MachineConfigFor(config.kind, config.deployment));
  std::unique_ptr<ContainerEngine> proxy = MakeEngine(machine, config.kind);
  proxy->Boot();
  std::unique_ptr<ContainerEngine> backend = MakeEngine(machine, config.kind);
  backend->Boot();

  // Observe every run (not just when exporting): the per-hop span totals
  // feed both the per-hop table and the consistency check below.
  SimContext& ctx = machine.ctx();
  SimNanos observed_from = ctx.clock().now();
  sink.EnableHub(ctx.obs());
  ctx.obs().set_owner(0);
  ChainConfig chain{.concurrency = concurrency, .total_requests = kRequests};
  SweepPoint point;
  point.result = RunServiceChain(*proxy, *backend, chain);
  ctx.obs().Disable();
  for (const TraceRecord& rec : ctx.obs().recorder().Chronological()) {
    switch (rec.kind) {
      case TraceRecordKind::kFlowStart:
        point.flow_starts++;
        break;
      case TraceRecordKind::kFlowStep:
        point.flow_steps++;
        break;
      case TraceRecordKind::kFlowEnd:
        point.flow_ends++;
        break;
      default:
        break;
    }
  }
  // Everything the clock did while observed (connection setup included)
  // sits under a root span, so the exported root totals sum to this window.
  SimNanos observed_ns = ctx.clock().now() - observed_from;

  const SpanProfiler& prof = ctx.obs().profiler();
  point.client_ns = SpanTotal(prof, "chain/client");
  point.proxy_ns = SpanTotal(prof, "chain/proxy");
  point.backend_ns = SpanTotal(prof, "chain/backend");
  if (sink.active()) {
    sink.AddConfig(std::string(config.label) + "/c" + std::to_string(concurrency),
                   observed_ns, ctx.obs());
  }
  return point;
}

int Run(BenchObsSink& sink) {
  std::vector<BenchConfig> configs = Fig16Configs();
  configs.insert(configs.begin(),
                 BenchConfig{"RunC-BM", RuntimeKind::kRunc, Deployment::kBareMetal});

  std::vector<std::string> cols;
  for (int c : kConcurrencies) {
    cols.push_back(std::to_string(c) + " conc");
  }
  ReportTable tput("Cluster chain: end-to-end throughput (kreq/s)", "config", cols);
  ReportTable events("Cluster chain: doorbells + interrupts per request (both hops)",
                     "config", cols);
  ReportTable hops("Cluster chain: per-hop latency at " +
                       std::to_string(kHopDetailConc) + " conc (ns/req)",
                   "config", {"client", "proxy", "backend", "hop sum", "measured"});

  const uint32_t sample_every = sink.io().sample_every;
  bool spans_consistent = true;
  int trace_failures = 0;
  for (const BenchConfig& config : configs) {
    std::vector<double> tput_row;
    std::vector<double> event_row;
    for (int conc : kConcurrencies) {
      SweepPoint point = RunPoint(config, conc, sink);
      const ChainResult& r = point.result;
      double served = static_cast<double>(r.served > 0 ? r.served : 1);
      // Flow continuity: identity must survive every hop — each served
      // response carries the trace id its request was minted with.
      if (r.matched_traces != r.served) {
        trace_failures++;
        std::cerr << "FAIL: " << config.label << " conc=" << conc << ": only "
                  << r.matched_traces << " of " << r.served
                  << " responses carried their request's trace id\n";
      }
      // At full recording rate the recorder must hold the Perfetto flow
      // chain (mint -> hop steps -> response). Presence, not exact counts:
      // the ring legitimately overwrites its oldest records on overflow.
      if (sample_every == 1 &&
          (point.flow_starts == 0 || point.flow_steps == 0 || point.flow_ends == 0)) {
        trace_failures++;
        std::cerr << "FAIL: " << config.label << " conc=" << conc
                  << ": recorder lacks flow points (start=" << point.flow_starts
                  << " step=" << point.flow_steps << " end=" << point.flow_ends << ")\n";
      }
      tput_row.push_back(r.requests_per_sec * 1e-3);
      event_row.push_back(
          static_cast<double>(r.proxy_nic.kicks + r.backend_nic.kicks +
                              r.proxy_nic.interrupts + r.backend_nic.interrupts) /
          served);
      if (conc == kHopDetailConc) {
        hops.AddRow(config.label, {static_cast<double>(point.client_ns) / served,
                                   static_cast<double>(point.proxy_ns) / served,
                                   static_cast<double>(point.backend_ns) / served,
                                   static_cast<double>(point.hop_sum()) / served,
                                   static_cast<double>(r.elapsed_ns) / served});
      }
      // Span totals only cover every round when every root scope records;
      // under --sample-every > 1 the gap is expected, not an error.
      if (sample_every == 1 && point.hop_sum() != r.elapsed_ns) {
        spans_consistent = false;
        std::cerr << "WARNING: " << config.label << " conc=" << conc
                  << ": hop spans sum to " << point.hop_sum()
                  << " ns but measured " << r.elapsed_ns << " ns\n";
      }
    }
    tput.AddRow(config.label, tput_row);
    events.AddRow(config.label, event_row);
  }

  sink.Print(tput, 1);
  std::cout << "\n";
  sink.Print(events, 2);
  std::cout << "\n";
  sink.Print(hops, 0);
  std::cout << (spans_consistent
                    ? "\nPer-hop span totals sum to the measured time for every config.\n"
                    : "\nERROR: span totals diverge from measured time (see warnings).\n")
            << (trace_failures == 0
                    ? "Every served response carried its request's trace id end to end.\n"
                    : "ERROR: causal trace identity was lost on some path (see FAILs).\n")
            << "Doorbells/interrupts per request fall with concurrency (NAPI + doorbell\n"
               "batching); the engine gap widens versus the single-container figures\n"
               "because every hop repays the design's kick/interrupt tax.\n";
  return (spans_consistent ? 0 : 1) + trace_failures;
}

// Mid-flight cross-shard migration: machine A's backend receives a traced
// request (adopting its causal identity), is checkpointed with the request
// logically in service, and the restored container on machine B answers a
// reconnected client — the response must still carry machine A's minted
// trace id (the ambient net trace survives the CKISNAP1 stream). Both
// machines export as separate trace process tracks; with --trace-out the
// request renders as one Perfetto flow crossing them.
int RunMigration(BenchObsSink& sink) {
  constexpr uint16_t kService = 6379;

  // --- machine A: serve one traced request halfway, checkpoint ------------
  Machine a(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  SimContext& ctx_a = a.ctx();
  sink.EnableHub(ctx_a.obs());
  std::unique_ptr<ContainerEngine> backend = MakeEngine(a, RuntimeKind::kCki);
  backend->Boot();
  VSwitch sw_a(ctx_a);
  VirtNic nic_a(*backend, sw_a, "mig0");
  LoadGenerator gen_a(ctx_a, sw_a, "clientA", /*trace_seed=*/0xA11CE);
  backend->kernel().set_net(&nic_a);

  SyscallResult lfd = backend->UserSyscall(
      SyscallRequest{.no = Sys::kListen, .arg0 = kService, .arg1 = 16});
  int flow = static_cast<int>(gen_a.Connect(nic_a.port(), kService));
  SyscallResult fd = backend->UserSyscall(
      SyscallRequest{.no = Sys::kAccept, .arg0 = static_cast<uint64_t>(lfd.value)});
  gen_a.SendRequests(flow, 1, 512);
  backend->UserSyscall(SyscallRequest{.no = Sys::kEpollWait});
  backend->UserSyscall(SyscallRequest{
      .no = Sys::kRecvfrom, .arg0 = static_cast<uint64_t>(fd.value), .arg1 = 1024});
  uint64_t minted = gen_a.last_request_trace();

  int failures = 0;
  if (backend->kernel().net_trace().trace_id != minted) {
    failures++;
    std::cerr << "FAIL: migration: backend did not adopt the request trace on receive\n";
  }
  SnapshotImage image = CheckpointContainer(*backend, nullptr, &nic_a);
  ctx_a.obs().Disable();
  if (sink.active()) {
    sink.AddConfig("migrate/shardA", ctx_a.clock().now(), ctx_a.obs());
  }

  // --- machine B: restore, reconnect, answer ------------------------------
  Machine b(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  SimContext& ctx_b = b.ctx();
  sink.EnableHub(ctx_b.obs());
  RestoreOutcome restored = RestoreContainer(b, image);
  if (!restored.ok) {
    std::cerr << "FAIL: migration: restore on machine B failed\n";
    return failures + 1;
  }
  VSwitch sw_b(ctx_b);
  VirtNic nic_b(*restored.engine, sw_b, "mig0");
  ApplySnapshotDeviceState(nic_b, restored.device_state);
  restored.engine->kernel().set_net(&nic_b);

  // Live flows are dropped by design (like real live migration dropping
  // established TCP state): the restored container re-listens and the
  // client reconnects, but the in-service request's identity is kernel
  // state and traveled in the stream.
  SyscallResult lfd_b = restored.engine->UserSyscall(
      SyscallRequest{.no = Sys::kListen, .arg0 = kService, .arg1 = 16});
  LoadGenerator gen_b(ctx_b, sw_b, "clientB", /*trace_seed=*/0xB0B);
  gen_b.Connect(nic_b.port(), kService);
  SyscallResult fd_b = restored.engine->UserSyscall(
      SyscallRequest{.no = Sys::kAccept, .arg0 = static_cast<uint64_t>(lfd_b.value)});
  restored.engine->UserSyscall(SyscallRequest{
      .no = Sys::kSendto, .arg0 = static_cast<uint64_t>(fd_b.value), .arg1 = 256});
  nic_b.Flush();
  ctx_b.obs().Disable();
  if (sink.active()) {
    sink.AddConfig("migrate/shardB", ctx_b.clock().now(), ctx_b.obs());
  }

  if (gen_b.last_response_trace() != minted) {
    failures++;
    std::cerr << "FAIL: migration: response trace id 0x" << std::hex
              << gen_b.last_response_trace() << " != minted 0x" << minted << std::dec
              << " — causal identity lost across checkpoint/restore\n";
  }
  std::cout << (failures == 0
                    ? "\nMid-flight migration: the restored backend's response still "
                      "carries the trace id minted on machine A.\n"
                    : "\nERROR: mid-flight migration broke causal tracing (see FAILs).\n");
  return failures;
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_cluster", cki::kNoMode,
                        [](cki::BenchObsSink& sink) {
                          int failures = cki::Run(sink);
                          failures += cki::RunMigration(sink);
                          return failures == 0 ? 0 : 1;
                        });
}
