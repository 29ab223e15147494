#include "src/workloads/kv_store.h"

#include <algorithm>
#include <vector>

#include "src/net/load_gen.h"
#include "src/net/virt_nic.h"
#include "src/net/vswitch.h"
#include "src/obs/trace_scope.h"

namespace cki {

namespace {

// Per-client connections are capped at what the server's accept loop keeps
// hot; beyond this, extra memtier clients share connections (and the
// amortization curve flattens, as in Figure 16).
constexpr int kMaxConns = 24;

SimNanos AppWorkPerRequest(KvKind kind) {
  switch (kind) {
    case KvKind::kMemcached:
      // Hash computation, item lookup/update, response assembly.
      return 1500;
    case KvKind::kRedis:
      // RESP parsing, dict ops, object management in one event loop.
      return 22000;
  }
  return 0;
}

}  // namespace

KvResult RunKvBenchmark(ContainerEngine& engine, const KvConfig& config) {
  SimContext& ctx = engine.machine().ctx();
  GuestKernel& kernel = engine.kernel();

  int conns = std::clamp(config.clients, 1, kMaxConns);
  // Responses are request/response packets: each sendto rings the TX
  // doorbell (virtio-net notifies per packet on an otherwise-empty queue).
  // RX interrupts are NAPI-coalesced: one interrupt wakes the event loop,
  // which drains every request the batch delivered.
  VSwitch sw(ctx);
  VirtNic nic(engine, sw, "kv0", NicConfig{.tx_batch = 1});
  LoadGenerator gen(ctx, sw, "memtier");
  kernel.set_net(&nic);

  const uint16_t service = (config.kind == KvKind::kMemcached) ? 11211 : 6379;
  SyscallResult lfd = engine.UserSyscall(
      SyscallRequest{.no = Sys::kListen, .arg0 = service, .arg1 = 128});
  std::vector<int> flows;
  std::vector<uint64_t> sockfds;
  for (int i = 0; i < conns; ++i) {
    int64_t flow = gen.Connect(nic.port(), service);
    SyscallResult sock = engine.UserSyscall(
        SyscallRequest{.no = Sys::kAccept, .arg0 = static_cast<uint64_t>(lfd.value)});
    flows.push_back(static_cast<int>(flow));
    sockfds.push_back(static_cast<uint64_t>(sock.value));
  }

  SimNanos start = ctx.clock().now();
  int remaining = config.total_requests;
  uint64_t served = 0;
  while (remaining > 0) {
    // One in-flight request per connection (closed loop).
    int in_flight = std::min(conns, remaining);
    for (int i = 0; i < in_flight; ++i) {
      gen.SendRequests(flows[static_cast<size_t>(i)], 1, config.value_bytes);
    }
    // Server event loop: drain everything the interrupt announced.
    while (true) {
      SyscallResult ready = engine.UserSyscall(SyscallRequest{.no = Sys::kEpollWait});
      if (!ready.ok() || ready.value == 0) {
        break;
      }
      for (int i = 0; i < in_flight; ++i) {
        SyscallResult got = engine.UserSyscall(SyscallRequest{
            .no = Sys::kRecvfrom, .arg0 = sockfds[static_cast<size_t>(i)],
            .arg1 = config.value_bytes});
        if (!got.ok()) {
          continue;
        }
        {
          // Store logic runs outside the syscall spans; give it its own
          // phase so observed root spans still sum to the measured time.
          TraceScope app_scope(ctx, engine.id(), Phase::kKvApp);
          ctx.ChargeWork(AppWorkPerRequest(config.kind));
        }
        engine.UserSyscall(SyscallRequest{.no = Sys::kSendto,
                                          .arg0 = sockfds[static_cast<size_t>(i)],
                                          .arg1 = config.value_bytes});
        served++;
      }
    }
    remaining -= in_flight;
  }
  SimNanos elapsed = ctx.clock().now() - start;
  if (ctx.obs().enabled()) {
    nic.ExportMetrics(ctx.obs().metrics());
    sw.ExportMetrics(ctx.obs().metrics());
  }
  kernel.set_net(nullptr);

  KvResult result;
  double secs = static_cast<double>(elapsed) * 1e-9;
  result.requests_per_sec = (secs > 0) ? static_cast<double>(served) / secs : 0;
  result.interrupts = nic.stats().interrupts;
  result.kicks = nic.stats().kicks;
  return result;
}

}  // namespace cki
