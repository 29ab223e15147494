#include "src/workloads/service_chain.h"

#include <algorithm>
#include <vector>

#include "src/net/load_gen.h"
#include "src/net/vswitch.h"
#include "src/obs/trace_scope.h"
#include "src/sim/rng.h"

namespace cki {

ChainResult RunServiceChain(ContainerEngine& proxy, ContainerEngine& backend,
                            const ChainConfig& config) {
  SimContext& ctx = proxy.machine().ctx();
  int conc = std::max(1, config.concurrency);
  int batch = std::clamp(conc, 1, 24);

  VSwitch sw(ctx);
  VirtNic proxy_nic(proxy, sw, "proxy0", NicConfig{.tx_batch = batch});
  VirtNic backend_nic(backend, sw, "backend0", NicConfig{.tx_batch = batch});
  LoadGenerator gen(ctx, sw, "client");
  proxy.kernel().set_net(&proxy_nic);
  backend.kernel().set_net(&backend_nic);

  constexpr uint16_t kProxyService = 80;
  constexpr uint16_t kBackendService = 6379;

  uint64_t upfd = 0;         // proxy -> backend connection (proxy side)
  uint64_t backend_fd = 0;   // the same connection, backend side
  std::vector<int> flows;    // client flows
  std::vector<uint64_t> proxy_fds;
  {
    TraceScope setup_scope(ctx, Phase::kChainSetup);
    SyscallResult blfd = backend.UserSyscall(
        SyscallRequest{.no = Sys::kListen, .arg0 = kBackendService, .arg1 = 128});
    SyscallResult plfd = proxy.UserSyscall(
        SyscallRequest{.no = Sys::kListen, .arg0 = kProxyService, .arg1 = 128});
    SyscallResult up = proxy.UserSyscall(
        SyscallRequest{.no = Sys::kConnect,
                       .arg0 = static_cast<uint64_t>(backend_nic.port()),
                       .arg1 = kBackendService});
    upfd = static_cast<uint64_t>(up.value);
    SyscallResult bfd = backend.UserSyscall(
        SyscallRequest{.no = Sys::kAccept, .arg0 = static_cast<uint64_t>(blfd.value)});
    backend_fd = static_cast<uint64_t>(bfd.value);
    for (int c = 0; c < conc; ++c) {
      flows.push_back(static_cast<int>(gen.Connect(proxy_nic.port(), kProxyService)));
      SyscallResult sock = proxy.UserSyscall(
          SyscallRequest{.no = Sys::kAccept, .arg0 = static_cast<uint64_t>(plfd.value)});
      proxy_fds.push_back(static_cast<uint64_t>(sock.value));
    }
  }

  Rng rng(config.seed);
  SimNanos start = ctx.clock().now();
  int remaining = config.total_requests;
  uint64_t served = 0;
  while (remaining > 0) {
    int n = std::min(conc, remaining);
    {
      TraceScope obs_scope(ctx, 0, Phase::kChainClient);
      for (int c = 0; c < n; ++c) {
        gen.SendRequests(flows[static_cast<size_t>(c)], 1,
                         config.request_bytes + rng.NextBelow(64));
      }
    }
    {
      // Inbound leg: terminate the client connection, query the backend.
      TraceScope obs_scope(ctx, proxy.id(), Phase::kChainProxy);
      for (int c = 0; c < n; ++c) {
        proxy.UserSyscall(SyscallRequest{.no = Sys::kEpollWait});
        proxy.UserSyscall(SyscallRequest{.no = Sys::kRecvfrom,
                                         .arg0 = proxy_fds[static_cast<size_t>(c)],
                                         .arg1 = config.request_bytes + 64});
        for (int s = 0; s < config.proxy_syscalls; ++s) {
          proxy.UserSyscall(SyscallRequest{
              .no = (s % 2 == 0) ? Sys::kStat : Sys::kGettimeofday, .arg0 = 555});
        }
        ctx.ChargeWork(config.proxy_compute);
        proxy.UserSyscall(SyscallRequest{
            .no = Sys::kSendto, .arg0 = upfd, .arg1 = config.upstream_bytes});
      }
      proxy_nic.Flush();
    }
    {
      TraceScope obs_scope(ctx, backend.id(), Phase::kChainBackend);
      for (int c = 0; c < n; ++c) {
        backend.UserSyscall(SyscallRequest{.no = Sys::kEpollWait});
        backend.UserSyscall(SyscallRequest{
            .no = Sys::kRecvfrom, .arg0 = backend_fd, .arg1 = config.upstream_bytes});
        ctx.ChargeWork(config.backend_compute);
        backend.UserSyscall(SyscallRequest{
            .no = Sys::kSendto, .arg0 = backend_fd, .arg1 = config.response_bytes});
      }
      backend_nic.Flush();
    }
    {
      // Outbound leg: relay the backend responses to the clients.
      TraceScope obs_scope(ctx, proxy.id(), Phase::kChainProxy);
      for (int c = 0; c < n; ++c) {
        proxy.UserSyscall(SyscallRequest{.no = Sys::kEpollWait});
        proxy.UserSyscall(SyscallRequest{
            .no = Sys::kRecvfrom, .arg0 = upfd, .arg1 = config.response_bytes});
        proxy.UserSyscall(SyscallRequest{.no = Sys::kSendto,
                                         .arg0 = proxy_fds[static_cast<size_t>(c)],
                                         .arg1 = config.response_bytes});
      }
      proxy_nic.Flush();
    }
    {
      TraceScope obs_scope(ctx, 0, Phase::kChainClient);
      for (int c = 0; c < n; ++c) {
        served += gen.TakeResponses(flows[static_cast<size_t>(c)]);
      }
    }
    if (ctx.obs().enabled()) {
      // Round-boundary SLO gauges: resident frames per container.
      SimNanos now = ctx.clock().now();
      FrameAllocator& frames = proxy.machine().frames();
      ctx.obs().SloSetGauge(proxy.id(), now, frames.OwnedFrames(proxy.id()));
      ctx.obs().SloSetGauge(backend.id(), now, frames.OwnedFrames(backend.id()));
    }
    remaining -= n;
  }
  SimNanos elapsed = ctx.clock().now() - start;
  if (ctx.obs().enabled()) {
    proxy_nic.ExportMetrics(ctx.obs().metrics());
    backend_nic.ExportMetrics(ctx.obs().metrics());
    sw.ExportMetrics(ctx.obs().metrics());
  }
  proxy.kernel().set_net(nullptr);
  backend.kernel().set_net(nullptr);

  ChainResult result;
  result.elapsed_ns = elapsed;
  result.served = served;
  double secs = static_cast<double>(elapsed) * 1e-9;
  result.requests_per_sec = (secs > 0) ? static_cast<double>(served) / secs : 0;
  result.avg_latency_ns =
      (served > 0) ? static_cast<double>(elapsed) / static_cast<double>(served) : 0;
  result.proxy_nic = proxy_nic.stats();
  result.backend_nic = backend_nic.stats();
  result.switch_packets = sw.packets_forwarded();
  result.trace_hash = sw.trace_hash();
  result.matched_traces = gen.matched_responses();
  result.last_trace_id = gen.last_request_trace();
  return result;
}

}  // namespace cki
