#include "src/virt/gvisor_engine.h"

#include "src/obs/trace_scope.h"

namespace cki {

namespace {
// Sentry-side IPC rendezvous work per Systrap redirection (scheduling the
// Sentry task, shared-memory argument marshaling). With the ~2x(mode+CR3)
// switch costs this lands an empty syscall at ~2.2 us — the order the
// Systrap release notes report against a ~90 ns native syscall.
constexpr SimNanos kSystrapIpcWork = 1700;
// Sentry's re-implemented handlers run slower than native kernel paths.
constexpr SimNanos kSentryHandlerExtra = 180;
// Sentry netstack (user-space TCP/IP) per-packet surcharge.
constexpr SimNanos kNetstackExtra = 2200;
}  // namespace

GvisorEngine::GvisorEngine(Machine& machine) : ContainerEngine(machine) {
  AllocPcids(256);
}

SimNanos GvisorEngine::SystrapCost() const {
  const CostModel& c = ctx_.cost();
  // Trap to host, context switch to the Sentry process, and back.
  return 2 * c.mode_switch + 2 * c.Cr3SwitchMitigated() + kSystrapIpcWork;
}

SyscallResult GvisorEngine::DoUserSyscall(const SyscallRequest& req) {
  SyscallScope obs_scope(ctx_, id_, req.no);
  Cpu& cpu = machine_.cpu();
  ctx_.Charge(ctx_.cost().syscall_entry, PathEvent::kSyscallEntry);
  cpu.SyscallEntry();
  // Systrap: host redirects into the Sentry process.
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  ctx_.Charge(ctx_.cost().Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  ctx_.ChargeWork(kSystrapIpcWork);
  ctx_.ChargeWork(ctx_.cost().syscall_handler_min + kSentryHandlerExtra);
  SyscallResult result = kernel_->HandleSyscall(req);
  ctx_.Charge(ctx_.cost().Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  ctx_.Charge(ctx_.cost().sysret_exit, PathEvent::kSyscallExit);
  cpu.Sysret(/*requested_if=*/true);
  return result;
}

TouchStep GvisorEngine::OnTouchFault(const Fault& f, uint64_t va, bool write) {
  // The host kernel handles application page faults directly (the
  // design's trick for avoiding shadow paging, sec 2.4.3); the Sentry
  // only sees faults for ranges it has not host-mmapped yet, which our
  // model folds into a small surcharge.
  return DeliverFaultNatively(f, va, write, kSentryHandlerExtra / 2);
}

uint64_t GvisorEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  (void)op;
  (void)a0;
  (void)a1;
  // Sentry -> host requests are ordinary host syscalls from the Sentry
  // process (one ring crossing, no address-space switch needed).
  TraceScope obs_scope(ctx_, Phase::kHypercall);
  ctx_.RecordEvent(PathEvent::kHypercall);
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  ctx_.ChargeWork(ctx_.cost().hypercall_dispatch);
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  return 0;
}

SimNanos GvisorEngine::KickCost() const {
  // Sentry writes to the host network via a host syscall.
  return 2 * ctx_.cost().mode_switch + ctx_.cost().hypercall_dispatch;
}

SimNanos GvisorEngine::DeviceInterruptCost() const {
  // Host wakes the Sentry (process switch) to deliver packets.
  return 2 * (ctx_.cost().mode_switch + ctx_.cost().Cr3SwitchMitigated()) +
         ctx_.cost().virq_inject;
}

SimNanos GvisorEngine::VirtioEmulationExtra() const {
  // No virtio at all — but every packet crosses the Sentry netstack.
  return kNetstackExtra;
}

void GvisorEngine::LoadAddressSpace(uint64_t root_pa, uint16_t asid) {
  // Sentry asks the host to switch stubs/address spaces: a host syscall.
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  ctx_.Charge(ctx_.cost().cr3_write_raw, PathEvent::kCr3Switch);
  machine_.cpu().LoadCr3(MakeCr3(root_pa, static_cast<uint16_t>(pcid_base_ + (asid & 0xFF))));
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
}

}  // namespace cki
