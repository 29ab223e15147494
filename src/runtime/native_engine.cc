#include "src/runtime/native_engine.h"

#include "src/obs/trace_scope.h"

namespace cki {

NativeEngine::NativeEngine(Machine& machine) : ContainerEngine(machine) {
  AllocPcids(256);
}

SyscallResult NativeEngine::DoUserSyscall(const SyscallRequest& req) {
  // Native path: syscall -> ring-0 handler -> sysret. 90 ns plus handler.
  SyscallScope obs_scope(ctx_, id_, req.no);
  Cpu& cpu = machine_.cpu();
  ctx_.Charge(ctx_.cost().syscall_entry, PathEvent::kSyscallEntry);
  cpu.SyscallEntry();
  ctx_.ChargeWork(ctx_.cost().syscall_handler_min);
  SyscallResult result = kernel_->HandleSyscall(req);
  ctx_.Charge(ctx_.cost().sysret_exit, PathEvent::kSyscallExit);
  cpu.Sysret(/*requested_if=*/true);
  return result;
}

SimNanos NativeEngine::KickCost() const {
  // The "device" is the host's own network stack: a function call.
  return 0;
}

SimNanos NativeEngine::DeviceInterruptCost() const {
  return ctx_.cost().hw_interrupt_delivery;
}

uint64_t NativeEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  // No hypervisor: the guest-kernel-side request is a no-op too.
  (void)op;
  (void)a0;
  (void)a1;
  return 0;
}

void NativeEngine::LoadAddressSpace(uint64_t root_pa, uint16_t asid) {
  ctx_.Charge(ctx_.cost().cr3_write_raw, PathEvent::kCr3Switch);
  machine_.cpu().LoadCr3(MakeCr3(root_pa, static_cast<uint16_t>(pcid_base_ + (asid & 0xFF))));
}

}  // namespace cki
