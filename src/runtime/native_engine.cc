#include "src/runtime/native_engine.h"

#include "src/obs/trace_scope.h"

namespace cki {

NativeEngine::NativeEngine(Machine& machine) : ContainerEngine(machine) {
  AllocPcids(256);
}

SyscallResult NativeEngine::DoUserSyscall(const SyscallRequest& req) {
  // Native path: syscall -> ring-0 handler -> sysret. 90 ns plus handler.
  SyscallScope obs_scope(ctx_, id_, SysName(req.no));
  Cpu& cpu = machine_.cpu();
  ctx_.Charge(ctx_.cost().syscall_entry, PathEvent::kSyscallEntry);
  cpu.SyscallEntry();
  ctx_.ChargeWork(ctx_.cost().syscall_handler_min);
  SyscallResult result = kernel_->HandleSyscall(req);
  ctx_.Charge(ctx_.cost().sysret_exit, PathEvent::kSyscallExit);
  cpu.Sysret(/*requested_if=*/true);
  return result;
}

TouchStep NativeEngine::OnTouchFault(const Fault& f, uint64_t va, bool write) {
  Cpu& cpu = machine_.cpu();
  if (f.type != FaultType::kPageNotPresent && f.type != FaultType::kPageProtection) {
    return TouchStep::kSegv;
  }
  // Native fault: delivery straight into the kernel handler, iret back.
  TraceScope fault_scope(ctx_, "fault");
  ctx_.Charge(ctx_.cost().fault_delivery, PathEvent::kPageFault);
  cpu.set_cpl(Cpl::kKernel);
  bool resolved = kernel_->HandlePageFault(va, write);
  ctx_.ChargeWork(ctx_.cost().iret_native);
  cpu.set_cpl(Cpl::kUser);
  return resolved ? TouchStep::kRetry : TouchStep::kSegv;
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
