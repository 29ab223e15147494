// RunC: the OS-level container baseline. Container processes are ordinary
// host processes — syscalls enter the (host) kernel natively, page faults
// are handled natively, page tables are written directly, and there is no
// hypervisor underneath.
#ifndef SRC_RUNTIME_NATIVE_ENGINE_H_
#define SRC_RUNTIME_NATIVE_ENGINE_H_

#include "src/runtime/engine.h"

namespace cki {

class NativeEngine : public ContainerEngine {
 public:
  explicit NativeEngine(Machine& machine);

  std::string_view name() const override { return "RunC"; }
  RuntimeKind kind() const override { return RuntimeKind::kRunc; }

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;
  SimNanos InterruptAckCost() const override { return 0; }

  // --- EnginePort (page tables and frames: the identity defaults) -----
  uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) override;
  void LoadAddressSpace(uint64_t root_pa, uint16_t asid) override;

 protected:
  SyscallResult DoUserSyscall(const SyscallRequest& req) override;
  // Native fault: delivery straight into the kernel handler, iret back.
  TouchStep OnTouchFault(const Fault& f, uint64_t va, bool write) override {
    return DeliverFaultNatively(f, va, write, /*handler_extra=*/0);
  }
};

}  // namespace cki

#endif  // SRC_RUNTIME_NATIVE_ENGINE_H_
