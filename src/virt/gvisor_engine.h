// gVisor-style userspace kernel (paper section 2.4.3, Figure 3 "Userspace
// Kernel"). The container runs on a private Sentry — a kernel
// re-implementation living in a separate host process:
//   * syscalls are redirected to the Sentry via Systrap: the host kernel
//     traps the syscall and switches to the Sentry process (inter-process
//     communication), which is much slower than a native syscall;
//   * application page faults are handled by the HOST kernel directly
//     (Sentry backs app memory with host mmap), avoiding shadow paging;
//   * no virtualization hardware is involved, and nested deployment works.
#ifndef SRC_VIRT_GVISOR_ENGINE_H_
#define SRC_VIRT_GVISOR_ENGINE_H_

#include "src/runtime/engine.h"

namespace cki {

class GvisorEngine : public ContainerEngine {
 public:
  explicit GvisorEngine(Machine& machine);

  std::string_view name() const override { return "gVisor"; }
  RuntimeKind kind() const override { return RuntimeKind::kGvisor; }

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;
  SimNanos VirtioEmulationExtra() const override;

  // Cost of one Systrap round trip (app -> host -> Sentry -> host -> app).
  SimNanos SystrapCost() const;

  // --- EnginePort ------------------------------------------------------
  // Page tables and frames use the identity defaults: the host kernel
  // manages the real page tables (Sentry uses host mmap), so PTE stores
  // are native.
  uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) override;
  void LoadAddressSpace(uint64_t root_pa, uint16_t asid) override;

 protected:
  SyscallResult DoUserSyscall(const SyscallRequest& req) override;
  TouchStep OnTouchFault(const Fault& f, uint64_t va, bool write) override;
};

}  // namespace cki

#endif  // SRC_VIRT_GVISOR_ENGINE_H_
