// Process-like LibOS container (paper section 2.4.3, Figure 3 "Proc-like
// LibOS", e.g. Nabla containers). The library OS is linked into the same
// address space as the application:
//   * "syscalls" are plain function calls — the fastest possible path;
//   * there is NO user/kernel isolation inside the container: application
//     code can corrupt libOS state directly (the security weakness CKI's
//     Table 1 flags);
//   * compatibility is limited: no multi-processing (fork/execve fail).
#ifndef SRC_VIRT_LIBOS_ENGINE_H_
#define SRC_VIRT_LIBOS_ENGINE_H_

#include "src/runtime/engine.h"

namespace cki {

class LibOsEngine : public ContainerEngine {
 public:
  explicit LibOsEngine(Machine& machine);

  std::string_view name() const override { return "LibOS"; }
  RuntimeKind kind() const override { return RuntimeKind::kLibOs; }

  void SnapCaptureState(SnapWriter& w) const override;
  void SnapApplyState(SnapReader& r) override;

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;

  // The Table-1 security gap, demonstrable: application code reaching the
  // libOS's internal state. Returns true if the access *succeeds* (it
  // does — same address space, same privilege).
  bool AppCanTouchLibOsState();

  // --- EnginePort (page tables and frames: the identity defaults) -----
  uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) override;
  void LoadAddressSpace(uint64_t root_pa, uint16_t asid) override;
  void InvalidatePage(uint64_t va) override;

 protected:
  SyscallResult DoUserSyscall(const SyscallRequest& req) override;
  // The unikernel process's faults are handled by the host kernel.
  TouchStep OnTouchFault(const Fault& f, uint64_t va, bool write) override {
    return DeliverFaultNatively(f, va, write, /*handler_extra=*/0);
  }

 private:
  // LibOS state page mapped user-accessible (the whole point of the test).
  static constexpr uint64_t kLibOsStateVa = 0x0000'6000'0000'0000;
  void MapLibOsState();

  bool state_mapped_ = false;
};

}  // namespace cki

#endif  // SRC_VIRT_LIBOS_ENGINE_H_
