// PVM: software-based virtualization (SOSP'23), the state-of-the-art secure
// container design without virtualization hardware.
//
// The guest kernel is deprivileged to user mode in its own address space.
// Application syscalls and exceptions trap to the host kernel first and are
// redirected into the guest kernel (two extra mode switches and two extra
// mitigated CR3 switches per syscall). Memory keeps the two-stage
// gVA -> gPA -> hPA abstraction via shadow paging: hardware runs on host-
// maintained shadow tables, and every guest PTE update is a para-virtual
// exit plus shadow-PTE emulation (sections 2.4.2, 7.1).
#ifndef SRC_VIRT_PVM_ENGINE_H_
#define SRC_VIRT_PVM_ENGINE_H_


#include "src/hw/page_table.h"
#include "src/runtime/engine.h"
#include "src/runtime/gfn_map.h"

namespace cki {

class PvmEngine : public ContainerEngine {
 public:
  explicit PvmEngine(Machine& machine);

  std::string_view name() const override { return nested() ? "PVM-NST" : "PVM-BM"; }
  RuntimeKind kind() const override { return RuntimeKind::kPvm; }

  // --- snapshot hooks --------------------------------------------------
  void SnapCaptureConfig(SnapWriter& w) const override;
  void SnapApplyConfig(SnapReader& r) override;
  uint64_t HostFrameFor(uint64_t pa) const override;
  uint64_t EnsureHostFrame(uint64_t pa) override;
  uint64_t AdoptSharedFrame(uint64_t host_pa) override;

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;
  SimNanos VirtioEmulationExtra() const override;

  void set_cold_faults(bool cold) { cold_faults_ = cold; }

  // Statistics for tests: how many shadow entries exist / hidden fills ran.
  uint64_t shadow_fills() const { return shadow_fills_; }
  uint64_t spt_emulations() const { return spt_emulations_; }

  // --- EnginePort ------------------------------------------------------
  uint64_t ReadPte(uint64_t pte_pa) override;
  bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) override;
  void BeginPteBatch() override;
  void EndPteBatch() override;
  uint64_t AllocDataPage() override;
  void FreeDataPage(uint64_t pa) override;
  uint64_t AllocPtp(int level) override;
  void FreePtp(uint64_t pa, int level) override;
  uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) override;
  void LoadAddressSpace(uint64_t root_pa, uint16_t asid) override;

 protected:
  SyscallResult DoUserSyscall(const SyscallRequest& req) override;
  TouchStep OnTouchFault(const Fault& f, uint64_t va, bool write) override;
  void OnKill() override;

 private:
  // One PVM "VM exit" round trip: host entry/exit without virtualization
  // hardware (2 mode switches + 2 mitigated CR3 switches + save/restore).
  void ChargePvmExit();
  // Charges the extra redirection legs of a syscall (no full exit).
  void ChargeSyscallRedirect();

  uint64_t Backing(uint64_t gpa, bool create);
  uint64_t GuestPhysAlloc();
  // Shadow root for a guest process root, created on demand.
  uint64_t ShadowRoot(uint64_t guest_root);
  // Mirrors a guest leaf update into the shadow table when the update
  // belongs to the currently loaded address space.
  void SyncShadowLeaf(uint64_t guest_root, uint64_t va, uint64_t guest_pte);

  PageTableEditor shadow_editor_;
  // gPA pages are bump-allocated densely from page 1, so the gPA -> hPA
  // backing table is a direct-indexed vector, not a hash map.
  GfnMap backing_;
  // guest root -> shadow root (hPA), in creation order. A plain vector:
  // a guest has a handful of processes, and StorePte scans this on every
  // leaf update — insertion order makes that scan deterministic (an
  // unordered_map here would hand iteration order to the hash function;
  // see the container-order regression test).
  std::vector<std::pair<uint64_t, uint64_t>> shadow_roots_;
  std::vector<uint64_t> guest_free_list_;
  // gPA page 0 is reserved: the first allocation is the init PML4, and
  // pt_root == 0 is the guest kernel's "no address space" sentinel.
  uint64_t guest_ram_next_ = 1;
  bool cold_faults_ = false;
  bool in_batch_ = false;
  int batch_pending_ = 0;

  uint64_t shadow_fills_ = 0;
  uint64_t spt_emulations_ = 0;
};

}  // namespace cki

#endif  // SRC_VIRT_PVM_ENGINE_H_
