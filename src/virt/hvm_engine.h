// HVM: hardware-assisted virtualization (the Kata Containers baseline).
//
// The guest runs in VMX non-root mode with two-stage translation: guest
// page tables map gVA -> gPA, the host's EPT maps gPA -> hPA. Syscalls and
// guest page faults stay inside the guest; EPT violations and hypercalls
// cause VM exits. Under nested deployment every VM exit of the (L2)
// container bounces through the L0 hypervisor, and EPT-violation handling
// requires shadow-EPT emulation by L0 (sections 2.4.1, 7.1).
#ifndef SRC_VIRT_HVM_ENGINE_H_
#define SRC_VIRT_HVM_ENGINE_H_

#include "src/hw/ept.h"
#include "src/runtime/engine.h"
#include "src/runtime/gfn_map.h"

namespace cki {

class HvmEngine : public ContainerEngine {
 public:
  explicit HvmEngine(Machine& machine);

  std::string_view name() const override { return nested() ? "HVM-NST" : "HVM-BM"; }
  RuntimeKind kind() const override { return RuntimeKind::kHvm; }

  void Boot() override;

  // --- snapshot hooks --------------------------------------------------
  void SnapCaptureConfig(SnapWriter& w) const override;
  void SnapApplyConfig(SnapReader& r) override;
  uint64_t HostFrameFor(uint64_t pa) const override;
  uint64_t EnsureHostFrame(uint64_t pa) override;
  uint64_t AdoptSharedFrame(uint64_t host_pa) override;

  // True when the deployment is impossible (nested container requested but
  // the IaaS VM has no nested virtualization). Boot() then does nothing.
  bool deployment_unavailable() const { return deployment_unavailable_; }

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;
  SimNanos VirtioEmulationExtra() const override;

  // Table-2 style "cold" faults: fresh memory whose host backing must also
  // be allocated (one extra management exit per fault).
  void set_cold_faults(bool cold) { cold_faults_ = cold; }
  // Backs EPT mappings with 2 MiB pages (the "2M" configurations).
  void set_ept_huge_pages(bool huge) { ept_huge_pages_ = huge; }

  const Ept& ept() const { return ept_; }

  // --- EnginePort ------------------------------------------------------
  uint64_t ReadPte(uint64_t pte_pa) override;
  bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) override;
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
  // One VM exit round trip, bare-metal or nested as configured.
  void ChargeVmExit();
  // Handles an EPT violation at guest-physical address `gpa`.
  void HandleEptViolation(uint64_t gpa);
  // Host-physical address backing `gpa`; allocates (and EPT-maps) when
  // `create` is set. Absent and !create kills the container.
  uint64_t Backing(uint64_t gpa, bool create);
  uint64_t GuestPhysAlloc();

  // Both gPA arenas are bump-allocated from their region base, so the
  // gPA -> hPA backing tables are direct-indexed vectors (one per
  // region), not hash maps: the EPT-violation path resolves backing with
  // a bounds check and a load.
  static constexpr uint64_t kDataGfnBase = (1ull << 40) >> kPageShift;
  GfnMap& BackingMapFor(uint64_t gfn) {
    return gfn >= kDataGfnBase ? data_backing_ : ram_backing_;
  }
  const GfnMap& BackingMapFor(uint64_t gfn) const {
    return gfn >= kDataGfnBase ? data_backing_ : ram_backing_;
  }

  Ept ept_;
  GfnMap ram_backing_;                  // table/RAM arena (gfn 1+)
  GfnMap data_backing_{kDataGfnBase};   // data arena
  std::vector<uint64_t> guest_free_list_;
  std::vector<uint64_t> data_free_list_;
  // Bump pointer in gPA space (page index). gPA page 0 is never handed
  // out: the first allocation is the init PML4, and pt_root == 0 is the
  // guest kernel's "no address space" sentinel.
  uint64_t guest_ram_next_ = 1;
  // Data pages come from a separate gPA arena so 2 MiB EPT backing never
  // covers (and corrupts) page-table pages.
  uint64_t data_gpa_next_ = kDataGfnBase;
  bool cold_faults_ = false;
  bool ept_huge_pages_ = false;
  bool deployment_unavailable_ = false;
};

}  // namespace cki

#endif  // SRC_VIRT_HVM_ENGINE_H_
