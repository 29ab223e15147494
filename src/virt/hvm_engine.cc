#include "src/virt/hvm_engine.h"

#include "src/obs/trace_scope.h"
#include "src/snap/snap_stream.h"

namespace cki {

// A fresh page typically needs both a guest #PF and then an EPT violation
// on the retry; bound the touch loop defensively.
HvmEngine::HvmEngine(Machine& machine)
    : ContainerEngine(machine, /*touch_attempts=*/6),
      ept_(machine.mem(),
           [this](int /*level*/) { return machine_.frames().AllocFrame(kHostOwner); }) {
  AllocPcids(256);
}

void HvmEngine::Boot() {
  if (nested() && !machine_.config().nested_virt_available) {
    // HVM needs VMX/SVM inside the IaaS VM; without it the container
    // simply cannot start (the paper's nested-cloud compatibility gap).
    deployment_unavailable_ = true;
    return;
  }
  machine_.cpu().set_ept(&ept_);
  ContainerEngine::Boot();
}

uint64_t HvmEngine::GuestPhysAlloc() {
  if (!guest_free_list_.empty()) {
    uint64_t gpa = guest_free_list_.back();
    guest_free_list_.pop_back();
    return gpa;
  }
  return (guest_ram_next_++) * kPageSize;
}

uint64_t HvmEngine::Backing(uint64_t gpa, bool create) {
  uint64_t gfn = gpa >> kPageShift;
  if (uint64_t hpa = BackingMapFor(gfn).Get(gfn); hpa != 0) {
    return hpa | (gpa & (kPageSize - 1));
  }
  if (!create) {
    // An EPT reference to a gPA the host never assigned: protection
    // violation, container-fatal only.
    machine_.faults().Raise(
        FaultReport{FaultKind::kProtectionViolation, id_, gpa});
  }
  uint64_t hpa = machine_.frames().AllocFrame(id_);
  BackingMapFor(gfn).Set(gfn, hpa);
  ept_.Map(gfn << kPageShift, hpa, PageSize::k4K);
  return hpa | (gpa & (kPageSize - 1));
}

void HvmEngine::ChargeVmExit() {
  const CostModel& c = ctx_.cost();
  if (nested()) {
    // L2 exit: four L0 world-switch legs plus shadow-VMCS synchronization.
    for (int i = 0; i < 4; ++i) {
      ctx_.Charge(c.l0_world_switch, PathEvent::kL0WorldSwitch);
    }
    ctx_.Charge(c.vmcs_shadow_sync, PathEvent::kNestedVmExit);
  } else {
    ctx_.Charge(c.vmexit_roundtrip_bm, PathEvent::kVmExit);
  }
}

void HvmEngine::HandleEptViolation(uint64_t gpa) {
  TraceScope obs_scope(ctx_, Phase::kEptViolation);
  const CostModel& c = ctx_.cost();
  ctx_.RecordEvent(PathEvent::kEptViolation, gpa);
  if (nested()) {
    // The violation exits to L0, which resumes L1; L1's shadow-EPT update
    // (vmread/vmwrite/INVEPT) traps back to L0 several times (sec 7.1:
    // a nested EPT fault costs ~4 nested exits plus emulation work).
    for (int i = 0; i < c.shadow_ept_fault_exits; ++i) {
      ChargeVmExit();
    }
    ctx_.ChargeWork(c.shadow_ept_emulation);
  } else {
    ChargeVmExit();
    ctx_.ChargeWork(c.ept_violation_work);
  }
  if (cold_faults_) {
    // Fresh memory: the host also allocates backing storage (one more
    // management exit), making Table 2's cold faults heavier than the
    // warmed faults of Fig 10a. The allocation is L1-local, so even under
    // nesting this is a bare-metal-priced exit.
    ctx_.Charge(c.vmexit_roundtrip_bm, PathEvent::kVmExit);
    ctx_.ChargeWork(c.hvm_cold_backing_work);
  }
  if (ept_huge_pages_) {
    // Back the whole 2 MiB region at once: one violation per 512 pages.
    uint64_t gpa_base = gpa & ~(kHugePageSize - 1);
    PhysSegment seg = machine_.frames().AllocSegment(kHugePageSize / kPageSize, id_);
    for (uint64_t i = 0; i < kHugePageSize / kPageSize; ++i) {
      uint64_t gfn = (gpa_base >> kPageShift) + i;
      BackingMapFor(gfn).Set(gfn, seg.base + i * kPageSize);
    }
    ept_.Map(gpa_base, seg.base, PageSize::k2M);
  } else {
    Backing(gpa, /*create=*/true);
  }
}

SyscallResult HvmEngine::DoUserSyscall(const SyscallRequest& req) {
  // Native-speed syscalls inside the guest: no VM exit involved.
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

TouchStep HvmEngine::OnTouchFault(const Fault& f, uint64_t va, bool write) {
  Cpu& cpu = machine_.cpu();
  const CostModel& c = ctx_.cost();
  switch (f.type) {
    case FaultType::kPageNotPresent:
    case FaultType::kPageProtection: {
      // Guest-internal fault: delivered and handled entirely in the L2
      // guest kernel (slightly heavier than native, Fig 10a).
      TraceScope fault_scope(ctx_, Phase::kFault);
      ctx_.Charge(c.fault_delivery, PathEvent::kPageFault);
      cpu.set_cpl(Cpl::kKernel);
      ctx_.ChargeWork(c.hvm_guest_handler_extra);
      if (nested()) {
        ctx_.ChargeWork(c.hvm_nested_guest_handler_extra);
      }
      bool resolved = kernel_->HandlePageFault(va, write);
      ctx_.ChargeWork(c.iret_native);
      cpu.set_cpl(Cpl::kUser);
      return resolved ? TouchStep::kRetry : TouchStep::kSegv;
    }
    case FaultType::kEptViolation:
      HandleEptViolation(f.va);
      return TouchStep::kRetry;
    default:
      return TouchStep::kSegv;
  }
}

void HvmEngine::OnKill() {
  // Drop gPA bookkeeping before the owner sweep reclaims the backing
  // frames (the host-owned EPT table pages stay with the host allocator).
  ram_backing_.Clear();
  data_backing_.Clear();
  guest_free_list_.clear();
  data_free_list_.clear();
}

uint64_t HvmEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  (void)a0;
  (void)a1;
  TraceScope obs_scope(ctx_, Phase::kHypercall);
  ctx_.RecordEvent(PathEvent::kHypercall);
  ChargeVmExit();
  ctx_.ChargeWork(ctx_.cost().hypercall_dispatch);
  (void)op;
  return 0;
}

SimNanos HvmEngine::KickCost() const {
  const CostModel& c = ctx_.cost();
  SimNanos exit_cost = nested() ? c.NestedExitRoundtrip() : c.vmexit_roundtrip_bm;
  return exit_cost + c.virtio_kick_mmio;
}

SimNanos HvmEngine::DeviceInterruptCost() const {
  const CostModel& c = ctx_.cost();
  // Bare metal: hardware assists (APICv-style injection) keep delivery to
  // one exit plus the injection. Nested: the injection and the guest's EOI
  // write are both L0-mediated cycles.
  if (nested()) {
    return 2 * c.NestedExitRoundtrip() + c.virq_inject;
  }
  return c.vmexit_roundtrip_bm + c.virq_inject;
}

SimNanos HvmEngine::VirtioEmulationExtra() const {
  // Bare metal: vhost + EVENT_IDX suppression elide the frontend's MMIO
  // register traffic. Nested: ISR reads, notification toggles and ring
  // index accesses each bounce through L0.
  const CostModel& c = ctx_.cost();
  if (!nested()) {
    return 0;
  }
  return 4 * (c.NestedExitRoundtrip() + c.virtio_kick_mmio);
}

uint64_t HvmEngine::ReadPte(uint64_t pte_pa) {
  return machine_.mem().ReadU64(Backing(pte_pa, /*create=*/false));
}

bool HvmEngine::StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) {
  (void)level;
  (void)va;
  // With EPT the guest manages its own tables: a direct store, no exit.
  ctx_.Charge(ctx_.cost().pte_write_native, PathEvent::kPteUpdate);
  machine_.mem().WriteU64(Backing(pte_pa, /*create=*/false), value);
  return true;
}

uint64_t HvmEngine::AllocDataPage() {
  // Backing is left lazy: the first user access raises an EPT violation
  // ("the newly allocated gPA is not mapped in the EPT", sec 7.1).
  if (!data_free_list_.empty()) {
    uint64_t gpa = data_free_list_.back();
    data_free_list_.pop_back();
    return gpa;
  }
  return (data_gpa_next_++) * kPageSize;
}

void HvmEngine::FreeDataPage(uint64_t pa) {
  if (ReleaseSharedDataFrame(pa)) {
    // The shared host frame stays with its remaining holders; the gPA is
    // ours alone, so unbind it and recycle (backing re-materializes
    // lazily if the gPA is reused).
    data_backing_.Erase(pa >> kPageShift);
    ept_.Unmap(pa & ~(kPageSize - 1));
    data_free_list_.push_back(pa);
    return;
  }
  data_free_list_.push_back(pa);
}

uint64_t HvmEngine::AllocPtp(int level) {
  (void)level;
  uint64_t gpa = GuestPhysAlloc();
  // Page-table pages are written immediately by the guest kernel, so their
  // backing exists by construction (they come from already-touched RAM).
  Backing(gpa, /*create=*/true);
  return gpa;
}

void HvmEngine::FreePtp(uint64_t pa, int level) {
  (void)level;
  guest_free_list_.push_back(pa);
}

void HvmEngine::LoadAddressSpace(uint64_t root_pa, uint16_t asid) {
  // Guest CR3 loads do not exit under EPT.
  ctx_.Charge(ctx_.cost().cr3_write_raw, PathEvent::kCr3Switch);
  machine_.cpu().LoadCr3(MakeCr3(root_pa, static_cast<uint16_t>(pcid_base_ + (asid & 0xFF))));
}

void HvmEngine::SnapCaptureConfig(SnapWriter& w) const {
  w.PutBool(cold_faults_);
  w.PutBool(ept_huge_pages_);
}

void HvmEngine::SnapApplyConfig(SnapReader& r) {
  cold_faults_ = r.GetBool();
  ept_huge_pages_ = r.GetBool();
}

uint64_t HvmEngine::HostFrameFor(uint64_t pa) const {
  uint64_t gfn = pa >> kPageShift;
  uint64_t hpa = BackingMapFor(gfn).Get(gfn);
  if (hpa == 0) {
    return kNoPage;  // lazily backed gPA: all-zero by construction
  }
  return hpa | (pa & (kPageSize - 1));
}

uint64_t HvmEngine::EnsureHostFrame(uint64_t pa) { return Backing(pa, /*create=*/true); }

uint64_t HvmEngine::AdoptSharedFrame(uint64_t host_pa) {
  machine_.frames().ShareFrame(host_pa, id_);
  uint64_t gpa = AllocDataPage();
  data_backing_.Set(gpa >> kPageShift, host_pa);
  // Map eagerly: Backing() short-circuits on an existing entry, so a later
  // EPT violation would spin instead of installing this mapping.
  ept_.Map(gpa & ~(kPageSize - 1), host_pa, PageSize::k4K);
  return gpa;
}

}  // namespace cki
