#include "src/virt/pvm_engine.h"

#include "src/obs/trace_scope.h"
#include "src/snap/snap_stream.h"

namespace cki {

// A fault can hit the guest table and then a stale shadow entry on the
// retry; bound the touch loop like HVM's two-stage walk.
PvmEngine::PvmEngine(Machine& machine)
    : ContainerEngine(machine, /*touch_attempts=*/6),
      shadow_editor_(machine.mem(),
                     [&machine](int /*level*/) { return machine.frames().AllocFrame(kHostOwner); },
                     [&machine](uint64_t pte_pa, uint64_t value, int, uint64_t) {
                       machine.mem().WriteU64(pte_pa, value);
                       return true;
                     }) {
  AllocPcids(256);
}

uint64_t PvmEngine::GuestPhysAlloc() {
  if (!guest_free_list_.empty()) {
    uint64_t gpa = guest_free_list_.back();
    guest_free_list_.pop_back();
    return gpa;
  }
  return (guest_ram_next_++) * kPageSize;
}

uint64_t PvmEngine::Backing(uint64_t gpa, bool create) {
  uint64_t gfn = gpa >> kPageShift;
  if (uint64_t hpa = backing_.Get(gfn); hpa != 0) {
    return hpa | (gpa & (kPageSize - 1));
  }
  if (!create) {
    // The guest referenced a gPA the host never assigned it: a protection
    // violation that kills this container, not the machine.
    machine_.faults().Raise(
        FaultReport{FaultKind::kProtectionViolation, id_, gpa});
  }
  if (cold_faults_) {
    // Fresh backing: the host resolves the gPA through the hypervisor
    // process's VMA and allocates memory — the expensive part of Table 2's
    // cold faults (two extra host round trips plus lookup work).
    ChargePvmExit();
    ChargePvmExit();
    ctx_.ChargeWork(ctx_.cost().pvm_cold_backing_work);
  }
  uint64_t hpa = machine_.frames().AllocFrame(id_);
  backing_.Set(gfn, hpa);
  return hpa | (gpa & (kPageSize - 1));
}

void PvmEngine::ChargePvmExit() {
  const CostModel& c = ctx_.cost();
  ctx_.Charge(c.mode_switch, PathEvent::kModeSwitch);
  ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  ctx_.ChargeWork(c.pvm_exit_extra);
  ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  ctx_.Charge(c.mode_switch, PathEvent::kModeSwitch);
  if (nested()) {
    ctx_.ChargeWork(c.pvm_nested_delta);
  }
  ctx_.RecordEvent(PathEvent::kVmExit);
}

void PvmEngine::ChargeSyscallRedirect() {
  // One leg of syscall redirection: host -> guest kernel (or back): one
  // extra mode switch plus one mitigated page-table switch.
  const CostModel& c = ctx_.cost();
  ctx_.Charge(c.mode_switch, PathEvent::kModeSwitch);
  ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
}

uint64_t PvmEngine::ShadowRoot(uint64_t guest_root) {
  for (const auto& [root, shadow] : shadow_roots_) {
    if (root == guest_root) {
      return shadow;
    }
  }
  uint64_t shadow = machine_.frames().AllocFrame(kHostOwner);
  shadow_roots_.emplace_back(guest_root, shadow);
  return shadow;
}

void PvmEngine::SyncShadowLeaf(uint64_t guest_root, uint64_t va, uint64_t guest_pte) {
  uint64_t shadow_root = 0;
  for (const auto& [root, shadow] : shadow_roots_) {
    if (root == guest_root) {
      shadow_root = shadow;
      break;
    }
  }
  if (shadow_root == 0) {
    return;  // never activated: the shadow will be built lazily on faults
  }
  if (!PtePresent(guest_pte)) {
    shadow_editor_.UnmapPage(shadow_root, va);
    // The guest kernel follows each unmap with invlpg (paravirt contract),
    // which the engine applies to the hardware TLB via InvalidatePage.
    return;
  }
  uint64_t hpa = Backing(PteAddr(guest_pte), /*create=*/true) & kPteAddrMask;
  uint64_t flags = guest_pte & ~(kPteAddrMask | kPtePkeyMask);
  shadow_editor_.MapPage(shadow_root, va, hpa, flags, /*pkey=*/0, PageSize::k4K);
  // Hidden fill: this rewrite of a live shadow leaf has no architectural
  // shootdown (the guest never sees it), so the CPU's software walk cache
  // must be told explicitly (DESIGN.md §14).
  machine_.cpu().InvalidateWalkCache();
  shadow_fills_++;
}

SyscallResult PvmEngine::DoUserSyscall(const SyscallRequest& req) {
  // App -> host kernel -> (mode + page-table switch) -> user-mode guest
  // kernel -> handler -> (switch back) -> host -> app. Fig 10b: 336 ns.
  SyscallScope obs_scope(ctx_, id_, req.no);
  Cpu& cpu = machine_.cpu();
  ctx_.Charge(ctx_.cost().syscall_entry, PathEvent::kSyscallEntry);
  cpu.SyscallEntry();
  ChargeSyscallRedirect();  // host -> guest kernel address space
  ctx_.ChargeWork(ctx_.cost().syscall_handler_min);
  SyscallResult result = kernel_->HandleSyscall(req);
  ChargeSyscallRedirect();  // guest kernel -> host
  ctx_.Charge(ctx_.cost().sysret_exit, PathEvent::kSyscallExit);
  cpu.Sysret(/*requested_if=*/true);
  return result;
}

TouchStep PvmEngine::OnTouchFault(const Fault& f, uint64_t va, bool write) {
  Cpu& cpu = machine_.cpu();
  const CostModel& c = ctx_.cost();
  if (f.type != FaultType::kPageNotPresent && f.type != FaultType::kPageProtection) {
    return TouchStep::kSegv;
  }
  // Every fault first traps to the host kernel, which walks the guest
  // page table to classify it (true guest fault vs stale shadow entry).
  TraceScope fault_scope(ctx_, Phase::kFault);
  ctx_.Charge(c.fault_delivery, PathEvent::kPageFault);
  cpu.set_cpl(Cpl::kKernel);
  uint64_t guest_root = kernel_->current().pt_root;
  WalkResult guest_walk = kernel_->editor().Walk(guest_root, va);
  bool stale_shadow = !guest_walk.fault && (!f.was_write || PteWritable(guest_walk.leaf_pte));
  if (stale_shadow) {
    // The guest mapping exists; only the shadow entry is missing.
    TraceScope fill_scope(ctx_, Phase::kSptFill);
    ctx_.Charge(c.spt_hidden_fill, PathEvent::kShadowPtUpdate);
    SyncShadowLeaf(guest_root, va & ~(kPageSize - 1), guest_walk.leaf_pte);
    cpu.set_cpl(Cpl::kUser);
    return TouchStep::kRetry;
  }
  // Redirect into the user-mode guest kernel (exception injection).
  ChargePvmExit();
  ctx_.ChargeWork(c.pvm_exception_inject);
  ctx_.ChargeWork(c.pvm_guest_handler_extra);
  bool resolved = kernel_->HandlePageFault(va, write);
  // Return to the faulting application via the host kernel.
  ChargePvmExit();
  cpu.set_cpl(Cpl::kUser);
  return resolved ? TouchStep::kRetry : TouchStep::kSegv;
}

void PvmEngine::OnKill() {
  // Drop the gPA->hPA and shadow maps before the owner sweep reclaims the
  // backing frames (the host-owned shadow tables themselves stay with the
  // host allocator; see DESIGN.md section 8).
  backing_.Clear();
  shadow_roots_.clear();
  guest_free_list_.clear();
  in_batch_ = false;
  batch_pending_ = 0;
}

uint64_t PvmEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  (void)op;
  (void)a0;
  (void)a1;
  TraceScope obs_scope(ctx_, Phase::kHypercall);
  ctx_.RecordEvent(PathEvent::kHypercall);
  ChargePvmExit();
  return 0;
}

SimNanos PvmEngine::KickCost() const {
  const CostModel& c = ctx_.cost();
  SimNanos exit_cost = 2 * c.mode_switch + 2 * c.Cr3SwitchMitigated() + c.pvm_exit_extra +
                       (nested() ? c.pvm_nested_delta : 0);
  return exit_cost;
}

SimNanos PvmEngine::DeviceInterruptCost() const {
  const CostModel& c = ctx_.cost();
  // The host owns hardware interrupts natively; injecting into the
  // user-mode guest costs one redirection leg each way plus the injection.
  return 2 * (c.mode_switch + c.Cr3SwitchMitigated()) + c.virq_inject;
}

SimNanos PvmEngine::VirtioEmulationExtra() const {
  // PVM keeps the MMIO-based virtio frontend: ISR status read, used-ring
  // notification toggles and the avail-ring doorbell are emulated MMIO
  // traps (CKI replaced all of these with one hypercall, section 5).
  const CostModel& c = ctx_.cost();
  SimNanos exit_cost = 2 * c.mode_switch + 2 * c.Cr3SwitchMitigated() + c.pvm_exit_extra +
                       (nested() ? c.pvm_nested_delta : 0);
  return 7 * (exit_cost + c.virtio_kick_mmio);
}

uint64_t PvmEngine::ReadPte(uint64_t pte_pa) {
  return machine_.mem().ReadU64(Backing(pte_pa, /*create=*/false));
}

bool PvmEngine::StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) {
  TraceScope obs_scope(ctx_, Phase::kSptEmulate);
  const CostModel& c = ctx_.cost();
  if (in_batch_) {
    ctx_.Charge(c.spt_emulation_batched, PathEvent::kShadowPtUpdate);
    if (++batch_pending_ >= 32) {
      ChargePvmExit();
      batch_pending_ = 0;
    }
  } else {
    // Para-virtual PTE update: exit to host + shadow emulation (walk,
    // decode, SPTE generation). Fig 10a: 466 + 1,828 ns.
    ChargePvmExit();
    ctx_.Charge(c.spt_emulation, PathEvent::kShadowPtUpdate);
  }
  spt_emulations_++;
  machine_.mem().WriteU64(Backing(pte_pa, /*create=*/false), value);
  ctx_.RecordEvent(PathEvent::kPteUpdate);
  // Eagerly mirror leaf updates that belong to a known address space.
  if (level == 1) {
    for (const auto& [guest_root, shadow_root] : shadow_roots_) {
      (void)shadow_root;
      std::optional<uint64_t> slot = kernel_->editor().FindLeafSlot(guest_root, va);
      if (slot.has_value() && *slot == pte_pa) {
        SyncShadowLeaf(guest_root, va & ~(kPageSize - 1), value);
        break;
      }
    }
  }
  return true;
}

void PvmEngine::BeginPteBatch() {
  in_batch_ = true;
  batch_pending_ = 0;
}

void PvmEngine::EndPteBatch() {
  if (batch_pending_ > 0) {
    ChargePvmExit();
  }
  in_batch_ = false;
  batch_pending_ = 0;
}

uint64_t PvmEngine::AllocDataPage() { return GuestPhysAlloc(); }

void PvmEngine::FreeDataPage(uint64_t pa) {
  if (ReleaseSharedDataFrame(pa)) {
    // Shared host frame stays with its remaining holders; unbind our gPA
    // (shadow leaves were already cleared by the preceding unmap).
    backing_.Erase(pa >> kPageShift);
  }
  guest_free_list_.push_back(pa);
}

uint64_t PvmEngine::AllocPtp(int level) {
  (void)level;
  uint64_t gpa = GuestPhysAlloc();
  Backing(gpa, /*create=*/true);
  return gpa;
}

void PvmEngine::FreePtp(uint64_t pa, int level) {
  (void)level;
  guest_free_list_.push_back(pa);
}

void PvmEngine::LoadAddressSpace(uint64_t root_pa, uint16_t asid) {
  // A guest process switch is a hypercall: the host locates the shadow
  // root for the new guest root and loads it.
  ChargePvmExit();
  ctx_.ChargeWork(ctx_.cost().pvm_shadow_root_switch);
  uint64_t shadow_root = ShadowRoot(root_pa);
  ctx_.Charge(ctx_.cost().cr3_write_raw, PathEvent::kCr3Switch);
  machine_.cpu().LoadCr3(
      MakeCr3(shadow_root, static_cast<uint16_t>(pcid_base_ + (asid & 0xFF))));
}

void PvmEngine::SnapCaptureConfig(SnapWriter& w) const { w.PutBool(cold_faults_); }

void PvmEngine::SnapApplyConfig(SnapReader& r) { cold_faults_ = r.GetBool(); }

uint64_t PvmEngine::HostFrameFor(uint64_t pa) const {
  uint64_t hpa = backing_.Get(pa >> kPageShift);
  if (hpa == 0) {
    return kNoPage;  // never-touched gPA: all-zero by construction
  }
  return hpa | (pa & (kPageSize - 1));
}

uint64_t PvmEngine::EnsureHostFrame(uint64_t pa) { return Backing(pa, /*create=*/true); }

uint64_t PvmEngine::AdoptSharedFrame(uint64_t host_pa) {
  machine_.frames().ShareFrame(host_pa, id_);
  uint64_t gpa = GuestPhysAlloc();
  // Shadow leaves resolve gPA -> hPA through backing_, so wiring the map
  // entry is all the adoption the shadow stage needs.
  backing_.Set(gpa >> kPageShift, host_pa);
  return gpa;
}

}  // namespace cki
