#include "src/cki/cki_engine.h"

#include <string>

#include "src/fault/fault_injector.h"
#include "src/hw/pks.h"
#include "src/obs/trace_scope.h"
#include "src/snap/snap_stream.h"

namespace cki {

CkiEngine::CkiEngine(Machine& machine, CkiAblation ablation, uint64_t segment_pages,
                     int n_vcpus)
    : ContainerEngine(machine),
      ablation_(ablation),
      segment_pages_(segment_pages),
      n_vcpus_(n_vcpus < 1 ? 1 : n_vcpus) {
  AllocPcids(256);
  if (!machine.cpu().extensions().pks_priv_gating) {
    throw FatalHostError(
        "CkiEngine requires a machine with the CKI hardware extensions");
  }
}

std::string_view CkiEngine::name() const {
  switch (ablation_) {
    case CkiAblation::kNone:
      return nested() ? "CKI-NST" : "CKI-BM";
    case CkiAblation::kNoOpt2:
      return "CKI-wo-OPT2";
    case CkiAblation::kNoOpt3:
      return "CKI-wo-OPT3";
  }
  return "CKI";
}

void CkiEngine::Boot() {
  // The host delegates a contiguous host-physical segment that the guest
  // kernel manages directly (no second translation stage).
  segment_ = machine_.frames().AllocSegment(segment_pages_, id_);
  ksm_ = std::make_unique<Ksm>(machine_, id_, n_vcpus_);
  gates_ = std::make_unique<Gates>(machine_, *ksm_);
  machine_.cpu().set_idt(&ksm_->idt());

  // Guest kernel code image: wrpkrs appears only at the registered gates;
  // the binary-rewriting pass proves it (section 4.1).
  guest_code_image_.assign(64 * 1024, 0x90);
  rewriter_.RegisterGateOffset(0x1000);  // KSM call gate
  rewriter_.RegisterGateOffset(0x1100);  // KSM call gate (exit switch)
  rewriter_.RegisterGateOffset(0x2000);  // hypercall gate entry
  rewriter_.RegisterGateOffset(0x2080);  // hypercall gate exit
  for (size_t off : rewriter_.gate_offsets()) {
    EmitWrpkrs(guest_code_image_, off);
  }
  rewriter_.RequireClean(guest_code_image_);

  ContainerEngine::Boot();  // boots the kernel (monitor in boot mode)
  ksm_->monitor().SealKernelText();

  // Hand control to the deprivileged guest: PKRS = PKRS_GUEST.
  machine_.cpu().Wrpkrs(kPkrsGuest);
}

uint64_t CkiEngine::SegmentAlloc() {
  // Chaos mode: simulate premature exhaustion of the delegated segment.
  if (injector_ != nullptr && injector_->InjectSegmentOom()) {
    return kNoPage;
  }
  if (!guest_free_list_.empty()) {
    uint64_t pa = guest_free_list_.back();
    guest_free_list_.pop_back();
    return pa;
  }
  if (segment_next_ >= segment_.pages) {
    return kNoPage;  // the guest kernel turns this into ENOMEM
  }
  return segment_.base + (segment_next_++) * kPageSize;
}

void CkiEngine::ChargeKsmRoundtrip(SimNanos op_work) {
  TraceScope obs_scope(ctx_, Phase::kKsmRoundtrip);
  gates_->EnterKsm();
  ctx_.ChargeWork(op_work);
  gates_->ExitKsm();
}

SyscallResult CkiEngine::DoUserSyscall(const SyscallRequest& req) {
  // Fast path: the guest kernel is reachable from user mode without host
  // intervention — same 90 ns as native (Fig 10b).
  SyscallScope obs_scope(ctx_, id_, req.no);
  Cpu& cpu = machine_.cpu();
  const CostModel& c = ctx_.cost();
  ctx_.Charge(c.syscall_entry, PathEvent::kSyscallEntry);
  cpu.SyscallEntry();
  if (ablation_ == CkiAblation::kNoOpt2) {
    // Without OPT2 the guest kernel lives in a separate page table.
    ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  }
  if (ablation_ == CkiAblation::kNoOpt3) {
    // Without OPT3, entry came through the KSM: PKRS 0 -> PKRS_GUEST.
    gates_->SwitchPksTo(kPkrsGuest);
  }
  ctx_.ChargeWork(c.syscall_handler_min);
  SyscallResult result = kernel_->HandleSyscall(req);
  if (ablation_ == CkiAblation::kNoOpt2) {
    ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  }
  if (ablation_ == CkiAblation::kNoOpt3) {
    // sysret must run in the KSM: PKRS_GUEST -> 0; returning to user mode
    // restores the guest key (no third switch, hardware-assisted).
    gates_->SwitchPksTo(kPkrsMonitor);
  }
  ctx_.Charge(c.sysret_exit, PathEvent::kSyscallExit);
  cpu.Sysret(/*requested_if=*/true);
  if (ablation_ == CkiAblation::kNoOpt3) {
    cpu.SetPkrsDirect(kPkrsGuest);
  }
  return result;
}

TouchStep CkiEngine::OnTouchFault(const Fault& f, uint64_t va, bool write) {
  Cpu& cpu = machine_.cpu();
  const CostModel& c = ctx_.cost();
  if (f.type == FaultType::kPageKeyViolation) {
    // A PKS trap in a deprivileged guest means the guest kernel tried to
    // cross its key boundary: container-fatal, host keeps running.
    machine_.faults().Raise(FaultReport{FaultKind::kPksTrap, id_, va});
  }
  if (f.type != FaultType::kPageNotPresent && f.type != FaultType::kPageProtection) {
    return TouchStep::kSegv;
  }
  // Direct delivery into the guest kernel (PKRS stays PKRS_GUEST; the
  // IDT entry for #PF needs no PKS switch).
  TraceScope fault_scope(ctx_, Phase::kFault);
  ctx_.Charge(c.fault_delivery, PathEvent::kPageFault);
  cpu.set_cpl(Cpl::kKernel);
  if (ablation_ == CkiAblation::kNoOpt2) {
    // Separate guest-kernel page table: exceptions pay the switch too.
    ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  }
  in_fault_ = true;
  ksm_open_ = false;
  bool resolved = kernel_->HandlePageFault(va, write);
  // Exit: the final iret is a KSM operation. When the fault handler
  // already entered the KSM for its PTE update, the iret rides the same
  // gate crossing (extended iret restores PKRS on the way out).
  if (ksm_open_) {
    ctx_.ChargeWork(c.ksm_iret_work + c.iret_native);
    ksm_->IretToUser();
    ksm_open_ = false;
  } else {
    gates_->EnterKsm();
    ctx_.ChargeWork(c.ksm_iret_work + c.iret_native);
    ksm_->IretToUser();  // iret restores PKRS_GUEST; no exit wrpkrs
  }
  in_fault_ = false;
  if (ablation_ == CkiAblation::kNoOpt2) {
    ctx_.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  }
  cpu.set_cpl(Cpl::kUser);
  return resolved ? TouchStep::kRetry : TouchStep::kSegv;
}

void CkiEngine::OnKill() {
  // A kill can arrive mid-operation (PTE batch, fault handler) with the
  // KSM gate still open; reset the gate state so teardown never charges
  // through guest paths.
  in_fault_ = false;
  ksm_open_ = false;
  in_batch_ = false;
  guest_free_list_.clear();
  current_root_ = 0;
  pending_virqs_.clear();
}

uint64_t CkiEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  (void)op;
  (void)a0;
  (void)a1;
  // Hypercalls are issued by the guest kernel (ring 0, PKRS_GUEST); a user
  // process reaches this point only through a syscall into the guest
  // kernel first.
  TraceScope obs_scope(ctx_, Phase::kHypercall);
  Cpu& cpu = machine_.cpu();
  Cpl saved_cpl = cpu.cpl();
  cpu.set_cpl(Cpl::kKernel);
  // Same cost in bare-metal and nested clouds: the guest and host share
  // one VMCS (or none), so no L0 intervention ever occurs (section 7.1).
  gates_->HypercallRoundtrip();
  cpu.set_cpl(saved_cpl);
  return 0;
}

SimNanos CkiEngine::KickCost() const {
  // Virtio kicks are plain hypercalls (MMIO was removed, section 5).
  const CostModel& c = ctx_.cost();
  return 2 * c.pks_switch + 2 * c.Cr3SwitchMitigated() + c.cki_switcher_save_restore +
         c.hypercall_dispatch;
}

SimNanos CkiEngine::DeviceInterruptCost() const {
  const CostModel& c = ctx_.cost();
  // Interrupt gate to host + virtual interrupt on resume.
  return c.hw_interrupt_delivery + c.cki_switcher_save_restore + 2 * c.Cr3SwitchMitigated() +
         c.virq_inject;
}

bool CkiEngine::SelectVcpu(int vcpu) {
  if (vcpu < 0 || vcpu >= n_vcpus_ || current_root_ == 0) {
    return false;
  }
  // The host migrates the vCPU context; resuming loads the per-vCPU copy
  // of the same guest root through the validated KSM path.
  current_vcpu_ = vcpu;
  gates_->EnterKsm();
  ctx_.ChargeWork(ctx_.cost().ksm_pte_validate);
  ctx_.Charge(ctx_.cost().cr3_write_raw, PathEvent::kCr3Switch);
  PtpVerdict v = ksm_->LoadGuestCr3(current_root_, current_pcid_, current_vcpu_);
  gates_->ExitKsm();
  return v == PtpVerdict::kOk;
}

void CkiEngine::GuestSetVirtualIf(bool enabled) {
  // A plain in-memory store — no privileged instruction, no trap.
  ctx_.ChargeWork(2);
  virtual_if_ = enabled;
  if (virtual_if_ && !pending_virqs_.empty()) {
    // The host notices the bit flip on its next injection opportunity and
    // drains the deferred queue.
    std::vector<uint8_t> pending;
    pending.swap(pending_virqs_);
    for (uint8_t vec : pending) {
      InjectVirq(vec);
    }
  }
}

bool CkiEngine::InjectVirq(uint8_t vector) {
  if (!virtual_if_) {
    pending_virqs_.push_back(vector);
    return false;
  }
  ctx_.Charge(ctx_.cost().virq_inject, PathEvent::kVirqInject);
  delivered_virqs_++;
  (void)vector;
  return true;
}

bool CkiEngine::DeliverHardwareInterrupt(uint8_t vector) {
  bool ok = gates_->HardwareInterruptToHost(vector);
  if (ok) {
    ctx_.Charge(ctx_.cost().virq_inject, PathEvent::kVirqInject);
  }
  return ok;
}

bool CkiEngine::StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) {
  TraceScope obs_scope(ctx_, Phase::kKsmStorePte);
  const CostModel& c = ctx_.cost();
  // Chaos mode: flip a physical-address bit in the guest's PTE store. The
  // KSM monitor must catch the forged mapping; its rejection kills the
  // container (the PTP invariant is unrecoverable from the guest's side).
  bool flipped = injector_ != nullptr && injector_->InjectPteFlip();
  if (flipped) {
    value ^= 1ull << 50;
  }
  PtpVerdict verdict;
  if (in_batch_ || (in_fault_ && ksm_open_)) {
    // Already inside the KSM: validate + store only.
    ctx_.ChargeWork(c.ksm_pte_validate + c.pte_write_native);
    verdict = ksm_->UpdatePte(pte_pa, value, level, va);
  } else if (in_fault_) {
    // First update of a fault handler: one-way gate entry; the matching
    // exit is fused with the iret (Fig 10a: 77 ns for both KSM calls).
    gates_->EnterKsm();
    ksm_open_ = true;
    ctx_.ChargeWork(c.ksm_pte_validate + c.pte_write_native);
    verdict = ksm_->UpdatePte(pte_pa, value, level, va);
  } else {
    gates_->EnterKsm();
    ctx_.ChargeWork(c.ksm_pte_validate + c.pte_write_native);
    verdict = ksm_->UpdatePte(pte_pa, value, level, va);
    gates_->ExitKsm();
  }
  if (flipped && verdict != PtpVerdict::kOk) {
    machine_.faults().Raise(
        FaultReport{FaultKind::kPtpVerdictRejected, id_, pte_pa});
  }
  return verdict == PtpVerdict::kOk;
}

void CkiEngine::BeginPteBatch() {
  if (!in_batch_) {
    gates_->EnterKsm();
    in_batch_ = true;
  }
}

void CkiEngine::EndPteBatch() {
  if (in_batch_) {
    gates_->ExitKsm();
    in_batch_ = false;
  }
}

uint64_t CkiEngine::AllocDataPage() {
  uint64_t pa = SegmentAlloc();
  if (pa == kNoPage) {
    // Data-page exhaustion is survivable: the guest kernel fails the
    // allocation with ENOMEM (counted on the fault bus, no kill).
    machine_.faults().Note(
        FaultReport{FaultKind::kSegmentExhausted, id_, segment_.pages});
  }
  return pa;
}

void CkiEngine::FreeDataPage(uint64_t pa) {
  if (ReleaseSharedDataFrame(pa)) {
    // A frame shared with (or adopted from) a clone sibling must never
    // re-enter this container's segment free list: after the release this
    // engine no longer holds it, and the monitor would reject a remap.
    return;
  }
  guest_free_list_.push_back(pa);
}

uint64_t CkiEngine::AllocPtp(int level) {
  uint64_t pa = SegmentAlloc();
  if (pa == kNoPage) {
    // No segment page left for a page-table page: the address space under
    // construction is unrecoverable — kill the container, not the host.
    machine_.faults().Raise(
        FaultReport{FaultKind::kSegmentExhausted, id_, segment_.pages});
  }
  if (in_batch_ || (in_fault_ && ksm_open_)) {
    ctx_.ChargeWork(ctx_.cost().ksm_pte_validate);
    ksm_->DeclarePtp(pa, level);
  } else {
    ChargeKsmRoundtrip(ctx_.cost().ksm_pte_validate);
    ksm_->DeclarePtp(pa, level);
  }
  return pa;
}

void CkiEngine::FreePtp(uint64_t pa, int level) {
  (void)level;
  if (in_batch_) {
    ctx_.ChargeWork(ctx_.cost().ksm_pte_validate);
  } else {
    ChargeKsmRoundtrip(ctx_.cost().ksm_pte_validate);
  }
  if (ksm_->UndeclarePtp(pa) == PtpVerdict::kOk) {
    guest_free_list_.push_back(pa);
  }
}

void CkiEngine::LoadAddressSpace(uint64_t root_pa, uint16_t asid) {
  // KSM call: validate the root is a declared top-level PTP, then load the
  // current vCPU's copy of it.
  const CostModel& c = ctx_.cost();
  current_pcid_ = static_cast<uint16_t>(pcid_base_ + (asid & 0xFF));
  gates_->EnterKsm();
  ctx_.ChargeWork(c.ksm_pte_validate);
  ctx_.Charge(c.cr3_write_raw, PathEvent::kCr3Switch);
  PtpVerdict v = ksm_->LoadGuestCr3(root_pa, current_pcid_, current_vcpu_);
  gates_->ExitKsm();
  current_root_ = root_pa;
  if (v != PtpVerdict::kOk) {
    // The monitor refused the root: the guest tried to load an undeclared
    // or foreign top-level PTP. Kill the container, keep the machine.
    machine_.faults().Raise(FaultReport{FaultKind::kPtpVerdictRejected, id_,
                                        static_cast<uint64_t>(v)});
  }
}

void CkiEngine::SnapCaptureConfig(SnapWriter& w) const {
  w.PutU64(segment_pages_);
  w.PutU32(static_cast<uint32_t>(n_vcpus_));
}

void CkiEngine::SnapApplyConfig(SnapReader& r) {
  // Applied before Boot(): the fresh engine carves a segment of the same
  // size, so restored containers have the template's memory budget.
  segment_pages_ = r.GetU64();
  n_vcpus_ = static_cast<int>(r.GetU32());
  if (segment_pages_ == 0 || n_vcpus_ <= 0) {
    r.MarkCorrupt();
    segment_pages_ = 1;
    n_vcpus_ = 1;
  }
}

void CkiEngine::SnapCaptureState(SnapWriter& w) const {
  w.PutBool(virtual_if_);
  w.PutU32(static_cast<uint32_t>(current_vcpu_));
  w.PutU64(delivered_virqs_);
  w.PutU32(static_cast<uint32_t>(pending_virqs_.size()));
  for (uint8_t vector : pending_virqs_) {
    w.PutU8(vector);
  }
}

void CkiEngine::SnapApplyState(SnapReader& r) {
  virtual_if_ = r.GetBool();
  int vcpu = static_cast<int>(r.GetU32());
  if (vcpu >= 0 && vcpu < n_vcpus_ && vcpu != current_vcpu_) {
    // Through the real migration path so the KSM loads that vCPU's copy
    // of the (already restored) top-level PTP.
    SelectVcpu(vcpu);
  }
  delivered_virqs_ = r.GetU64();
  pending_virqs_.clear();
  uint64_t n = r.GetCount(1);
  for (uint64_t i = 0; i < n; ++i) {
    pending_virqs_.push_back(r.GetU8());
  }
}

}  // namespace cki
