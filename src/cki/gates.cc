#include "src/cki/gates.h"

#include "src/hw/pks.h"
#include "src/obs/trace_scope.h"

namespace cki {

bool Gates::SwitchPks(uint32_t value) {
  Cpu& cpu = machine_.cpu();
  Fault f = cpu.Wrpkrs(value);
  if (f) {
    return false;
  }
  // Fig 8a: `cmp \pkrs, %rax; jne abort` — the new PKRS is compared with
  // the gate's constant after the write, so a ROP jump that supplies a
  // different value aborts before any privileged code runs.
  if (cpu.pkrs() != value) {
    aborted_switches_++;
    return false;
  }
  return true;
}

bool Gates::EnterKsm() {
  if (!SwitchPks(kPkrsMonitor)) {
    return false;
  }
  // Stack switch to the per-vCPU secure stack (constant VA, Fig 8c) and
  // handler dispatch.
  SimContext& ctx = machine_.ctx();
  ctx.Charge(ctx.cost().ksm_dispatch, PathEvent::kKsmCall);
  return true;
}

bool Gates::ExitKsm() { return SwitchPks(kPkrsGuest); }

void Gates::HypercallRoundtrip() {
  SimContext& ctx = machine_.ctx();
  const CostModel& c = ctx.cost();
  TraceScope obs_scope(ctx, Phase::kGateHypercall);
  ctx.RecordEvent(PathEvent::kHypercall);
  // Entry: PKS to monitor rights, save guest context into the per-vCPU
  // area, switch to the host page table (with IBRS; PTI is unnecessary for
  // a dedicated host address space but the mitigated cost is charged as
  // the paper's switcher includes side-channel mitigation).
  SwitchPks(kPkrsMonitor);
  ctx.ChargeWork(c.cki_switcher_save_restore);
  ctx.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  ctx.ChargeWork(c.hypercall_dispatch);
  // Return: restore guest CR3 + context + PKS.
  ctx.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  SwitchPks(kPkrsGuest);
}

bool Gates::HardwareInterruptToHost(uint8_t vector) {
  Cpu& cpu = machine_.cpu();
  SimContext& ctx = machine_.ctx();
  InterruptEntry entry = cpu.DeliverInterrupt(vector, /*hardware=*/true);
  if (entry.fault) {
    return false;
  }
  TraceScope obs_scope(ctx, Phase::kGateHwInterrupt);
  ctx.Charge(ctx.cost().hw_interrupt_delivery, PathEvent::kHwInterrupt);
  // The IDT extension has zeroed PKRS; the gate saves the interrupt info
  // to the per-vCPU area and performs the full exit to the host kernel.
  const CostModel& c = ctx.cost();
  ctx.ChargeWork(c.cki_switcher_save_restore);
  ctx.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  // ... host kernel handles the interrupt ...
  ctx.Charge(c.Cr3SwitchMitigated(), PathEvent::kCr3Switch);
  // Extended iret restores the saved PKRS when resuming the guest.
  cpu.IretTrusted(Cpl::kKernel, entry.saved_pkrs);
  return true;
}

bool Gates::AttackRopWrpkrs(uint32_t desired_pkrs) {
  // The attacker jumps at the wrpkrs inside the KSM call gate with a
  // chosen register value. The instruction executes — but the gate's
  // post-write check compares against the gate constant.
  Cpu& cpu = machine_.cpu();
  uint32_t saved = cpu.pkrs();
  Fault f = cpu.Wrpkrs(desired_pkrs);
  if (f) {
    return false;  // wrpkrs itself refused (e.g. user mode)
  }
  if (cpu.pkrs() != kPkrsMonitor || desired_pkrs != kPkrsMonitor) {
    // Mismatch with the gate constant: abort path taken, attack stopped.
    aborted_switches_++;
    machine_.ctx().RecordEvent(PathEvent::kSecurityViolation);
    cpu.Wrpkrs(saved);  // abort handler restores a safe state
    return false;
  }
  // The attacker supplied exactly the gate constant — that is simply the
  // legitimate gate entry, which lands on the fixed KSM dispatcher (no
  // attacker-controlled continuation), not arbitrary code.
  cpu.Wrpkrs(saved);
  return false;
}

bool Gates::AttackForgeInterrupt(uint8_t vector) {
  // Software `int N` (or a direct jump to the gate body): the hardware
  // does NOT zero PKRS. The gate's first action — saving state to the
  // per-vCPU area in KSM memory — then faults under PKRS_GUEST.
  Cpu& cpu = machine_.cpu();
  InterruptEntry entry = cpu.DeliverInterrupt(vector, /*hardware=*/false);
  if (entry.fault) {
    return false;
  }
  if (!entry.pks_switched && cpu.pkrs() != kPkrsMonitor) {
    Fault f = cpu.Access(ksm_.per_vcpu_area_va(), AccessIntent::Write());
    if (f.type == FaultType::kPageKeyViolation) {
      machine_.ctx().RecordEvent(PathEvent::kSecurityViolation);
      cpu.IretTrusted(Cpl::kKernel, std::nullopt);
      return false;  // forged interrupt never reaches the host
    }
  }
  // PKRS was zero (the caller was already trusted) — not a forgery.
  cpu.IretTrusted(Cpl::kKernel, std::nullopt);
  return true;
}

bool Gates::SecureStackAccessible() {
  Fault f = machine_.cpu().Access(ksm_.per_vcpu_area_va(), AccessIntent::Write());
  return !f;
}

}  // namespace cki
