#include "src/runtime/engine.h"

#include <string>

#include "src/fault/fault_injector.h"
#include "src/obs/trace_scope.h"

namespace cki {

ContainerEngine::~ContainerEngine() {
  machine_.faults().UnregisterDomain(id_);
  // Teardown leak check: frames still owned at destruction are reported
  // as a metric, never an abort (the machine reclaims them anyway).
  // Shared (clone) holdings count too — a destroyed clone that never ran
  // its kill sweep would otherwise pin siblings' frames invisibly. Both
  // reads are O(1) per-owner counters, so every teardown can afford it.
  uint64_t leaked =
      machine_.frames().OwnedFrames(id_) + machine_.frames().SharedFrames(id_);
  if (leaked > 0) {
    machine_.faults().NoteLeak(id_, leaked);
  }
}

void ContainerEngine::Boot() {
  machine_.faults().RegisterDomain(id_, std::string(name()),
                                   [this] { KillFromFault(); });
  kernel_ = std::make_unique<GuestKernel>(ctx_, *this);
  kernel_->CreateInitProcess();
}

void ContainerEngine::KillFromFault() {
  if (killed_) {
    return;
  }
  killed_ = true;
  {
    TraceScope kill_scope(ctx_, id_, Phase::kFaultKill);
    OnKill();
    if (kernel_) {
      kernel_->KillAllProcesses();
    }
    ctx_.ChargeWork(ctx_.cost().fault_kill_fixed);
  }
  TraceScope reclaim_scope(ctx_, id_, Phase::kFaultReclaim);
  machine_.cpu().tlb().InvalidatePcidRange(pcid_base_, pcid_count_);
  uint64_t reclaimed = machine_.frames().ReclaimOwner(id_);
  machine_.faults().NoteReclaim(id_, reclaimed);
  ctx_.ChargeWork(ctx_.cost().fault_reclaim_per_frame *
                  static_cast<SimNanos>(reclaimed));
}

SyscallResult ContainerEngine::UserSyscall(const SyscallRequest& req) {
  if (killed_) {
    return SyscallResult{kEKILLED};
  }
  try {
    return DoUserSyscall(req);
  } catch (const ContainerKilled& killed) {
    if (killed.owner() != id_) {
      throw;  // mis-routed kill: a bug, not a guest fault
    }
    return SyscallResult{kEKILLED};
  }
}

TouchResult ContainerEngine::UserTouchSlow(uint64_t va, bool write) {
  if (killed_) {
    return TouchResult::kKilled;
  }
  try {
    if (injector_ != nullptr && injector_->InjectPksViolation()) {
      machine_.faults().Raise(
          FaultReport{FaultKind::kPksTrap, id_, va});
    }
    TraceScope obs_scope(ctx_, id_, Phase::kTouch);
    Cpu& cpu = machine_.cpu();
    cpu.set_cpl(Cpl::kUser);
    AccessIntent intent = write ? AccessIntent::Write() : AccessIntent::Read();
    for (int attempt = 0; attempt < touch_attempts_; ++attempt) {
      Fault f = cpu.Access(va, intent);
      if (!f) {
        return TouchResult::kOk;
      }
      if (OnTouchFault(f, va, write) == TouchStep::kSegv) {
        return TouchResult::kSegv;
      }
    }
    return TouchResult::kSegv;
  } catch (const ContainerKilled& killed) {
    if (killed.owner() != id_) {
      throw;
    }
    return TouchResult::kKilled;
  }
}

TouchStep ContainerEngine::DeliverFaultNatively(const Fault& f, uint64_t va, bool write,
                                                SimNanos handler_extra) {
  Cpu& cpu = machine_.cpu();
  if (f.type != FaultType::kPageNotPresent && f.type != FaultType::kPageProtection) {
    return TouchStep::kSegv;
  }
  TraceScope fault_scope(ctx_, Phase::kFault);
  ctx_.Charge(ctx_.cost().fault_delivery, PathEvent::kPageFault);
  cpu.set_cpl(Cpl::kKernel);
  ctx_.ChargeWork(handler_extra);
  bool resolved = kernel_->HandlePageFault(va, write);
  ctx_.ChargeWork(ctx_.cost().iret_native);
  cpu.set_cpl(Cpl::kUser);
  return resolved ? TouchStep::kRetry : TouchStep::kSegv;
}

uint64_t ContainerEngine::GuestHypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  if (killed_) {
    return 0;
  }
  try {
    return Hypercall(op, a0, a1);
  } catch (const ContainerKilled& killed) {
    if (killed.owner() != id_) {
      throw;
    }
    return 0;
  }
}

uint64_t ContainerEngine::AdoptSharedFrame(uint64_t host_pa) {
  // Identity-mapped designs map the shared host frame directly; the share
  // record is what keeps sibling kills from freeing it underneath us.
  machine_.frames().ShareFrame(host_pa, id_);
  return host_pa;
}

uint64_t ContainerEngine::ReadPte(uint64_t pte_pa) { return machine_.mem().ReadU64(pte_pa); }

bool ContainerEngine::StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) {
  (void)level;
  (void)va;
  ctx_.Charge(ctx_.cost().pte_write_native, PathEvent::kPteUpdate);
  machine_.mem().WriteU64(pte_pa, value);
  return true;
}

uint64_t ContainerEngine::AllocDataPage() { return machine_.frames().AllocFrame(id_); }

void ContainerEngine::FreeDataPage(uint64_t pa) {
  if (ReleaseSharedDataFrame(pa)) {
    return;  // clone-shared frame: the allocator kept it for siblings
  }
  machine_.frames().FreeFrame(pa);
}

uint64_t ContainerEngine::AllocPtp(int level) {
  (void)level;
  return machine_.frames().AllocFrame(id_);
}

void ContainerEngine::FreePtp(uint64_t pa, int level) {
  (void)level;
  machine_.frames().FreeFrame(pa);
}

void ContainerEngine::InvalidatePage(uint64_t va) { machine_.cpu().Invlpg(va); }

bool ContainerEngine::FrameShared(uint64_t pa) const {
  uint64_t hpa = HostFrameFor(pa);
  if (hpa == kNoPage) {
    return false;
  }
  return machine_.frames().IsShared(hpa);
}

void ContainerEngine::CowBreakShootdown(uint64_t va) {
  // Breaking cross-container sharing rewrites a PTE that any PCID of this
  // container may have cached: IPI-priced shootdown over the whole range.
  ctx_.ChargeWork(ctx_.cost().cow_break_ipi);
  machine_.cpu().tlb().InvalidatePagePcidRange(pcid_base_, pcid_count_, va);
}

bool ContainerEngine::ReleaseSharedDataFrame(uint64_t pa) {
  uint64_t hpa = HostFrameFor(pa);
  if (hpa == kNoPage) {
    return false;
  }
  return machine_.frames().ReleaseShare(hpa, id_);
}

uint64_t ContainerEngine::MmapAnon(uint64_t bytes, bool populate) {
  SyscallResult r = UserSyscall(SyscallRequest{.no = Sys::kMmap,
                                               .arg0 = bytes,
                                               .arg1 = kProtRead | kProtWrite,
                                               .arg2 = populate ? 1u : 0u});
  return r.ok() ? static_cast<uint64_t>(r.value) : 0;
}

}  // namespace cki
