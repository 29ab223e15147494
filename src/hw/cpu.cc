#include "src/hw/cpu.h"

#include "src/obs/trace_scope.h"

namespace cki {

Cpu::Cpu(SimContext& ctx, PhysMem& mem, CkiHwExtensions ext)
    : ctx_(ctx), mem_(mem), ext_(ext) {}

WalkResult Cpu::WalkCurrent(uint64_t va) const {
  uint64_t root = Cr3Root(cr3_);
  if (ept_ == nullptr) {
    return WalkPageTable(mem_, root, va);
  }
  // Two-stage: the guest's tables hold guest-physical addresses; each table
  // page and the final data page must translate through the EPT.
  WalkResult result;
  uint64_t table_gpa = root;
  for (int level = kPtLevels; level >= 1; --level) {
    WalkResult ept_walk = ept_->Translate(table_gpa);
    result.mem_refs += ept_walk.mem_refs;
    if (ept_walk.fault) {
      result.fault = ept_walk.fault;  // EPT violation on a table page
      return result;
    }
    uint64_t slot_hpa = ept_walk.pa + static_cast<uint64_t>(PtIndex(va, level)) * 8;
    result.mem_refs++;
    uint64_t entry = mem_.ReadU64(slot_hpa);
    if (!PtePresent(entry)) {
      result.fault = Fault{.type = FaultType::kPageNotPresent, .va = va};
      return result;
    }
    bool is_leaf = (level == 1) || (level == 2 && PteHuge(entry));
    if (is_leaf) {
      result.leaf_pte = entry;
      result.leaf_pte_pa = slot_hpa;
      result.leaf_level = level;
      uint64_t offset_mask = (level == 2) ? (kHugePageSize - 1) : (kPageSize - 1);
      uint64_t data_gpa = (PteAddr(entry) & ~offset_mask) | (va & offset_mask);
      WalkResult data_walk = ept_->Translate(data_gpa);
      result.mem_refs += data_walk.mem_refs;
      if (data_walk.fault) {
        result.fault = data_walk.fault;  // EPT violation on the data page
        return result;
      }
      result.pa = data_walk.pa;
      return result;
    }
    table_gpa = PteAddr(entry);
  }
  result.fault = Fault{.type = FaultType::kPageNotPresent, .va = va};
  return result;
}

Fault Cpu::CheckLeafPermissions(uint64_t flags, uint32_t pkey, uint64_t va, AccessIntent intent,
                                bool /*from_tlb*/) const {
  bool user_mode = (cpl_ == Cpl::kUser);
  bool page_user = (flags & kPteU) != 0;
  if (user_mode && !page_user) {
    return Fault{.type = FaultType::kPageProtection,
                 .va = va,
                 .was_write = intent.write,
                 .was_user = true,
                 .was_exec = intent.exec};
  }
  if (intent.write && (flags & kPteW) == 0) {
    return Fault{.type = FaultType::kPageProtection,
                 .va = va,
                 .was_write = true,
                 .was_user = user_mode,
                 .was_exec = false};
  }
  if (intent.exec && (flags & kPteNx) != 0) {
    return Fault{.type = FaultType::kPageProtection,
                 .va = va,
                 .was_write = false,
                 .was_user = user_mode,
                 .was_exec = true};
  }
  // Protection keys: PKU governs user pages, PKS governs supervisor pages.
  // Instruction fetches are not subject to protection keys.
  if (!intent.exec && pkey != 0) {
    uint32_t pkr = page_user ? pkru_ : pkrs_;
    if (!PkAllows(pkr, pkey, intent.write)) {
      return Fault{.type = FaultType::kPageKeyViolation,
                   .va = va,
                   .was_write = intent.write,
                   .was_user = user_mode,
                   .was_exec = false};
    }
  }
  return Fault::None();
}

Fault Cpu::Access(uint64_t va, AccessIntent intent) {
  return AccessTranslate(va, intent, nullptr);
}

Fault Cpu::AccessTranslate(uint64_t va, AccessIntent intent, uint64_t* out_pa) {
  uint16_t pcid = Cr3Pcid(cr3_);
  if (const TlbEntry* hit = tlb_.Lookup(pcid, va)) {
    ctx_.RecordEvent(PathEvent::kTlbHit, va);
    Fault f = CheckLeafPermissions(hit->flags, hit->pkey, va, intent, /*from_tlb=*/true);
    if (f) {
      return f;
    }
    if (out_pa != nullptr) {
      uint64_t offset_mask = hit->huge ? (kHugePageSize - 1) : (kPageSize - 1);
      *out_pa = (hit->pfn << (hit->huge ? kHugePageShift : kPageShift)) | (va & offset_mask);
    }
    return Fault::None();
  }

  // TLB miss: walk, charging per-reference cost (two-dimensional when an
  // EPT is active).
  bool two_dim = (ept_ != nullptr);
  TraceScope walk_scope(ctx_, Phase::kMmuPageWalk);
  ctx_.RecordEvent(PathEvent::kTlbMiss, va);
  ctx_.Charge(ctx_.cost().WalkCost(two_dim),
              two_dim ? PathEvent::kPageWalk2D : PathEvent::kPageWalk1D);
  uint64_t page = va >> kPageShift;
  uint64_t ept_gen = two_dim ? ept_->generation() : 0;
  // Slot index mixes cr3 so distinct address spaces with identical VA
  // layouts (sibling containers) spread over the cache instead of
  // thrashing one slot per page.
  size_t slot = static_cast<size_t>(page ^ ((cr3_ * 0x9E3779B97F4A7C15ULL) >> 40)) &
                (kWalkCacheEntries - 1);
  WalkCacheEntry& wce = walk_cache_[slot];
  uint64_t gen_key = tlb_.shootdown_gen() + walk_inval_gen_;
  WalkResult walk;
  if (wce.tag == page + 1 && wce.cr3 == cr3_ && wce.ept == ept_ &&
      wce.tlb_gen == gen_key && wce.ept_gen == ept_gen) {
    walk = wce.walk;
    walk.pa = (walk.pa & ~(kPageSize - 1)) | (va & (kPageSize - 1));
  } else {
    walk = WalkCurrent(va);
    if (!walk.fault) {
      wce.tag = page + 1;
      wce.cr3 = cr3_;
      wce.ept = ept_;
      wce.tlb_gen = gen_key;
      wce.ept_gen = ept_gen;
      wce.walk = walk;
    }
  }
  if (walk.fault) {
    walk.fault.was_write = intent.write;
    walk.fault.was_user = (cpl_ == Cpl::kUser);
    walk.fault.was_exec = intent.exec;
    return walk.fault;
  }
  Fault f = CheckLeafPermissions(walk.leaf_pte, PtePkey(walk.leaf_pte), va, intent,
                                 /*from_tlb=*/false);
  if (f) {
    return f;
  }
  // Set accessed/dirty bits in the leaf entry; the walk cache entry (which
  // the lines above made current for this page) mirrors the write.
  uint64_t updated = walk.leaf_pte | kPteA | (intent.write ? kPteD : 0);
  if (updated != walk.leaf_pte) {
    mem_.WriteU64(walk.leaf_pte_pa, updated);
    wce.walk.leaf_pte = updated;
  }
  tlb_.Insert(pcid, va, walk.pa, walk.leaf_pte & ~kPteAddrMask, PtePkey(walk.leaf_pte),
              walk.leaf_level == 2);
  if (out_pa != nullptr) {
    *out_pa = walk.pa;
  }
  return Fault::None();
}

Fault Cpu::ExecPriv(PrivInstr instr) {
  if (cpl_ == Cpl::kUser) {
    return Fault{.type = FaultType::kGeneralProtection, .was_user = true};
  }
  if (ext_.pks_priv_gating && pkrs_ != 0 && BlockedWhenPkrsNonzero(instr)) {
    ctx_.RecordEvent(PathEvent::kPrivInstrTrap);
    return Fault{.type = FaultType::kPrivInstrBlocked};
  }
  return Fault::None();
}

Fault Cpu::Wrpkrs(uint32_t value) {
  if (!ext_.wrpkrs_instruction) {
    return Fault{.type = FaultType::kInvalidOpcode};
  }
  if (cpl_ == Cpl::kUser) {
    return Fault{.type = FaultType::kGeneralProtection, .was_user = true};
  }
  // wrpkrs itself is never blocked by the gating extension (Table 3): it is
  // the very instruction switch gates are built from.
  pkrs_ = value;
  ctx_.Charge(ctx_.cost().pks_switch, PathEvent::kPksSwitch);
  return Fault::None();
}

Fault Cpu::WrpkrsViaMsr(uint32_t value) {
  Fault f = ExecPriv(PrivInstr::kWrmsr);
  if (f) {
    return f;
  }
  pkrs_ = value;
  ctx_.Charge(ctx_.cost().pks_switch, PathEvent::kPksSwitch);
  return Fault::None();
}

Fault Cpu::Swapgs() {
  Fault f = ExecPriv(PrivInstr::kSwapgs);
  if (f) {
    return f;
  }
  std::swap(gs_base_, kernel_gs_base_);
  return Fault::None();
}

Fault Cpu::Invlpg(uint64_t va) {
  Fault f = ExecPriv(PrivInstr::kInvlpg);
  if (f) {
    return f;
  }
  tlb_.InvalidatePage(Cr3Pcid(cr3_), va);
  return Fault::None();
}

Fault Cpu::Sysret(bool requested_if) {
  Fault f = ExecPriv(PrivInstr::kSysret);
  if (f) {
    return f;
  }
  if (ext_.sysret_if_enforce && pkrs_ != 0) {
    // Extension: a deprivileged kernel cannot return to user mode with
    // interrupts masked (DoS prevention, section 4.1).
    if_ = true;
  } else {
    if_ = requested_if;
  }
  cpl_ = Cpl::kUser;
  return Fault::None();
}

void Cpu::IretTrusted(Cpl return_cpl, std::optional<uint32_t> restore_pkrs) {
  cpl_ = return_cpl;
  if (restore_pkrs.has_value() && ext_.iret_pks_restore) {
    pkrs_ = *restore_pkrs;
  }
  if_ = true;
}

InterruptEntry Cpu::DeliverInterrupt(uint8_t vector, bool hardware) {
  InterruptEntry entry;
  if (idt_ == nullptr || !idt_->gate(vector).present) {
    entry.fault = Fault{.type = FaultType::kTripleFault};
    return entry;
  }
  const IdtGate& gate = idt_->gate(vector);
  // Stack selection: without IST the CPU pushes onto the current stack; a
  // corrupted stack pointer then triple faults. IST forces a known-good
  // stack configured by trusted software.
  if (gate.ist_index == 0) {
    if (cpl_ == Cpl::kKernel && !stack_valid_) {
      entry.fault = Fault{.type = FaultType::kTripleFault};
      return entry;
    }
  } else if (idt_->ist_stack(gate.ist_index) == 0) {
    entry.fault = Fault{.type = FaultType::kTripleFault};
    return entry;
  }
  entry.handler_tag = gate.handler_tag;
  entry.saved_pkrs = pkrs_;
  // CKI extension: hardware-interrupt delivery saves PKRS and zeroes it, so
  // interrupt gates contain no wrpkrs a guest could abuse; software `int`
  // leaves PKRS untouched (anti-forgery, section 4.4).
  if (ext_.idt_pks_switch && gate.pks_switch && hardware) {
    pkrs_ = 0;
    entry.pks_switched = true;
  }
  cpl_ = Cpl::kKernel;
  if_ = false;
  return entry;
}

}  // namespace cki
