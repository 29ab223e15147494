// Memory management of the model guest kernel: address-space construction,
// demand paging, copy-on-write, and teardown. All page-table stores go
// through the EnginePort seam.
#include <cassert>

#include "src/guest/guest_kernel.h"
#include "src/hw/pte.h"
#include "src/obs/trace_scope.h"

namespace cki {

uint64_t GuestKernel::PteFlagsFor(uint64_t prot, bool cow_readonly) const {
  uint64_t flags = kPteP | kPteU;
  if ((prot & kProtWrite) != 0 && !cow_readonly) {
    flags |= kPteW;
  }
  if ((prot & kProtExec) == 0) {
    flags |= kPteNx;
  }
  return flags;
}

uint64_t GuestKernel::NewAddressSpace() {
  uint64_t root = port_.AllocPtp(kPtLevels);
  MapKernelImage(root);
  return root;
}

void GuestKernel::MapKernelImage(uint64_t root) {
  // The kernel image and its static data are shared by all processes of the
  // container: same physical pages mapped supervisor-only in every root.
  // Kernel text must stay read-only + executable (the CKI monitor enforces
  // that no *new* kernel-executable mappings appear after boot).
  static constexpr int kKernelImagePages = 8;
  if (kernel_image_pas_.empty()) {
    kernel_image_pas_.reserve(kKernelImagePages);
    for (int i = 0; i < kKernelImagePages; ++i) {
      uint64_t pa = port_.AllocDataPage();
      if (pa == kNoPage) {
        ctx_.RecordEvent(PathEvent::kGuestOom);
        break;  // map what we got; the image is shared, later roots reuse it
      }
      kernel_image_pas_.push_back(pa);
    }
  }
  for (size_t i = 0; i < kernel_image_pas_.size(); ++i) {
    uint64_t va = kKernelBase + static_cast<uint64_t>(i) * kPageSize;
    bool text = i < kKernelImagePages / 2;
    uint64_t flags = kPteP | (text ? 0 : (kPteW | kPteNx));
    editor_.MapPage(root, va, kernel_image_pas_[i], flags, /*pkey=*/0,
                    PageSize::k4K);
  }
}

void GuestKernel::MapUserPage(Process& proc, uint64_t va, uint64_t pa, uint64_t prot,
                              bool cow_readonly) {
  editor_.MapPage(proc.pt_root, va, pa, PteFlagsFor(prot, cow_readonly), /*pkey=*/0,
                  PageSize::k4K);
}

void GuestKernel::RefPage(uint64_t pa) { page_refs_[pa]++; }

void GuestKernel::UnrefPage(uint64_t pa) {
  auto it = page_refs_.find(pa);
  int refs = (it == page_refs_.end()) ? 1 : it->second;
  if (refs <= 1) {
    if (it != page_refs_.end()) {
      page_refs_.erase(it);
    }
    port_.FreeDataPage(pa);
  } else {
    it->second = refs - 1;
  }
}

bool GuestKernel::HandlePageFault(uint64_t va, bool write) {
  page_faults_++;
  Process& proc = current();
  Vma* vma = proc.vmas.Find(va);
  if (vma == nullptr) {
    return false;  // SIGSEGV
  }
  if (write && (vma->prot & kProtWrite) == 0) {
    return false;  // protection violation against the VMA itself
  }
  uint64_t page_va = va & ~(kPageSize - 1);
  WalkResult walk = editor_.Walk(proc.pt_root, page_va);
  if (!walk.fault && write && !PteWritable(walk.leaf_pte) && vma->cow) {
    return HandleCowFault(proc, *vma, page_va);
  }
  if (!walk.fault && write && !PteWritable(walk.leaf_pte) && !vma->cow &&
      vma->kind == VmaKind::kFile && IsBlkfsIno(vma->file_ino) && blkfs_ != nullptr) {
    // Clean shared blkfs mapping hit by a store: dirty-tracking refault
    // (shared maps start read-only so writeback can re-protect them).
    return HandleBlkfsDirtyFault(proc, *vma, page_va);
  }
  if (!walk.fault) {
    // Spurious fault (e.g. stale TLB after another vCPU mapped it): done.
    return true;
  }
  return FaultInPage(proc, *vma, page_va, write);
}

uint64_t GuestKernel::FilePageFor(int ino, uint64_t block) {
  auto key = std::make_pair(ino, block);
  auto it = file_pages_.find(key);
  if (it != file_pages_.end()) {
    return it->second;
  }
  if (IsBlkfsIno(ino)) {
    // Read-through: blkfs fills the page from the layer store and pins it
    // here via PinFilePage (so the entry exists when this returns).
    return blkfs_ != nullptr ? blkfs_->PageForMap(ino - kBlkfsInoBase, block) : kNoPage;
  }
  uint64_t pa = port_.AllocDataPage();
  if (pa == kNoPage) {
    return kNoPage;  // page-cache miss under OOM; caller fails the fault
  }
  file_pages_[key] = pa;
  RefPage(pa);  // the cache's own pin
  return pa;
}

void GuestKernel::PinFilePage(int ino, uint64_t block, uint64_t pa) {
  auto key = std::make_pair(ino, block);
  assert(file_pages_.find(key) == file_pages_.end() && "page already cached");
  file_pages_[key] = pa;
  RefPage(pa);
}

void GuestKernel::UnpinFilePage(int ino, uint64_t block) {
  auto it = file_pages_.find(std::make_pair(ino, block));
  if (it == file_pages_.end()) {
    return;
  }
  uint64_t pa = it->second;
  file_pages_.erase(it);
  UnrefPage(pa);  // frees the frame when no mapping still holds it
}

int GuestKernel::PageRefs(uint64_t pa) const {
  auto it = page_refs_.find(pa);
  return it == page_refs_.end() ? 0 : it->second;
}

void GuestKernel::ReplaceFilePage(int ino, uint64_t block, uint64_t old_pa,
                                  uint64_t new_pa) {
  auto it = file_pages_.find(std::make_pair(ino, block));
  assert(it != file_pages_.end() && it->second == old_pa && "stale replace");
  it->second = new_pa;
  // Rmap walk: repoint every process mapping of (ino, block). Ascending
  // pid plus VMA start order keeps the shootdown sequence deterministic.
  int moved = 0;
  procs_.ForEach([&](Process& proc) {
    if (proc.pt_root == 0) {
      return;
    }
    for (auto& [start, vma] : proc.vmas.mutable_areas()) {
      (void)start;
      if (vma.kind != VmaKind::kFile || vma.file_ino != ino) {
        continue;
      }
      uint64_t byte_off = block << kPageShift;
      if (byte_off < vma.file_offset) {
        continue;
      }
      uint64_t va = vma.start + (byte_off - vma.file_offset);
      if (va >= vma.end) {
        continue;
      }
      WalkResult walk = editor_.Walk(proc.pt_root, va);
      if (walk.fault || PteAddr(walk.leaf_pte) != old_pa) {
        continue;  // not mapped, or already privatized by a CoW break
      }
      // Preserve writability: a mapping that had already taken its dirty
      // fault stays writable on the new frame.
      bool was_writable = PteWritable(walk.leaf_pte);
      uint64_t flags = PteFlagsFor(vma.prot, /*cow_readonly=*/!was_writable);
      editor_.MapPage(proc.pt_root, va, new_pa, flags, /*pkey=*/0, PageSize::k4K);
      port_.CowBreakShootdown(va);
      moved++;
    }
  });
  // Move the cache pin plus the mapping refs, then release the old frame
  // (the engine drops a cross-container share instead of freeing if one
  // exists).
  page_refs_[new_pa] = moved + 1;
  page_refs_.erase(old_pa);
  port_.FreeDataPage(old_pa);
}

void GuestKernel::WriteProtectFilePage(int ino, uint64_t block, uint64_t pa) {
  procs_.ForEach([&](Process& proc) {
    if (proc.pt_root == 0) {
      return;
    }
    for (auto& [start, vma] : proc.vmas.mutable_areas()) {
      (void)start;
      if (vma.kind != VmaKind::kFile || vma.file_ino != ino) {
        continue;
      }
      uint64_t byte_off = block << kPageShift;
      if (byte_off < vma.file_offset) {
        continue;
      }
      uint64_t va = vma.start + (byte_off - vma.file_offset);
      if (va >= vma.end) {
        continue;
      }
      WalkResult walk = editor_.Walk(proc.pt_root, va);
      if (walk.fault || PteAddr(walk.leaf_pte) != pa || !PteWritable(walk.leaf_pte)) {
        continue;
      }
      editor_.ProtectPage(proc.pt_root, va, PteFlagsFor(vma.prot, /*cow_readonly=*/true),
                          /*pkey=*/0);
      port_.InvalidatePage(va);
    }
  });
}

bool GuestKernel::FaultInPage(Process& proc, Vma& vma, uint64_t va, bool write) {
  (void)write;
  TraceScope obs_scope(ctx_, Phase::kMmFaultIn);
  // Demand fill: VMA lookup, page allocation, zeroing/fill, and PTE
  // construction. The calibrated handler-core cost covers all of that
  // (Fig 10a: 840 ns of the 1,000 ns native fault).
  ctx_.ChargeWork(ctx_.cost().pgfault_handler_core);
  if (vma.kind == VmaKind::kFile && vma.file_ino >= 0) {
    // File-backed: map the shared page-cache page. Private (CoW) mappings
    // start read-only; the existing CoW path copies on the first write.
    // Shared blkfs mappings also start read-only when faulted by a load,
    // so stores refault into the dirty-tracking path; a write fault dirties
    // (and CoW-breaks) the cache page right here.
    uint64_t block = (va - vma.start + vma.file_offset) >> kPageShift;
    bool blk = IsBlkfsIno(vma.file_ino) && blkfs_ != nullptr;
    bool dirty_now = blk && write && !vma.cow && (vma.prot & kProtWrite) != 0;
    uint64_t pa = dirty_now
                      ? blkfs_->DirtyMappedPage(vma.file_ino - kBlkfsInoBase, block)
                      : FilePageFor(vma.file_ino, block);
    if (pa == kNoPage) {
      ctx_.RecordEvent(PathEvent::kGuestOom);
      return false;
    }
    RefPage(pa);
    bool cow_readonly = vma.cow || (blk && !dirty_now);
    MapUserPage(proc, va, pa, vma.prot, cow_readonly);
    return true;
  }
  uint64_t pa = port_.AllocDataPage();
  if (pa == kNoPage) {
    ctx_.RecordEvent(PathEvent::kGuestOom);
    return false;
  }
  MapUserPage(proc, va, pa, vma.prot, /*cow_readonly=*/false);
  return true;
}

bool GuestKernel::HandleCowFault(Process& proc, Vma& vma, uint64_t va) {
  ctx_.ChargeWork(ctx_.cost().pgfault_handler_core);
  WalkResult walk = editor_.Walk(proc.pt_root, va);
  if (walk.fault) {
    return false;
  }
  uint64_t shared_pa = PteAddr(walk.leaf_pte);
  // A frame can be shared intra-kernel (page_refs_, after fork) or across
  // containers (host-level refcount, after a CoW clone) — the engine knows
  // about the latter, the kernel only about the former.
  bool external = port_.FrameShared(shared_pa);
  auto it = page_refs_.find(shared_pa);
  int refs = (it == page_refs_.end()) ? 1 : it->second;
  if (refs > 1 || external) {
    // Copy the page and remap writable.
    uint64_t new_pa = port_.AllocDataPage();
    if (new_pa == kNoPage) {
      ctx_.RecordEvent(PathEvent::kGuestOom);
      return false;
    }
    ctx_.ChargeWork(ctx_.cost().copy_per_4k);
    if (refs > 1) {
      it->second = refs - 1;
    } else {
      // Last local mapping of an externally shared frame: drop our share
      // (the engine's FreeDataPage guard keeps siblings' frames alive).
      if (it != page_refs_.end()) {
        page_refs_.erase(it);
      }
      port_.FreeDataPage(shared_pa);
    }
    MapUserPage(proc, va, new_pa, vma.prot, /*cow_readonly=*/false);
  } else {
    // Sole owner: just restore write permission.
    if (it != page_refs_.end()) {
      page_refs_.erase(it);
    }
    editor_.ProtectPage(proc.pt_root, va, PteFlagsFor(vma.prot, false), /*pkey=*/0);
  }
  if (external) {
    port_.CowBreakShootdown(va);  // siblings may cache the old mapping
  } else {
    port_.InvalidatePage(va);
  }
  return true;
}

bool GuestKernel::HandleBlkfsDirtyFault(Process& proc, Vma& vma, uint64_t va) {
  ctx_.ChargeWork(ctx_.cost().pgfault_handler_core);
  uint64_t block = (va - vma.start + vma.file_offset) >> kPageShift;
  // Blkfs dirties the cache page; if the frame was shared across
  // containers it allocates a private copy and the ReplaceFilePage rmap
  // walk has already remapped this PTE (writable, see was_writable there).
  uint64_t pa = blkfs_->DirtyMappedPage(vma.file_ino - kBlkfsInoBase, block);
  if (pa == kNoPage) {
    ctx_.RecordEvent(PathEvent::kGuestOom);
    return false;
  }
  WalkResult walk = editor_.Walk(proc.pt_root, va);
  if (walk.fault) {
    return false;
  }
  if (!PteWritable(walk.leaf_pte)) {
    editor_.ProtectPage(proc.pt_root, va, PteFlagsFor(vma.prot, /*cow_readonly=*/false),
                        /*pkey=*/0);
    port_.InvalidatePage(va);
  }
  return true;
}

void GuestKernel::UnmapRange(Process& proc, uint64_t start, uint64_t end) {
  port_.BeginPteBatch();
  for (uint64_t va = start; va < end; va += kPageSize) {
    WalkResult walk = editor_.Walk(proc.pt_root, va);
    if (walk.fault) {
      continue;
    }
    uint64_t pa = PteAddr(walk.leaf_pte);
    editor_.UnmapPage(proc.pt_root, va);
    port_.InvalidatePage(va);
    UnrefPage(pa);
  }
  port_.EndPteBatch();
}

int GuestKernel::ClonePagesCow(Process& parent, Process& child) {
  TraceScope obs_scope(ctx_, Phase::kMmCloneCow);
  // Collect the parent's user-half leaves first (editing while iterating
  // the radix tree would invalidate the traversal).
  struct LeafInfo {
    uint64_t va;
    uint64_t pte;
  };
  std::vector<LeafInfo> leaves;
  editor_.ForEachLeaf(parent.pt_root, [&](uint64_t va, uint64_t pte, uint64_t, int level) {
    if (va < kKernelBase && level == 1) {
      leaves.push_back({va, pte});
    }
  });
  port_.BeginPteBatch();
  for (const LeafInfo& leaf : leaves) {
    uint64_t pa = PteAddr(leaf.pte);
    bool writable = PteWritable(leaf.pte);
    if (writable) {
      // Demote the parent to read-only so its next write copies.
      editor_.ProtectPage(parent.pt_root, leaf.va,
                          (leaf.pte & ~(kPteW | kPteAddrMask | kPtePkeyMask)) | kPteP, 0);
      port_.InvalidatePage(leaf.va);
    }
    uint64_t child_flags = (leaf.pte & ~(kPteW | kPteAddrMask | kPtePkeyMask)) | kPteP;
    editor_.MapPage(child.pt_root, leaf.va, pa, child_flags, /*pkey=*/0, PageSize::k4K);
    // Both mappings now share the frame.
    auto it = page_refs_.find(pa);
    if (it == page_refs_.end()) {
      page_refs_[pa] = 2;
    } else {
      it->second++;
    }
  }
  port_.EndPteBatch();
  // Mark every writable VMA copy-on-write in both processes.
  for (VmaList* list : {&child.vmas, &parent.vmas}) {
    for (auto& [start, vma] : list->mutable_areas()) {
      (void)start;
      if ((vma.prot & kProtWrite) != 0) {
        vma.cow = true;
      }
    }
  }
  return static_cast<int>(leaves.size());
}

void GuestKernel::TeardownAddressSpace(Process& proc) {
  TraceScope obs_scope(ctx_, Phase::kMmTeardown);
  // Free user data pages, then the page-table pages themselves
  // (post-order walk over the radix tree).
  struct LeafInfo {
    uint64_t va;
    uint64_t pte;
  };
  std::vector<LeafInfo> leaves;
  editor_.ForEachLeaf(proc.pt_root, [&](uint64_t va, uint64_t pte, uint64_t, int level) {
    if (va < kKernelBase && level == 1) {
      leaves.push_back({va, pte});
    }
  });
  port_.BeginPteBatch();
  for (const LeafInfo& leaf : leaves) {
    editor_.UnmapPage(proc.pt_root, leaf.va);
    port_.InvalidatePage(leaf.va);
    UnrefPage(PteAddr(leaf.pte));
  }
  FreeTableTree(proc.pt_root, kPtLevels);
  port_.EndPteBatch();
  proc.pt_root = 0;
}

void GuestKernel::FreeTableTree(uint64_t table_pa, int level) {
  // Post-order: clear each entry (unlinking the child) before releasing
  // the child table, so the CKI monitor's reference counts stay exact.
  for (int i = 0; i < kPtEntries; ++i) {
    uint64_t slot = table_pa + static_cast<uint64_t>(i) * 8;
    uint64_t entry = port_.ReadPte(slot);
    if (!PtePresent(entry)) {
      continue;
    }
    if (level > 1 && !PteHuge(entry)) {
      uint64_t child = PteAddr(entry);
      port_.StorePte(slot, 0, level, 0);
      FreeTableTree(child, level - 1);
    } else {
      port_.StorePte(slot, 0, level, 0);
    }
  }
  port_.FreePtp(table_pa, level);
}

}  // namespace cki
