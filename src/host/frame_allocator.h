// Host physical-frame allocator.
//
// Besides single 4 KiB frames it supports contiguous multi-page segments:
// CKI delegates contiguous host-physical segments to each secure container
// so the guest kernel can place host-physical addresses into PTEs directly
// (section 4.3). The allocator tracks per-frame ownership so the page-table
// monitor can verify that a guest maps only memory it owns — and so a
// killed container's frames can be reclaimed in one owner sweep.
//
// Copy-on-write clones (src/snap) add *shared* frames: a frame keeps one
// primary owner plus a list of sharer containers (ShareFrame). Releasing
// or reclaiming a sharer only drops its share; releasing/reclaiming the
// primary while sharers remain transfers primacy to the first sharer
// instead of freeing — so killing one clone never frees frames a sibling
// still maps. Invariants in DESIGN.md §10.
#ifndef SRC_HOST_FRAME_ALLOCATOR_H_
#define SRC_HOST_FRAME_ALLOCATOR_H_

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/hw/phys_mem.h"

namespace cki {

class FaultBus;

// Identifies who owns a physical frame. 0 = host kernel.
using OwnerId = uint32_t;
inline constexpr OwnerId kHostOwner = 0;

// Outcome of FreeFrame: a double free is counted and reported to the fault
// bus instead of aborting the machine.
enum class FreeResult : uint8_t { kOk, kDoubleFree };

struct PhysSegment {
  uint64_t base = 0;
  uint64_t pages = 0;

  uint64_t end() const { return base + pages * kPageSize; }
  bool Contains(uint64_t pa) const { return pa >= base && pa < end(); }
};

class FrameAllocator {
 public:
  // Manages physical range [base, base + pages * 4K). A base that is not
  // page aligned throws FatalHostError.
  FrameAllocator(PhysMem& mem, uint64_t base, uint64_t pages);

  // Routes exhaustion and double-free reports through the machine's fault
  // bus (container-attributable faults kill the owner; host faults throw).
  void set_fault_bus(FaultBus* bus) { bus_ = bus; }

  // Allocates one zeroed frame for `owner`. Returns its PA. On exhaustion
  // the fault bus kills `owner` (host owner => FatalHostError).
  uint64_t AllocFrame(OwnerId owner);

  // Releases a frame back to the free list. Freeing a frame that is not
  // allocated is counted (and noted on the fault bus), not fatal.
  FreeResult FreeFrame(uint64_t pa);

  // Allocates a contiguous segment of `pages` zeroed frames for `owner`.
  PhysSegment AllocSegment(uint64_t pages, OwnerId owner);

  // Reclaims every frame and segment owned by `owner` (the kill sweep).
  // Singleton frames return to the free list in ascending PA order so
  // allocation order stays deterministic. Frames with live sharers are
  // transferred to their first sharer instead of freed, and the dying
  // owner's own shares are dropped everywhere. Returns the freed count.
  uint64_t ReclaimOwner(OwnerId owner);

  // Frames (singletons + segment pages) currently owned by `owner` —
  // the teardown leak check. Segment pages carved out by a CoW transfer
  // count toward their new owner, not the segment's. O(1): a counter read.
  uint64_t OwnedFrames(OwnerId owner) const {
    const OwnerCounts* c = CountsOf(owner);
    return c != nullptr ? c->singles + c->seg_pages : 0;
  }

  // Owner of the frame containing `pa`; kHostOwner if never allocated.
  OwnerId OwnerOf(uint64_t pa) const;

  // --- copy-on-write sharing (src/snap clones) --------------------------
  // Registers `sharer` as an additional holder of the (allocated) frame.
  // One share per (frame, clone) — the clone's guest-side refcounts cover
  // multiple mappings inside the clone.
  void ShareFrame(uint64_t pa, OwnerId sharer);

  // Drops `holder`'s interest in a shared frame. Returns true when the
  // call handled the release (a share was dropped, or primacy transferred
  // to a remaining sharer); false means the frame is not shared and the
  // caller should free it through the normal path.
  bool ReleaseShare(uint64_t pa, OwnerId holder);

  // True while at least one sharer (beyond the primary owner) holds `pa`.
  bool IsShared(uint64_t pa) const;

  // True when `holder` is the primary owner of `pa` or one of its sharers
  // (the PTP monitor's mapping check for clones).
  bool OwnedOrSharedBy(uint64_t pa, OwnerId holder) const;

  // Number of frames `holder` holds only as a sharer (leak audit). O(1).
  uint64_t SharedFrames(OwnerId holder) const {
    const OwnerCounts* c = CountsOf(holder);
    return c != nullptr ? c->shared : 0;
  }

  uint64_t allocated_frames() const { return allocated_; }
  uint64_t total_frames() const { return total_pages_; }
  uint64_t double_frees() const { return double_frees_; }

 private:
  // Singleton-frame ownership lives in a direct-indexed two-level table
  // (DESIGN.md §14): frames allocate bump-ordered from the range base, so
  // only the low nodes ever materialize even though the range covers
  // gigabytes. Direct indexing makes owner lookups O(1) pointer math and —
  // more importantly — makes the kill sweep iterate in ascending frame
  // order *by construction*, so free-list order can never depend on
  // hash-map iteration order.
  static constexpr uint64_t kNodeShift = 12;  // frames per node = 4096
  static constexpr uint64_t kNodeFrames = 1ull << kNodeShift;
  // kHostOwner (0) is a real owner; the "no singleton record" sentinel
  // must be distinct.
  static constexpr OwnerId kNoOwner = 0xFFFFFFFFu;
  struct OwnerNode {
    std::array<OwnerId, kNodeFrames> owner;
    // Pages of a live segment whose primacy was transferred away from the
    // segment owner (excluded from the segment's sweep and count). The bit
    // stays set while the carved page sits on the free list or is
    // reallocated; the segment's reclaim clears it.
    std::bitset<kNodeFrames> carved;
    OwnerNode() { owner.fill(kNoOwner); }
  };

  // Per-owner accounting, kept current by every ownership change so the
  // leak check and gauges never scan the frame table.
  struct OwnerCounts {
    uint64_t singles = 0;    // frames whose owner slot names this owner
    uint64_t seg_pages = 0;  // uncarved pages of this owner's live segments
    uint64_t shared = 0;     // share records naming this owner
    // Nodes holding this owner's singletons lie within [lo_node, hi_node]
    // (widened on every gain, reset by ReclaimOwner): bounds the kill sweep.
    uint32_t lo_node = UINT32_MAX;
    uint32_t hi_node = 0;
  };
  // Owner ids are dense (Machine::AllocOwnerId counts up from 1), so the
  // counters live in a vector indexed by id. Reserved up front: growing it
  // mid-run reshuffles the heap and shows up in peak RSS.
  static constexpr size_t kReservedOwners = 64;

  const OwnerCounts* CountsOf(OwnerId owner) const {
    return owner < counts_.size() ? &counts_[owner] : nullptr;
  }
  OwnerCounts& Counts(OwnerId owner);
  // Records that the owner slot of frame `idx` now names `owner`.
  void AddSingle(OwnerId owner, uint64_t idx);

  // Local frame index (0-based within the managed range) for `pa`.
  uint64_t FrameIndex(uint64_t pa) const { return (pa - base_) >> kPageShift; }

  OwnerNode* NodeFor(uint64_t idx) const {
    uint64_t n = idx >> kNodeShift;
    return n < nodes_.size() ? nodes_[n].get() : nullptr;
  }
  OwnerNode& EnsureNode(uint64_t idx);

  // The live segment containing `pa`, or nullptr (binary search: segments
  // are bump-allocated, so `segments_` is sorted by base).
  const std::pair<PhysSegment, OwnerId>* SegmentAt(uint64_t pa) const;

  // Moves primacy of frame `idx` to the first sharer, carving the page
  // out of its segment when the primary was a segment owner. Throws
  // FatalHostError when the frame has no sharer.
  void TransferPrimary(uint64_t idx);

  PhysMem& mem_;
  uint64_t base_;
  uint64_t total_pages_;
  uint64_t bump_;  // next-never-allocated frame index
  std::vector<uint64_t> free_list_;
  std::vector<std::unique_ptr<OwnerNode>> nodes_;  // local idx -> owner
  std::vector<std::pair<PhysSegment, OwnerId>> segments_;  // sorted by base
  // local frame index -> sharers beyond the primary owner (insertion
  // order; the first entry inherits primacy on transfer). Sparse: only
  // CoW-cloned frames appear.
  std::unordered_map<uint64_t, std::vector<OwnerId>> shares_;
  std::vector<OwnerCounts> counts_;  // indexed by OwnerId
  uint64_t allocated_ = 0;
  uint64_t double_frees_ = 0;
  FaultBus* bus_ = nullptr;
};

}  // namespace cki

#endif  // SRC_HOST_FRAME_ALLOCATOR_H_
