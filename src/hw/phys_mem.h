// Sparse simulated physical memory.
//
// Page tables (guest and EPT) are stored as real 64-bit entries in this
// memory, so translation in the simulator works by actually walking tables,
// not by consulting a side map. Frames must be installed before use, but
// backing storage materializes lazily on the first write — installing a
// multi-gigabyte segment is O(1).
//
// Layout (DESIGN.md §14): a two-level direct-indexed page directory
// replaces the old hash maps. Frame index >> kNodeShift selects a Node
// (one pointer load from a flat vector); the low bits select the Page
// pointer and installed bit inside the node. ReadU64/WriteU64 are inline
// and touch no hash or allocator on the hot path. Page backing comes from
// a bump arena (pages are never individually freed — frames are recycled
// by zeroing, so the arena only grows to the high-water mark).
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <array>
#include <bitset>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace cki {

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kHugePageSize = 2 * 1024 * 1024;  // 2 MiB
inline constexpr uint64_t kHugePageShift = 21;

class PhysMem {
 public:
  // Installs (and zeroes) the 4 KiB frame containing `pa`. Idempotent.
  void InstallFrame(uint64_t pa);

  // Installs `pages` consecutive frames starting at page-aligned `base`
  // (an unaligned base throws FatalHostError). Backing materializes on
  // first write, so the call's cost does not depend on the range's size.
  void InstallRange(uint64_t base, uint64_t pages);

  // True if the frame containing `pa` has been installed.
  bool HasFrame(uint64_t pa) const;

  // 64-bit loads/stores at physical addresses. The frame must be installed;
  // accessing an uninstalled frame indicates a simulator bug and aborts.
  uint64_t ReadU64(uint64_t pa) const {
    assert((pa & 7) == 0 && "unaligned 64-bit physical read");
    uint64_t idx = pa >> kPageShift;
    const Node* node = NodeFor(idx);
    if (node != nullptr) {
      const Page* page = node->pages[idx & kNodeMask];
      if (page != nullptr) {
        return (*page)[(pa & (kPageSize - 1)) >> 3];
      }
    }
    return ReadSlow(pa);  // installed but never written: reads as zero
  }

  void WriteU64(uint64_t pa, uint64_t value) {
    assert((pa & 7) == 0 && "unaligned 64-bit physical write");
    uint64_t idx = pa >> kPageShift;
    Node* node = NodeFor(idx);
    if (node != nullptr) {
      Page* page = node->pages[idx & kNodeMask];
      if (page != nullptr) {
        (*page)[(pa & (kPageSize - 1)) >> 3] = value;
        return;
      }
    }
    WriteSlow(pa, value);
  }

  // The 512 words of the installed frame containing `pa`, or nullptr for
  // an installed frame never written (it reads as all zero). Installation
  // is checked once for the whole frame; an uninstalled frame throws
  // FatalHostError. Pages never move, so the pointer stays valid.
  const uint64_t* FrameWords(uint64_t pa) const;

  // Zeroes an installed frame (clear_page()).
  void ZeroFrame(uint64_t pa);

  size_t materialized_frames() const { return materialized_; }

 private:
  using Page = std::array<uint64_t, kPageSize / sizeof(uint64_t)>;

  // A node covers kNodeFrames consecutive frames (16 MiB of simulated
  // RAM): page pointers plus the installed bitmap for its slice.
  static constexpr uint64_t kNodeShift = 12;
  static constexpr uint64_t kNodeFrames = 1ull << kNodeShift;  // 4096
  static constexpr uint64_t kNodeMask = kNodeFrames - 1;
  // Direct-indexed directory up to this many nodes (64 TiB of PA space);
  // anything beyond (pathological test addresses) lands in overflow_.
  static constexpr uint64_t kMaxDirectNodes = 1ull << 22;

  struct Node {
    std::array<Page*, kNodeFrames> pages{};  // null until materialized
    std::bitset<kNodeFrames> installed;      // per-frame install bits
  };

  static uint64_t FrameIndex(uint64_t pa) { return pa >> kPageShift; }

  const Node* NodeFor(uint64_t frame_idx) const {
    uint64_t n = frame_idx >> kNodeShift;
    if (n < nodes_.size()) {
      return nodes_[n].get();
    }
    return OverflowNodeFor(n);
  }
  Node* NodeFor(uint64_t frame_idx) {
    return const_cast<Node*>(static_cast<const PhysMem*>(this)->NodeFor(frame_idx));
  }
  const Node* OverflowNodeFor(uint64_t node_idx) const;
  Node& EnsureNode(uint64_t frame_idx);

  bool InstalledSlow(uint64_t frame_idx) const;  // checks lazy ranges too
  uint64_t ReadSlow(uint64_t pa) const;
  void WriteSlow(uint64_t pa, uint64_t value);
  void CheckInstalled(uint64_t pa) const;
  Page& MaterializePage(uint64_t pa);

  std::vector<std::unique_ptr<Node>> nodes_;  // direct index: frame_idx >> kNodeShift
  std::unordered_map<uint64_t, std::unique_ptr<Node>> overflow_;
  // [first, last] frame index; sorted, disjoint and never abutting
  // (InstallRange merges neighbours), so InstalledSlow binary-searches.
  std::vector<std::pair<uint64_t, uint64_t>> installed_ranges_;

  // Bump arena for page backing. Chunks are value-initialized (zeroed);
  // pages are handed out once and recycled only via ZeroFrame.
  static constexpr size_t kArenaChunkPages = 512;  // 2 MiB per chunk
  std::vector<std::unique_ptr<Page[]>> arena_;
  size_t arena_free_ = 0;  // unused pages at the tail of arena_.back()
  size_t materialized_ = 0;
};

}  // namespace cki

#endif  // SRC_HW_PHYS_MEM_H_
