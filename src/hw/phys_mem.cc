#include "src/hw/phys_mem.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/fault/fault_domain.h"

namespace cki {

const PhysMem::Node* PhysMem::OverflowNodeFor(uint64_t node_idx) const {
  if (overflow_.empty()) {
    return nullptr;
  }
  auto it = overflow_.find(node_idx);
  return it != overflow_.end() ? it->second.get() : nullptr;
}

PhysMem::Node& PhysMem::EnsureNode(uint64_t frame_idx) {
  uint64_t n = frame_idx >> kNodeShift;
  if (n < kMaxDirectNodes) {
    if (n >= nodes_.size()) {
      nodes_.resize(static_cast<size_t>(n) + 1);
    }
    if (!nodes_[n]) {
      nodes_[n] = std::make_unique<Node>();
    }
    return *nodes_[n];
  }
  auto& slot = overflow_[n];
  if (!slot) {
    slot = std::make_unique<Node>();
  }
  return *slot;
}

void PhysMem::InstallFrame(uint64_t pa) {
  uint64_t idx = FrameIndex(pa);
  EnsureNode(idx).installed.set(idx & kNodeMask);
}

void PhysMem::InstallRange(uint64_t base, uint64_t pages) {
  if ((base & (kPageSize - 1)) != 0) {
    throw FatalHostError("PhysMem: InstallRange base " + std::to_string(base) +
                         " is not page aligned");
  }
  if (pages == 0) {
    return;
  }
  // Independent of the range's size: membership is resolved lazily by
  // InstalledSlow and memoized into node bitmaps on first write. The new
  // range absorbs every range it overlaps or abuts, which keeps
  // installed_ranges_ sorted and disjoint with gaps between neighbours.
  uint64_t first = FrameIndex(base);
  uint64_t last = first + pages - 1;
  auto lo = std::lower_bound(
      installed_ranges_.begin(), installed_ranges_.end(), first,
      [](const std::pair<uint64_t, uint64_t>& r, uint64_t f) { return r.second + 1 < f; });
  auto hi = lo;
  while (hi != installed_ranges_.end() && hi->first <= last + 1) {
    first = std::min(first, hi->first);
    last = std::max(last, hi->second);
    ++hi;
  }
  if (lo == hi) {
    installed_ranges_.insert(lo, {first, last});
  } else {
    *lo = {first, last};
    installed_ranges_.erase(lo + 1, hi);
  }
}

bool PhysMem::InstalledSlow(uint64_t frame_idx) const {
  auto it = std::upper_bound(
      installed_ranges_.begin(), installed_ranges_.end(), frame_idx,
      [](uint64_t f, const std::pair<uint64_t, uint64_t>& r) { return f < r.first; });
  return it != installed_ranges_.begin() && frame_idx <= std::prev(it)->second;
}

bool PhysMem::HasFrame(uint64_t pa) const {
  uint64_t idx = FrameIndex(pa);
  const Node* node = NodeFor(idx);
  if (node != nullptr && node->installed.test(idx & kNodeMask)) {
    return true;
  }
  return InstalledSlow(idx);
}

void PhysMem::CheckInstalled(uint64_t pa) const {
  if (!HasFrame(pa)) {
    // An access outside installed DRAM is a simulator-usage bug, not a
    // guest fault: surface it as the host-fatal exception so the harness
    // can report it instead of dying with the process.
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(pa));
    throw FatalHostError(std::string("PhysMem: access to uninstalled frame at pa=") + buf);
  }
}

PhysMem::Page& PhysMem::MaterializePage(uint64_t pa) {
  CheckInstalled(pa);
  uint64_t idx = FrameIndex(pa);
  Node& node = EnsureNode(idx);
  node.installed.set(idx & kNodeMask);  // memoize range membership
  Page*& slot = node.pages[idx & kNodeMask];
  if (slot == nullptr) {
    if (arena_free_ == 0) {
      arena_.emplace_back(new Page[kArenaChunkPages]());  // value-init: zeroed
      arena_free_ = kArenaChunkPages;
    }
    slot = &arena_.back()[kArenaChunkPages - arena_free_];
    arena_free_--;
    materialized_++;
  }
  return *slot;
}

uint64_t PhysMem::ReadSlow(uint64_t pa) const {
  CheckInstalled(pa);
  return 0;  // installed but never written: reads as zero
}

void PhysMem::WriteSlow(uint64_t pa, uint64_t value) {
  MaterializePage(pa)[(pa & (kPageSize - 1)) >> 3] = value;
}

const uint64_t* PhysMem::FrameWords(uint64_t pa) const {
  uint64_t idx = FrameIndex(pa);
  const Node* node = NodeFor(idx);
  if (node != nullptr) {
    const Page* page = node->pages[idx & kNodeMask];
    if (page != nullptr) {
      return page->data();  // materializing a page also marks it installed
    }
  }
  CheckInstalled(pa);
  return nullptr;
}

void PhysMem::ZeroFrame(uint64_t pa) {
  uint64_t idx = FrameIndex(pa);
  Node* node = NodeFor(idx);
  if (node != nullptr) {
    Page* page = node->pages[idx & kNodeMask];
    if (page != nullptr) {
      page->fill(0);
    }
  }
}

}  // namespace cki
