#include "src/host/frame_allocator.h"

#include <algorithm>
#include <string>

#include "src/fault/fault_domain.h"

namespace cki {

FrameAllocator::FrameAllocator(PhysMem& mem, uint64_t base, uint64_t pages)
    : mem_(mem), base_(base), total_pages_(pages), bump_(0) {
  if ((base & (kPageSize - 1)) != 0) {
    throw FatalHostError("FrameAllocator: frame range base " + std::to_string(base) +
                         " is not page aligned");
  }
  counts_.reserve(kReservedOwners);
}

FrameAllocator::OwnerNode& FrameAllocator::EnsureNode(uint64_t idx) {
  uint64_t n = idx >> kNodeShift;
  if (n >= nodes_.size()) {
    nodes_.resize(n + 1);
  }
  if (nodes_[n] == nullptr) {
    nodes_[n] = std::make_unique<OwnerNode>();
  }
  return *nodes_[n];
}

FrameAllocator::OwnerCounts& FrameAllocator::Counts(OwnerId owner) {
  if (owner >= counts_.size()) {
    counts_.resize(static_cast<size_t>(owner) + 1);
  }
  return counts_[owner];
}

void FrameAllocator::AddSingle(OwnerId owner, uint64_t idx) {
  OwnerCounts& c = Counts(owner);
  auto n = static_cast<uint32_t>(idx >> kNodeShift);
  c.singles++;
  c.lo_node = std::min(c.lo_node, n);
  c.hi_node = std::max(c.hi_node, n);
}

const std::pair<PhysSegment, OwnerId>* FrameAllocator::SegmentAt(uint64_t pa) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), pa,
      [](uint64_t a, const std::pair<PhysSegment, OwnerId>& s) { return a < s.first.base; });
  if (it == segments_.begin()) {
    return nullptr;
  }
  --it;
  return it->first.Contains(pa) ? &*it : nullptr;
}

uint64_t FrameAllocator::AllocFrame(OwnerId owner) {
  uint64_t pa;
  if (!free_list_.empty()) {
    pa = free_list_.back();
    free_list_.pop_back();
    mem_.ZeroFrame(pa);
  } else {
    if (bump_ >= total_pages_) {
      // Exhaustion is attributed to the requesting owner: the fault bus
      // kills that container (or throws FatalHostError for the host).
      if (bus_ != nullptr) {
        bus_->Raise(FaultReport{FaultKind::kFrameExhausted, owner, total_pages_});
      }
      throw FatalHostError("FrameAllocator: out of physical memory (" +
                           std::to_string(total_pages_) + " frames)");
    }
    pa = base_ + bump_ * kPageSize;
    bump_++;
    mem_.InstallFrame(pa);
  }
  uint64_t idx = FrameIndex(pa);
  EnsureNode(idx).owner[idx & (kNodeFrames - 1)] = owner;
  AddSingle(owner, idx);
  allocated_++;
  return pa;
}

FreeResult FrameAllocator::FreeFrame(uint64_t pa) {
  uint64_t idx = FrameIndex(pa);
  OwnerNode* node = NodeFor(idx);
  uint64_t off = idx & (kNodeFrames - 1);
  if (node == nullptr || node->owner[off] == kNoOwner) {
    double_frees_++;
    if (bus_ != nullptr) {
      bus_->Note(FaultReport{FaultKind::kDoubleFree, kHostOwner, pa});
    }
    return FreeResult::kDoubleFree;
  }
  if (shares_.count(idx) != 0) {
    // Sharers still map this frame: transfer primacy instead of freeing
    // (the safety net behind ReleaseShare-aware engine free paths).
    TransferPrimary(idx);
    return FreeResult::kOk;
  }
  counts_[node->owner[off]].singles--;
  node->owner[off] = kNoOwner;
  free_list_.push_back(pa);
  allocated_--;
  return FreeResult::kOk;
}

PhysSegment FrameAllocator::AllocSegment(uint64_t pages, OwnerId owner) {
  // Contiguity comes from the bump region; freed singleton frames are not
  // coalesced (mirrors the fragmentation limitation the paper notes).
  if (bump_ + pages > total_pages_) {
    if (bus_ != nullptr) {
      bus_->Raise(FaultReport{FaultKind::kSegmentExhausted, owner, pages});
    }
    throw FatalHostError("FrameAllocator: cannot carve contiguous segment of " +
                         std::to_string(pages) + " pages");
  }
  PhysSegment seg{.base = base_ + bump_ * kPageSize, .pages = pages};
  mem_.InstallRange(seg.base, pages);
  segments_.emplace_back(seg, owner);
  Counts(owner).seg_pages += pages;
  bump_ += pages;
  allocated_ += pages;
  return seg;
}

uint64_t FrameAllocator::ReclaimOwner(OwnerId owner) {
  if (owner >= counts_.size()) {
    return 0;  // never held a frame, a segment or a share
  }
  const OwnerCounts held = counts_[owner];

  // Drop the dying holder's *shares* first, so primacy transfers below
  // never hand a frame to the owner being reclaimed. Each record is
  // handled on its own, so map iteration order cannot leak into results.
  uint64_t shares_left = held.shared;
  for (auto it = shares_.begin(); shares_left > 0 && it != shares_.end();) {
    auto& holders = it->second;
    auto dead = std::remove(holders.begin(), holders.end(), owner);
    shares_left -= static_cast<uint64_t>(holders.end() - dead);
    holders.erase(dead, holders.end());
    it = holders.empty() ? shares_.erase(it) : std::next(it);
  }

  // Singleton frames: the direct-indexed table iterates in ascending frame
  // order by construction, so the free list (and thus every later
  // allocation) is deterministic with no sort step. Only the owner's node
  // extent is visited, and the sweep stops at its last singleton. Frames
  // a sibling clone still shares are transferred, not freed.
  uint64_t freed = 0;
  uint64_t singles_left = held.singles;
  for (uint64_t n = held.lo_node; singles_left > 0 && n <= held.hi_node; ++n) {
    OwnerNode* node = nodes_[n].get();
    if (node == nullptr) {
      continue;
    }
    for (uint64_t off = 0; singles_left > 0 && off < kNodeFrames; ++off) {
      if (node->owner[off] != owner) {
        continue;
      }
      singles_left--;
      uint64_t idx = (n << kNodeShift) | off;
      if (shares_.count(idx) != 0) {
        TransferPrimary(idx);
        continue;
      }
      node->owner[off] = kNoOwner;
      free_list_.push_back(base_ + idx * kPageSize);
      freed++;
    }
  }

  // Delegated segments: return every page, drop the ownership record.
  // Pages carved out by an earlier transfer belong to another container
  // (or the free list) now; pages with live sharers transfer instead of
  // freeing.
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second != owner) {
      ++it;
      continue;
    }
    const PhysSegment& seg = it->first;
    for (uint64_t i = 0; i < seg.pages; ++i) {
      uint64_t idx = FrameIndex(seg.base + i * kPageSize);
      OwnerNode* node = NodeFor(idx);
      uint64_t off = idx & (kNodeFrames - 1);
      if (node != nullptr && node->carved[off]) {
        node->carved[off] = false;  // segment record goes away; owner rules now
        continue;
      }
      if (auto sh = shares_.find(idx); sh != shares_.end()) {
        OwnerId next = sh->second.front();
        EnsureNode(idx).owner[off] = next;
        AddSingle(next, idx);
        counts_[next].shared--;
        sh->second.erase(sh->second.begin());
        if (sh->second.empty()) {
          shares_.erase(sh);
        }
        continue;
      }
      free_list_.push_back(base_ + idx * kPageSize);
      freed++;
    }
    it = segments_.erase(it);
  }
  counts_[owner] = OwnerCounts{};
  allocated_ -= freed;
  return freed;
}

OwnerId FrameAllocator::OwnerOf(uint64_t pa) const {
  uint64_t idx = FrameIndex(pa);
  if (const OwnerNode* node = NodeFor(idx); node != nullptr) {
    uint64_t off = idx & (kNodeFrames - 1);
    if (node->owner[off] != kNoOwner) {
      return node->owner[off];
    }
    if (node->carved[off]) {
      return kHostOwner;  // carved out of its segment, then freed
    }
  }
  const auto* seg = SegmentAt(pa);
  return seg != nullptr ? seg->second : kHostOwner;
}

void FrameAllocator::ShareFrame(uint64_t pa, OwnerId sharer) {
  shares_[FrameIndex(pa)].push_back(sharer);
  Counts(sharer).shared++;
}

void FrameAllocator::TransferPrimary(uint64_t idx) {
  auto sh = shares_.find(idx);
  if (sh == shares_.end() || sh->second.empty()) {
    throw FatalHostError("FrameAllocator: primacy transfer of unshared frame " +
                         std::to_string(idx));
  }
  OwnerId next = sh->second.front();
  sh->second.erase(sh->second.begin());
  if (sh->second.empty()) {
    shares_.erase(sh);
  }
  OwnerNode& node = EnsureNode(idx);
  uint64_t off = idx & (kNodeFrames - 1);
  if (node.owner[off] != kNoOwner) {
    counts_[node.owner[off]].singles--;
  } else if (const auto* seg = SegmentAt(base_ + idx * kPageSize);
             seg != nullptr && !node.carved[off]) {
    // The primary held this page through a delegated segment: carve it out
    // so the segment's sweep and count skip it from now on.
    node.carved[off] = true;
    counts_[seg->second].seg_pages--;
  }
  node.owner[off] = next;
  AddSingle(next, idx);
  counts_[next].shared--;
}

bool FrameAllocator::ReleaseShare(uint64_t pa, OwnerId holder) {
  uint64_t idx = FrameIndex(pa);
  auto sh = shares_.find(idx);
  bool is_primary = OwnerOf(pa) == holder;
  if (sh != shares_.end() && !is_primary) {
    auto& holders = sh->second;
    auto it = std::find(holders.begin(), holders.end(), holder);
    if (it != holders.end()) {
      holders.erase(it);
      if (holders.empty()) {
        shares_.erase(sh);
      }
      counts_[holder].shared--;
      return true;
    }
    return false;  // shared, but not by this holder: normal-free path
  }
  if (!is_primary || sh == shares_.end()) {
    return false;
  }
  TransferPrimary(idx);
  return true;
}

bool FrameAllocator::IsShared(uint64_t pa) const {
  return shares_.count(FrameIndex(pa)) != 0;
}

bool FrameAllocator::OwnedOrSharedBy(uint64_t pa, OwnerId holder) const {
  if (OwnerOf(pa) == holder) {
    return true;
  }
  auto sh = shares_.find(FrameIndex(pa));
  if (sh == shares_.end()) {
    return false;
  }
  return std::find(sh->second.begin(), sh->second.end(), holder) != sh->second.end();
}

}  // namespace cki
