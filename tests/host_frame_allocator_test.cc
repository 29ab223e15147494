// Tests for the host frame allocator: ownership tracking, free-list reuse,
// contiguous segment carving (the CKI delegation primitive), and a
// model-based check of the per-owner frame counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/fault/fault_domain.h"
#include "src/host/frame_allocator.h"
#include "src/sim/rng.h"

namespace cki {
namespace {

class FrameAllocatorTest : public ::testing::Test {
 protected:
  FrameAllocatorTest() : alloc_(mem_, 0x1000'0000, 1024) {}

  PhysMem mem_;
  FrameAllocator alloc_;
};

TEST_F(FrameAllocatorTest, AllocatesDistinctInstalledFrames) {
  uint64_t a = alloc_.AllocFrame(1);
  uint64_t b = alloc_.AllocFrame(1);
  EXPECT_NE(a, b);
  EXPECT_TRUE(mem_.HasFrame(a));
  EXPECT_TRUE(mem_.HasFrame(b));
  EXPECT_EQ(alloc_.allocated_frames(), 2u);
}

TEST_F(FrameAllocatorTest, TracksOwnership) {
  uint64_t a = alloc_.AllocFrame(7);
  EXPECT_EQ(alloc_.OwnerOf(a), 7u);
  EXPECT_EQ(alloc_.OwnerOf(a + 0x123), 7u);  // same frame
  alloc_.FreeFrame(a);
  EXPECT_EQ(alloc_.OwnerOf(a), kHostOwner);
}

TEST_F(FrameAllocatorTest, FreeListRecyclesAndZeroes) {
  uint64_t a = alloc_.AllocFrame(1);
  mem_.WriteU64(a, 0xFFFF);
  alloc_.FreeFrame(a);
  uint64_t b = alloc_.AllocFrame(2);
  EXPECT_EQ(b, a);
  EXPECT_EQ(mem_.ReadU64(b), 0u) << "recycled frames must be zeroed";
}

TEST_F(FrameAllocatorTest, SegmentsAreContiguousAndOwned) {
  PhysSegment seg = alloc_.AllocSegment(64, 9);
  EXPECT_EQ(seg.pages, 64u);
  EXPECT_EQ(seg.end() - seg.base, 64 * kPageSize);
  for (uint64_t pa = seg.base; pa < seg.end(); pa += kPageSize) {
    EXPECT_EQ(alloc_.OwnerOf(pa), 9u);
    EXPECT_TRUE(mem_.HasFrame(pa));
  }
  // The next single frame does not alias the segment.
  uint64_t next = alloc_.AllocFrame(1);
  EXPECT_FALSE(seg.Contains(next));
}

TEST_F(FrameAllocatorTest, SegmentContains) {
  PhysSegment seg{.base = 0x2000, .pages = 2};
  EXPECT_TRUE(seg.Contains(0x2000));
  EXPECT_TRUE(seg.Contains(0x3FFF));
  EXPECT_FALSE(seg.Contains(0x4000));
  EXPECT_FALSE(seg.Contains(0x1FFF));
}

// --- copy-on-write sharing (src/snap clones) -------------------------------

TEST_F(FrameAllocatorTest, ShareAndReleaseBySharer) {
  uint64_t a = alloc_.AllocFrame(1);
  EXPECT_FALSE(alloc_.IsShared(a));
  alloc_.ShareFrame(a, 2);
  EXPECT_TRUE(alloc_.IsShared(a));
  EXPECT_TRUE(alloc_.OwnedOrSharedBy(a, 1));
  EXPECT_TRUE(alloc_.OwnedOrSharedBy(a, 2));
  EXPECT_FALSE(alloc_.OwnedOrSharedBy(a, 3));
  EXPECT_EQ(alloc_.SharedFrames(2), 1u);

  // The sharer drops its share: frame stays allocated, owned by 1.
  EXPECT_TRUE(alloc_.ReleaseShare(a, 2));
  EXPECT_FALSE(alloc_.IsShared(a));
  EXPECT_EQ(alloc_.OwnerOf(a), 1u);
  EXPECT_EQ(alloc_.SharedFrames(2), 0u);
  // An unshared frame is the caller's to free normally.
  EXPECT_FALSE(alloc_.ReleaseShare(a, 1));
}

TEST_F(FrameAllocatorTest, ReleaseByPrimaryTransfersPrimacy) {
  uint64_t a = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  alloc_.ShareFrame(a, 3);
  EXPECT_TRUE(alloc_.ReleaseShare(a, 1));
  EXPECT_EQ(alloc_.OwnerOf(a), 2u) << "first sharer inherits primacy";
  EXPECT_TRUE(alloc_.IsShared(a)) << "sharer 3 still holds a share";
  EXPECT_FALSE(alloc_.OwnedOrSharedBy(a, 1));
}

TEST_F(FrameAllocatorTest, FreeFrameOnSharedTransfersInsteadOfFreeing) {
  uint64_t a = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  uint64_t before = alloc_.allocated_frames();
  EXPECT_EQ(alloc_.FreeFrame(a), FreeResult::kOk);
  EXPECT_EQ(alloc_.allocated_frames(), before) << "shared frame must not hit the free list";
  EXPECT_EQ(alloc_.OwnerOf(a), 2u);
}

TEST_F(FrameAllocatorTest, ReclaimOwnerSpareSharedSingletons) {
  // Owner 1 holds two frames; frame `a` is shared with clone 2.
  uint64_t a = alloc_.AllocFrame(1);
  uint64_t b = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  uint64_t freed = alloc_.ReclaimOwner(1);
  EXPECT_EQ(freed, 1u) << "only the unshared frame is freed";
  EXPECT_EQ(alloc_.OwnerOf(a), 2u) << "shared frame transfers to the clone";
  EXPECT_EQ(alloc_.OwnerOf(b), kHostOwner);
  EXPECT_FALSE(alloc_.IsShared(a));
}

TEST_F(FrameAllocatorTest, ReclaimDyingSharerDropsItsShares) {
  uint64_t a = alloc_.AllocFrame(1);
  alloc_.ShareFrame(a, 2);
  // Clone 2 dies: its share evaporates; owner 1 keeps the frame.
  uint64_t freed = alloc_.ReclaimOwner(2);
  EXPECT_EQ(freed, 0u);
  EXPECT_EQ(alloc_.OwnerOf(a), 1u);
  EXPECT_FALSE(alloc_.IsShared(a));
  EXPECT_EQ(alloc_.SharedFrames(2), 0u);
}

TEST_F(FrameAllocatorTest, ReclaimSegmentOwnerCarvesSharedPages) {
  PhysSegment seg = alloc_.AllocSegment(8, 9);
  uint64_t shared_pa = seg.base + 3 * kPageSize;
  alloc_.ShareFrame(shared_pa, 2);
  uint64_t freed = alloc_.ReclaimOwner(9);
  EXPECT_EQ(freed, 7u) << "segment sweep skips the page a clone still shares";
  EXPECT_EQ(alloc_.OwnerOf(shared_pa), 2u) << "carved page transfers to the sharer";
  EXPECT_EQ(alloc_.OwnedFrames(9), 0u);
  EXPECT_EQ(alloc_.OwnedFrames(2), 1u);
  // The clone's later death frees the carved page for good.
  EXPECT_EQ(alloc_.ReclaimOwner(2), 1u);
  EXPECT_EQ(alloc_.OwnerOf(shared_pa), kHostOwner);
}

TEST_F(FrameAllocatorTest, OwnedFramesExcludesCarvedSegmentPages) {
  PhysSegment seg = alloc_.AllocSegment(4, 9);
  EXPECT_EQ(alloc_.OwnedFrames(9), 4u);
  alloc_.ShareFrame(seg.base, 2);
  // Primary releases one page to the sharer; the carved page moves owners.
  EXPECT_TRUE(alloc_.ReleaseShare(seg.base, 9));
  EXPECT_EQ(alloc_.OwnerOf(seg.base), 2u);
  EXPECT_EQ(alloc_.OwnedFrames(9), 3u);
  EXPECT_EQ(alloc_.OwnedFrames(2), 1u);
}

TEST_F(FrameAllocatorTest, OwnerOfAtSegmentEdgesAfterNonFifoReclaim) {
  PhysSegment a = alloc_.AllocSegment(4, 1);
  uint64_t single = alloc_.AllocFrame(2);
  PhysSegment b = alloc_.AllocSegment(3, 3);
  PhysSegment c = alloc_.AllocSegment(5, 4);
  ASSERT_EQ(single, a.end());
  ASSERT_EQ(b.end(), c.base);

  EXPECT_EQ(alloc_.ReclaimOwner(3), 3u);  // the middle segment goes first
  EXPECT_EQ(alloc_.OwnerOf(a.base), 1u);
  EXPECT_EQ(alloc_.OwnerOf(a.end() - kPageSize), 1u);
  EXPECT_EQ(alloc_.OwnerOf(single), 2u);
  EXPECT_EQ(alloc_.OwnerOf(b.base), kHostOwner);
  EXPECT_EQ(alloc_.OwnerOf(b.end() - 1), kHostOwner);
  EXPECT_EQ(alloc_.OwnerOf(c.base), 4u);
  EXPECT_EQ(alloc_.OwnerOf(c.end() - 1), 4u);
  EXPECT_EQ(alloc_.OwnerOf(c.end()), kHostOwner);

  // The freed middle pages are reused one by one, highest PA first.
  EXPECT_EQ(alloc_.AllocFrame(5), b.end() - kPageSize);
  EXPECT_EQ(alloc_.OwnerOf(b.end() - kPageSize), 5u);
  EXPECT_EQ(alloc_.OwnerOf(b.end() - 2 * kPageSize), kHostOwner);

  EXPECT_EQ(alloc_.ReclaimOwner(4), 5u);
  EXPECT_EQ(alloc_.OwnerOf(c.base), kHostOwner);
  EXPECT_EQ(alloc_.OwnerOf(a.end() - kPageSize), 1u);
  EXPECT_EQ(alloc_.ReclaimOwner(1), 4u);
  EXPECT_EQ(alloc_.OwnerOf(a.base), kHostOwner);
  EXPECT_EQ(alloc_.OwnerOf(single), 2u);
  EXPECT_EQ(alloc_.OwnedFrames(1), 0u);
  EXPECT_EQ(alloc_.OwnedFrames(2), 1u);
  EXPECT_EQ(alloc_.OwnedFrames(5), 1u);
}

TEST_F(FrameAllocatorTest, CarvedPageFreedWhileSegmentLivesIsFreedOnce) {
  PhysSegment seg = alloc_.AllocSegment(4, 9);
  uint64_t carved = seg.base + kPageSize;
  alloc_.ShareFrame(carved, 2);
  ASSERT_TRUE(alloc_.ReleaseShare(carved, 9));  // carved out to clone 2
  EXPECT_EQ(alloc_.FreeFrame(carved), FreeResult::kOk);
  EXPECT_EQ(alloc_.OwnerOf(carved), kHostOwner) << "a freed carved page is free, not the segment's";
  EXPECT_EQ(alloc_.OwnedFrames(9), 3u);
  EXPECT_EQ(alloc_.OwnedFrames(2), 0u);
  EXPECT_EQ(alloc_.allocated_frames(), 3u);

  // The segment's reclaim skips the page already on the free list.
  EXPECT_EQ(alloc_.ReclaimOwner(9), 3u);
  EXPECT_EQ(alloc_.allocated_frames(), 0u);
  std::vector<uint64_t> got;
  for (int i = 0; i < 4; ++i) {
    got.push_back(alloc_.AllocFrame(3));
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "a frame on the free list twice would be handed out twice";
  EXPECT_EQ(alloc_.AllocFrame(3), seg.end()) << "free list holds exactly the four pages";
}

TEST(FrameAllocatorContractTest, UnalignedBaseThrowsHostFatal) {
  PhysMem mem;
  EXPECT_THROW(FrameAllocator(mem, 0x1000'0800, 16), FatalHostError);
}

// --- model-based check of the per-owner counters ---------------------------
//
// A seeded random sequence of allocator operations runs against a reference
// model of every frame (primary owner, whether the owner holds it through a
// live segment, sharers in order) and of the free list. After every step,
// every frame's owner and share state must match the model, and each
// owner's OwnedFrames/SharedFrames must equal a brute-force count over
// every frame of the range built from OwnerOf/OwnedOrSharedBy. After every
// reclaim the allocator's free list is drained, compared in order to the
// model's, and restored.
class AllocatorModel {
 public:
  static constexpr OwnerId kOwners = 5;              // random ops use owners 1..5
  static constexpr OwnerId kResident = kOwners + 1;  // holds the prefix segment
  static constexpr OwnerId kProbe = kOwners + 2;     // drains the free list
  static constexpr uint64_t kBase = 0x4000'0000;

  // `prefix` pages go to a resident segment first, so a prefix close to
  // 4096 makes the random frames straddle an owner-node boundary. Random
  // operations never pick a prefix frame.
  AllocatorModel(uint64_t pages, uint64_t prefix, uint64_t seed)
      : alloc_(mem_, kBase, pages), frames_(pages), rng_(seed), first_(prefix) {
    if (prefix > 0) {
      Segment(kResident, prefix);
    }
  }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      Step();
      Check(first_);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    Check(0);
    EXPECT_GT(reclaims_, 0);
    EXPECT_GT(double_frees_, 0u);
    EXPECT_GT(transfers_, 0);
  }

 private:
  struct Frame {
    OwnerId owner = kHostOwner;  // kHostOwner: free or never allocated
    bool via_segment = false;    // held through the owner's live segment
    std::vector<OwnerId> sharers;
  };
  struct Seg {
    uint64_t first;
    uint64_t pages;
    OwnerId owner;
  };

  static uint64_t Pa(uint64_t idx) { return kBase + idx * kPageSize; }
  OwnerId RandomOwner() { return 1 + static_cast<OwnerId>(rng_.NextBelow(kOwners)); }
  uint64_t RandomFrame() {
    return first_ + rng_.NextBelow(std::max<uint64_t>(bump_ - first_, 1));
  }

  // A random frame satisfying `pred`, or the frame count when none does.
  template <typename Pred>
  uint64_t PickFrame(Pred pred) {
    std::vector<uint64_t> hits;
    for (uint64_t i = first_; i < bump_; ++i) {
      if (pred(frames_[i])) {
        hits.push_back(i);
      }
    }
    return hits.empty() ? frames_.size() : hits[rng_.NextBelow(hits.size())];
  }

  void Step() {
    uint64_t op = rng_.NextBelow(100);
    if (op < 30) {
      Alloc(RandomOwner());
    } else if (op < 42) {
      Free(RandomFrame());  // includes double frees and segment pages
    } else if (op < 50) {
      uint64_t idx = PickFrame([](const Frame& f) { return !f.sharers.empty(); });
      Free(idx < frames_.size() ? idx : RandomFrame());
    } else if (op < 54) {
      Segment(RandomOwner(), 1 + rng_.NextBelow(8));
    } else if (op < 74) {
      Share();
    } else if (op < 92) {
      ReleaseShare();
    } else {
      Reclaim(RandomOwner());
    }
  }

  void PromoteFirstSharer(Frame& f) {
    f.owner = f.sharers.front();
    f.sharers.erase(f.sharers.begin());
    f.via_segment = false;
    transfers_++;
  }

  void Alloc(OwnerId owner) {
    uint64_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else if (bump_ < frames_.size()) {
      idx = bump_++;
    } else {
      return;  // exhaustion has its own contract test
    }
    ASSERT_EQ(alloc_.AllocFrame(owner), Pa(idx));
    frames_[idx].owner = owner;
  }

  void Free(uint64_t idx) {
    Frame& f = frames_[idx];
    bool double_free = f.owner == kHostOwner || f.via_segment;
    ASSERT_EQ(alloc_.FreeFrame(Pa(idx)), double_free ? FreeResult::kDoubleFree : FreeResult::kOk);
    if (double_free) {
      double_frees_++;
    } else if (!f.sharers.empty()) {
      PromoteFirstSharer(f);
    } else {
      f.owner = kHostOwner;
      free_.push_back(idx);
    }
  }

  void Segment(OwnerId owner, uint64_t pages) {
    if (bump_ + pages > frames_.size()) {
      return;
    }
    ASSERT_EQ(alloc_.AllocSegment(pages, owner).base, Pa(bump_));
    for (uint64_t i = 0; i < pages; ++i) {
      frames_[bump_ + i] = Frame{.owner = owner, .via_segment = true, .sharers = {}};
    }
    segments_.push_back(Seg{.first = bump_, .pages = pages, .owner = owner});
    bump_ += pages;
  }

  // One share per (frame, clone): the sharer is neither primary nor
  // already a sharer.
  void Share() {
    uint64_t idx = PickFrame([](const Frame& f) { return f.owner != kHostOwner; });
    if (idx == frames_.size()) {
      return;
    }
    Frame& f = frames_[idx];
    OwnerId sharer = RandomOwner();
    if (sharer == f.owner ||
        std::find(f.sharers.begin(), f.sharers.end(), sharer) != f.sharers.end()) {
      return;
    }
    alloc_.ShareFrame(Pa(idx), sharer);
    f.sharers.push_back(sharer);
  }

  // The holder is the primary, a sharer or an unrelated owner.
  void ReleaseShare() {
    uint64_t idx = PickFrame([](const Frame& f) { return !f.sharers.empty(); });
    if (idx == frames_.size()) {
      idx = RandomFrame();
    }
    Frame& f = frames_[idx];
    OwnerId holder = RandomOwner();
    uint64_t pick = rng_.NextBelow(3);
    if (pick == 0 && f.owner != kHostOwner && f.owner != kResident) {
      holder = f.owner;
    } else if (pick == 1 && !f.sharers.empty()) {
      holder = f.sharers[rng_.NextBelow(f.sharers.size())];
    }
    bool handled = false;
    if (f.owner != holder) {
      auto it = std::find(f.sharers.begin(), f.sharers.end(), holder);
      if (it != f.sharers.end()) {
        f.sharers.erase(it);
        handled = true;
      }
    } else if (!f.sharers.empty()) {
      PromoteFirstSharer(f);
      handled = true;
    }
    ASSERT_EQ(alloc_.ReleaseShare(Pa(idx), holder), handled);
  }

  // The kill sweep: shares dropped, singletons freed or transferred in
  // ascending order, then each segment's pages in ascending order.
  void Reclaim(OwnerId owner) {
    reclaims_++;
    for (Frame& f : frames_) {
      f.sharers.erase(std::remove(f.sharers.begin(), f.sharers.end(), owner), f.sharers.end());
    }
    uint64_t freed = 0;
    auto release = [&](uint64_t idx) {
      Frame& f = frames_[idx];
      if (!f.sharers.empty()) {
        PromoteFirstSharer(f);
        return;
      }
      f = Frame{};
      free_.push_back(idx);
      freed++;
    };
    for (uint64_t idx = 0; idx < bump_; ++idx) {
      if (frames_[idx].owner == owner && !frames_[idx].via_segment) {
        release(idx);
      }
    }
    for (const Seg& seg : segments_) {
      if (seg.owner != owner) {
        continue;
      }
      for (uint64_t idx = seg.first; idx < seg.first + seg.pages; ++idx) {
        if (frames_[idx].via_segment) {  // else carved out earlier
          release(idx);
        }
      }
    }
    std::erase_if(segments_, [owner](const Seg& s) { return s.owner == owner; });
    ASSERT_EQ(alloc_.ReclaimOwner(owner), freed);
    CheckFreeList();
  }

  // Drains the whole free list (each pop must be the model's next entry),
  // then frees the frames in reverse to rebuild the identical list.
  void CheckFreeList() {
    std::vector<uint64_t> drained;
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      ASSERT_EQ(alloc_.AllocFrame(kProbe), Pa(*it)) << "free-list entry " << drained.size();
      drained.push_back(Pa(*it));
    }
    for (auto it = drained.rbegin(); it != drained.rend(); ++it) {
      ASSERT_EQ(alloc_.FreeFrame(*it), FreeResult::kOk);
    }
  }

  // Brute-force oracle over every frame from `from` on. The frames below
  // are the untouched resident prefix, counted as such (Run() ends with a
  // scan of the whole range).
  void Check(uint64_t from) {
    std::vector<uint64_t> owned(kProbe + 1), shared(kProbe + 1);
    owned[kResident] = from;
    uint64_t allocated = from;
    for (uint64_t idx = from; idx < frames_.size(); ++idx) {
      const Frame& f = frames_[idx];
      uint64_t pa = Pa(idx);
      // Plain comparisons: a gtest assertion per frame would dominate the
      // run time of unoptimized sanitizer builds.
      OwnerId owner = alloc_.OwnerOf(pa);
      if (owner != f.owner) {
        FAIL() << "frame " << idx << " owner " << owner << ", model " << f.owner;
      }
      if (alloc_.IsShared(pa) == f.sharers.empty()) {
        FAIL() << "frame " << idx << " shared state differs from the model";
      }
      if (owner != kHostOwner) {
        owned[owner]++;
        allocated++;
      }
      if (!f.sharers.empty()) {
        for (OwnerId o = 1; o <= kProbe; ++o) {
          if (o != owner && alloc_.OwnedOrSharedBy(pa, o)) {
            shared[o]++;
          }
        }
      }
    }
    for (OwnerId o = 1; o <= kProbe; ++o) {
      ASSERT_EQ(alloc_.OwnedFrames(o), owned[o]) << "owner " << o;
      ASSERT_EQ(alloc_.SharedFrames(o), shared[o]) << "owner " << o;
    }
    ASSERT_EQ(alloc_.allocated_frames(), allocated);
    ASSERT_EQ(alloc_.double_frees(), double_frees_);
  }

  PhysMem mem_;
  FrameAllocator alloc_;
  std::vector<Frame> frames_;    // by local frame index
  std::vector<uint64_t> free_;   // local indices; back() is handed out next
  std::vector<Seg> segments_;    // live segments in allocation order
  uint64_t bump_ = 0;
  Rng rng_;
  uint64_t first_;  // random operations use frames [first_, bump_)
  uint64_t double_frees_ = 0;
  int reclaims_ = 0;
  int transfers_ = 0;
};

// 12,000 operations in four seeded sequences. Segments come only from the
// never-allocated region, which the first few thousand operations on a
// 512-frame range use up; a fresh allocator per sequence keeps segment
// creation in the mix throughout.
TEST(FrameAllocatorModelTest, RandomOpsMatchBruteForceOracle) {
  for (uint64_t seed : {0x5eed'0001, 0x5eed'0002, 0x5eed'0003, 0x5eed'0004}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    AllocatorModel model(/*pages=*/512, /*prefix=*/0, seed);
    model.Run(3000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(FrameAllocatorModelTest, RandomOpsAcrossOwnerNodeBoundary) {
  AllocatorModel model(/*pages=*/4096 + 448, /*prefix=*/4000, /*seed=*/0xb0a4d);
  model.Run(2500);
}

}  // namespace
}  // namespace cki
