// Edge-case and failure-injection tests for the hardware layer: huge-page
// conflicts, walk reference counting, EPT unmap, and contract violations
// that must fail loudly (counted results or typed host-fatal exceptions)
// rather than corrupt state silently.
#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault_domain.h"
#include "src/hw/ept.h"
#include "src/hw/page_table.h"
#include "src/hw/phys_mem.h"
#include "src/host/frame_allocator.h"

namespace cki {
namespace {

class HwEdgeTest : public ::testing::Test {
 protected:
  HwEdgeTest() : next_(0x100'0000) {}

  uint64_t Alloc() {
    uint64_t pa = next_;
    next_ += kPageSize;
    mem_.InstallFrame(pa);
    return pa;
  }

  PageTableEditor MakeEditor() {
    return PageTableEditor(
        mem_, [this](int) { return Alloc(); },
        [this](uint64_t pte_pa, uint64_t value, int, uint64_t) {
          mem_.WriteU64(pte_pa, value);
          return true;
        });
  }

  PhysMem mem_;
  uint64_t next_;
};

TEST_F(HwEdgeTest, CannotMap4KUnderExistingHugeLeaf) {
  PageTableEditor editor = MakeEditor();
  uint64_t root = Alloc();
  ASSERT_TRUE(editor.MapPage(root, 0x4000'0000, 0x200'0000, kPteP | kPteW, 0, PageSize::k2M));
  // A 4K mapping inside the covered range must be refused (cannot descend
  // past a huge leaf).
  EXPECT_FALSE(editor.MapPage(root, 0x4000'1000, 0x9000, kPteP, 0, PageSize::k4K));
}

TEST_F(HwEdgeTest, HugeLeafUnmapAndRemap) {
  PageTableEditor editor = MakeEditor();
  uint64_t root = Alloc();
  ASSERT_TRUE(editor.MapPage(root, 0x4000'0000, 0x200'0000, kPteP | kPteW, 0, PageSize::k2M));
  ASSERT_TRUE(editor.UnmapPage(root, 0x4000'0000));
  // Now a 4K mapping in the freed range works.
  EXPECT_TRUE(editor.MapPage(root, 0x4000'1000, 0x9000, kPteP, 0, PageSize::k4K));
}

TEST_F(HwEdgeTest, WalkCountsReferencesExactly) {
  PageTableEditor editor = MakeEditor();
  uint64_t root = Alloc();
  ASSERT_TRUE(editor.MapPage(root, 0x1234'5000, 0x8000, kPteP, 0, PageSize::k4K));
  WalkResult w4k = WalkPageTable(mem_, root, 0x1234'5000);
  EXPECT_EQ(w4k.mem_refs, 4);
  ASSERT_TRUE(editor.MapPage(root, 0x8000'0000, 0x400'0000, kPteP | kPteW, 0, PageSize::k2M));
  WalkResult w2m = WalkPageTable(mem_, root, 0x8000'0000);
  EXPECT_EQ(w2m.mem_refs, 3);
  WalkResult miss = WalkPageTable(mem_, root, 0xFF00'0000'0000);  // untouched PML4 slot
  EXPECT_EQ(miss.mem_refs, 1) << "a missing PML4 entry terminates after one reference";
  WalkResult mid_miss = WalkPageTable(mem_, root, 0xFFFF'0000);  // same PML4 slot as 4K map
  EXPECT_EQ(mid_miss.mem_refs, 2) << "a missing PDPT entry terminates after two references";
}

TEST_F(HwEdgeTest, ForEachLeafVisitsAllLeavesOnce) {
  PageTableEditor editor = MakeEditor();
  uint64_t root = Alloc();
  ASSERT_TRUE(editor.MapPage(root, 0x1000, 0x10'0000, kPteP, 0, PageSize::k4K));
  ASSERT_TRUE(editor.MapPage(root, 0x7f00'0000'0000, 0x20'0000, kPteP, 0, PageSize::k4K));
  ASSERT_TRUE(editor.MapPage(root, 0x4000'0000, 0x40'0000, kPteP, 0, PageSize::k2M));
  int leaves = 0;
  int huge = 0;
  editor.ForEachLeaf(root, [&](uint64_t, uint64_t, uint64_t, int level) {
    leaves++;
    huge += (level == 2) ? 1 : 0;
  });
  EXPECT_EQ(leaves, 3);
  EXPECT_EQ(huge, 1);
}

TEST_F(HwEdgeTest, EptUnmapRestoresViolation) {
  Ept ept(mem_, [this](int) { return Alloc(); });
  uint64_t hpa = Alloc();
  ASSERT_TRUE(ept.Map(0x5000, hpa, PageSize::k4K));
  EXPECT_TRUE(ept.Translate(0x5000).fault.ok());
  ASSERT_TRUE(ept.Unmap(0x5000));
  EXPECT_EQ(ept.Translate(0x5000).fault.type, FaultType::kEptViolation);
  EXPECT_EQ(ept.mapped_pages(), 0u);
}

TEST_F(HwEdgeTest, PteOffsetArithmetic) {
  // The offset within 4K vs 2M leaves must compose correctly.
  PageTableEditor editor = MakeEditor();
  uint64_t root = Alloc();
  ASSERT_TRUE(editor.MapPage(root, 0x4000'0000, 0x800'0000, kPteP, 0, PageSize::k2M));
  WalkResult walk = WalkPageTable(mem_, root, 0x4000'0000 + 0x1F'FFF8);
  ASSERT_TRUE(walk.fault.ok());
  EXPECT_EQ(walk.pa, 0x800'0000u + 0x1F'FFF8u);
}

// --- contract violations fail loudly (failure injection) ---------------------

TEST(HwContractTest, UninstalledFrameAccessThrowsHostFatal) {
  PhysMem mem;
  EXPECT_THROW(mem.WriteU64(0xDEAD'B000, 1), FatalHostError);
  EXPECT_THROW((void)mem.ReadU64(0xDEAD'B000), FatalHostError);
}

TEST(HwContractTest, DoubleFreeIsCountedNotFatal) {
  PhysMem mem;
  FrameAllocator alloc(mem, 0x10'0000, 16);
  uint64_t pa = alloc.AllocFrame(1);
  EXPECT_EQ(alloc.FreeFrame(pa), FreeResult::kOk);
  EXPECT_EQ(alloc.FreeFrame(pa), FreeResult::kDoubleFree);
  EXPECT_EQ(alloc.double_frees(), 1u);
  // The frame stays on the free list exactly once: both of the next two
  // allocations must succeed (capacity was not corrupted).
  EXPECT_NE(alloc.AllocFrame(1), 0u);
}

TEST(HwContractTest, PhysicalExhaustionThrowsHostFatalWithoutBus) {
  PhysMem mem;
  FrameAllocator alloc(mem, 0x10'0000, 2);
  alloc.AllocFrame(1);
  alloc.AllocFrame(1);
  EXPECT_THROW(alloc.AllocFrame(1), FatalHostError);
}

TEST(HwContractTest, UnalignedInstallRangeThrowsHostFatal) {
  PhysMem mem;
  EXPECT_THROW(mem.InstallRange(0x1000'0800, 4), FatalHostError);
  EXPECT_FALSE(mem.HasFrame(0x1000'0000));
}

// --- lazily installed ranges: kept sorted and merged ------------------------

class PhysMemRangeTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBase = 0x2'0000'0000;
  static uint64_t Pa(uint64_t frame) { return kBase + frame * kPageSize; }

  // Frames [0, 40) must read as installed exactly where `want` says.
  void ExpectInstalled(const std::vector<bool>& want) {
    for (uint64_t f = 0; f < want.size(); ++f) {
      EXPECT_EQ(mem_.HasFrame(Pa(f)), want[f]) << "frame " << f;
      EXPECT_EQ(mem_.HasFrame(Pa(f) + kPageSize - 8), want[f]) << "frame " << f << " tail";
      if (want[f]) {
        EXPECT_EQ(mem_.ReadU64(Pa(f)), 0u);
      } else {
        EXPECT_THROW((void)mem_.ReadU64(Pa(f)), FatalHostError) << "gap frame " << f;
      }
    }
  }

  PhysMem mem_;
};

TEST_F(PhysMemRangeTest, OutOfOrderAbuttingAndOverlappingRanges) {
  mem_.InstallRange(Pa(20), 5);  // [20, 24]
  mem_.InstallRange(Pa(0), 4);   // [0, 3], before the first range
  mem_.InstallRange(Pa(4), 2);   // [4, 5] abuts [0, 3]
  mem_.InstallRange(Pa(10), 3);  // [10, 12]
  mem_.InstallRange(Pa(11), 9);  // [11, 19] overlaps [10, 12], abuts [20, 24]
  mem_.InstallRange(Pa(2), 1);   // inside [0, 5]
  mem_.InstallRange(Pa(8), 3);   // [8, 10] extends [10, 24] downwards
  std::vector<bool> want(40, false);
  for (uint64_t f : {0, 1, 2, 3, 4, 5}) {
    want[f] = true;
  }
  for (uint64_t f = 8; f <= 24; ++f) {
    want[f] = true;
  }
  ExpectInstalled(want);
}

TEST_F(PhysMemRangeTest, RangeBridgingSeveralRangesMergesThem) {
  mem_.InstallRange(Pa(30), 2);  // [30, 31]
  mem_.InstallRange(Pa(0), 2);   // [0, 1]
  mem_.InstallRange(Pa(6), 2);   // [6, 7]
  mem_.InstallRange(Pa(3), 2);   // [3, 4]
  mem_.InstallRange(Pa(1), 6);   // [1, 6] touches all three low ranges
  std::vector<bool> want(40, false);
  for (uint64_t f = 0; f <= 7; ++f) {
    want[f] = true;
  }
  want[30] = want[31] = true;
  ExpectInstalled(want);

  mem_.InstallRange(Pa(8), 22);  // [8, 29] closes the last gap
  for (uint64_t f = 8; f <= 29; ++f) {
    want[f] = true;
  }
  ExpectInstalled(want);
}

TEST_F(PhysMemRangeTest, WritesInsideRangesMaterializeAndGapsStayFatal) {
  mem_.InstallRange(Pa(8), 4);  // [8, 11]
  mem_.InstallRange(Pa(2), 4);  // [2, 5]
  mem_.InstallFrame(Pa(7));     // a single frame between the ranges
  mem_.WriteU64(Pa(11) + 8, 0xAB);
  mem_.WriteU64(Pa(2), 0xCD);
  EXPECT_EQ(mem_.ReadU64(Pa(11) + 8), 0xABu);
  EXPECT_EQ(mem_.ReadU64(Pa(2)), 0xCDu);
  EXPECT_EQ(mem_.ReadU64(Pa(7)), 0u);
  EXPECT_EQ(mem_.materialized_frames(), 2u);
  EXPECT_THROW(mem_.WriteU64(Pa(6), 1), FatalHostError);
  EXPECT_THROW((void)mem_.ReadU64(Pa(1)), FatalHostError);
  EXPECT_THROW((void)mem_.ReadU64(Pa(12)), FatalHostError);
  mem_.InstallRange(Pa(12), 0);  // an empty range installs nothing
  EXPECT_FALSE(mem_.HasFrame(Pa(12)));
}

TEST_F(PhysMemRangeTest, FrameWordsReadsWholeFramesAndChecksInstallationOnce) {
  mem_.InstallRange(Pa(2), 4);  // [2, 5]
  mem_.InstallRange(Pa(8), 2);  // [8, 9]
  mem_.InstallFrame(Pa(12));    // a single frame beyond the ranges
  // Installed but never written: no backing, reads as all zero.
  EXPECT_EQ(mem_.FrameWords(Pa(3)), nullptr);
  EXPECT_EQ(mem_.FrameWords(Pa(12)), nullptr);
  EXPECT_EQ(mem_.FrameWords(Pa(9) + kPageSize - 8), nullptr);
  EXPECT_EQ(mem_.materialized_frames(), 0u);

  // Written frames: the live words, from any address inside the frame.
  mem_.WriteU64(Pa(4), 0x11);
  mem_.WriteU64(Pa(4) + kPageSize - 8, 0x22);
  mem_.WriteU64(Pa(12) + 64, 0x33);
  const uint64_t* words = mem_.FrameWords(Pa(4) + 40);
  ASSERT_NE(words, nullptr);
  for (uint64_t i = 0; i < kPageSize / 8; ++i) {
    EXPECT_EQ(words[i], mem_.ReadU64(Pa(4) + i * 8)) << "word " << i;
  }
  EXPECT_EQ(words[0], 0x11u);
  EXPECT_EQ(words[kPageSize / 8 - 1], 0x22u);
  ASSERT_NE(mem_.FrameWords(Pa(12)), nullptr);
  EXPECT_EQ(mem_.FrameWords(Pa(12))[8], 0x33u);
  mem_.WriteU64(Pa(4), 0x44);  // the pointer tracks later writes
  EXPECT_EQ(words[0], 0x44u);

  // Frames in a gap between installed ranges (and past them) are fatal.
  EXPECT_THROW((void)mem_.FrameWords(Pa(6)), FatalHostError);
  EXPECT_THROW((void)mem_.FrameWords(Pa(7)), FatalHostError);
  EXPECT_THROW((void)mem_.FrameWords(Pa(1)), FatalHostError);
  EXPECT_THROW((void)mem_.FrameWords(Pa(30)), FatalHostError);
}

}  // namespace
}  // namespace cki
