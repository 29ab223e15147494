// Mechanism-level tests of the HVM and PVM engines: lazy EPT backing,
// shadow-table consistency, batching, cold-fault accounting, the CKI
// engine's delegated-segment memory management, and the cross-engine
// equivalence of the clean-hit touch fast path with the full path.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/cki/cki_engine.h"
#include "src/runtime/runtime.h"
#include "src/virt/hvm_engine.h"
#include "src/virt/pvm_engine.h"

namespace cki {
namespace {

// --- HVM --------------------------------------------------------------------

TEST(HvmBehavior, DataPagesBackLazilyOnFirstTouch) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  auto& engine = static_cast<HvmEngine&>(bed.engine());
  uint64_t mapped_before = engine.ept().mapped_pages();
  uint64_t base = bed.engine().MmapAnon(2 * kPageSize, false);
  // mmap alone maps nothing in the EPT.
  EXPECT_EQ(engine.ept().mapped_pages(), mapped_before);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 1u);
  EXPECT_GT(engine.ept().mapped_pages(), mapped_before);
  // Second touch of the same page: no further violation.
  before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 0u);
}

TEST(HvmBehavior, RecycledGuestPagesKeepBacking) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kMunmap, .arg0 = base, .arg1 = kPageSize});
  // A new mapping reuses the freed gPA: warm EPT, no violation.
  uint64_t base2 = bed.engine().MmapAnon(kPageSize, false);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base2, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 0u);
}

TEST(HvmBehavior, HugeEptBackingAmortizesViolations) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  auto& engine = static_cast<HvmEngine&>(bed.engine());
  engine.set_ept_huge_pages(true);
  constexpr int kPages = 64;
  uint64_t base = bed.engine().MmapAnon(kPages * kPageSize, false);
  auto before = bed.ctx().trace().Snapshot();
  for (int i = 0; i < kPages; ++i) {
    ASSERT_EQ(bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true),
              TouchResult::kOk);
  }
  // 64 fresh 4K pages inside one (or two) 2 MiB regions: <= 2 violations.
  EXPECT_LE(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 2u);
}

TEST(HvmBehavior, NestedHypercallCostsL0Intervention) {
  Testbed bm(RuntimeKind::kHvm, Deployment::kBareMetal);
  Testbed nst(RuntimeKind::kHvm, Deployment::kNested);
  SimNanos bm_cost = bm.Measure([&] { bm.engine().GuestHypercall(HypercallOp::kNop); });
  SimNanos nst_cost = nst.Measure([&] { nst.engine().GuestHypercall(HypercallOp::kNop); });
  EXPECT_GT(nst_cost, 5 * bm_cost);
}

// --- PVM --------------------------------------------------------------------

TEST(PvmBehavior, HardwareRunsOnShadowTables) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto& engine = static_cast<PvmEngine&>(bed.engine());
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  uint64_t fills_before = engine.shadow_fills();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_GT(engine.shadow_fills(), fills_before) << "fault must sync a shadow leaf";
  // The hardware CR3 points at a host-owned root, not the guest's table.
  uint64_t hw_root = Cr3Root(bed.machine().cpu().cr3());
  EXPECT_NE(hw_root, bed.engine().kernel().current().pt_root);
  EXPECT_EQ(bed.machine().frames().OwnerOf(hw_root), kHostOwner);
}

TEST(PvmBehavior, GuestUnmapInvalidatesShadow) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kMunmap, .arg0 = base, .arg1 = kPageSize});
  EXPECT_EQ(bed.engine().UserTouch(base, false), TouchResult::kSegv)
      << "stale shadow entries must not survive a guest unmap";
}

TEST(PvmBehavior, PteUpdatesCountShadowEmulations) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto& engine = static_cast<PvmEngine&>(bed.engine());
  uint64_t base = bed.engine().MmapAnon(kPageSize, true);
  uint64_t emul_before = engine.spt_emulations();
  bed.engine().UserSyscall(SyscallRequest{
      .no = Sys::kMprotect, .arg0 = base, .arg1 = kPageSize, .arg2 = kProtRead});
  EXPECT_GT(engine.spt_emulations(), emul_before);
}

TEST(PvmBehavior, BatchedUpdatesAmortizeExits) {
  // fork() clones dozens of PTEs; batching must keep the exit count far
  // below one per PTE.
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(40 * kPageSize, true);
  (void)base;
  auto before = bed.ctx().trace().Snapshot();
  SyscallResult r = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork});
  ASSERT_TRUE(r.ok());
  uint64_t exits = CountDelta(before, bed.ctx().trace(), PathEvent::kVmExit);
  uint64_t updates = CountDelta(before, bed.ctx().trace(), PathEvent::kPteUpdate);
  EXPECT_GT(updates, 40u);
  EXPECT_LT(exits, updates / 4) << "fork PTE updates must batch";
}

TEST(PvmBehavior, ForkedChildFaultsRefillShadowLazily) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto& engine = static_cast<PvmEngine&>(bed.engine());
  GuestKernel& kernel = bed.engine().kernel();
  uint64_t base = bed.engine().MmapAnon(4 * kPageSize, true);
  SyscallResult r = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork});
  ASSERT_TRUE(r.ok());
  kernel.SwitchTo(static_cast<int>(r.value));
  uint64_t fills_before = engine.shadow_fills();
  // Child reads inherited memory: the guest PTE exists (read-only CoW),
  // only the child's shadow needs filling.
  ASSERT_EQ(bed.engine().UserTouch(base, false), TouchResult::kOk);
  EXPECT_GT(engine.shadow_fills(), fills_before);
}

// --- CKI --------------------------------------------------------------------

TEST(CkiBehavior, GuestMemoryComesFromDelegatedSegment) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  WalkResult walk =
      bed.engine().kernel().editor().Walk(bed.engine().kernel().current().pt_root, base);
  ASSERT_TRUE(walk.fault.ok());
  // The PTE holds a host-physical address inside the delegated segment —
  // no gPA indirection exists at all.
  EXPECT_TRUE(engine.segment().Contains(PteAddr(walk.leaf_pte)));
  EXPECT_EQ(bed.machine().frames().OwnerOf(PteAddr(walk.leaf_pte)), engine.id());
}

TEST(CkiBehavior, EveryPteStoreIsMonitorChecked) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t checked_before = engine.ksm().monitor().checked_stores();
  uint64_t base = bed.engine().MmapAnon(4 * kPageSize, false);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true),
              TouchResult::kOk);
  }
  EXPECT_GE(engine.ksm().monitor().checked_stores() - checked_before, 4u);
  EXPECT_EQ(engine.ksm().monitor().rejected_stores(), 0u);
}

TEST(CkiBehavior, HardwareCr3PointsAtPerVcpuCopy) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t guest_root = bed.engine().kernel().current().pt_root;
  uint64_t hw_root = Cr3Root(bed.machine().cpu().cr3());
  EXPECT_NE(hw_root, guest_root);
  EXPECT_EQ(hw_root, engine.ksm().TopLevelCopy(guest_root, 0));
}

TEST(CkiBehavior, ProcessExitReturnsPagesToSegmentPool) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  GuestKernel& kernel = bed.engine().kernel();
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  uint64_t declared_before = engine.ksm().monitor().declared_ptps();
  SyscallResult r = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork});
  ASSERT_TRUE(r.ok());
  kernel.SwitchTo(static_cast<int>(r.value));
  uint64_t child_heap = bed.engine().MmapAnon(8 * kPageSize, true);
  (void)child_heap;
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kExit});
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kWaitpid, .arg0 = 0});
  // The child's PTPs were undeclared on teardown.
  EXPECT_EQ(engine.ksm().monitor().declared_ptps(), declared_before);
}

TEST(CkiBehavior, AblationsOnlyAffectLatencyNotSemantics) {
  for (RuntimeKind kind : {RuntimeKind::kCkiNoOpt2, RuntimeKind::kCkiNoOpt3}) {
    Testbed bed(kind, Deployment::kBareMetal);
    uint64_t base = bed.engine().MmapAnon(kPageSize, false);
    EXPECT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
    EXPECT_TRUE(bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid}).ok());
  }
}

// --- cross-engine property: nested deployment never changes results ------------

class NestedEquivalenceTest : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(NestedEquivalenceTest, FunctionalResultsMatchAcrossDeployments) {
  Testbed bm(GetParam(), Deployment::kBareMetal);
  Testbed nst(GetParam(), Deployment::kNested);
  for (Testbed* bed : {&bm, &nst}) {
    uint64_t base = bed->engine().MmapAnon(2 * kPageSize, false);
    EXPECT_EQ(bed->engine().UserTouch(base, true), TouchResult::kOk);
    SyscallResult fd = bed->engine().UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = 9});
    EXPECT_TRUE(fd.ok());
    EXPECT_EQ(bed->engine()
                  .UserSyscall(SyscallRequest{
                      .no = Sys::kWrite, .arg0 = static_cast<uint64_t>(fd.value), .arg1 = 100})
                  .value,
              100);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, NestedEquivalenceTest,
                         ::testing::Values(RuntimeKind::kHvm, RuntimeKind::kPvm,
                                           RuntimeKind::kCki),
                         [](const ::testing::TestParamInfo<RuntimeKind>& param_info) {
                           return std::string(RuntimeKindName(param_info.param));
                         });

// --- cross-engine property: the touch fast path equals the full path ----------

// What one run of the touch script leaves behind.
struct TouchScriptRun {
  std::vector<TouchResult> results;
  SimNanos clock = 0;
  std::array<uint64_t, static_cast<size_t>(PathEvent::kCount)> events{};
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
};

// A fixed touch script: first-touch faults, re-touch hits, a CoW write after
// fork (LibOS refuses the fork, so its writes stay hits), a touch of an
// unmapped VA and a touch after a kill. With `observe` the hub is enabled,
// so every touch takes the full path; without it, clean hits are eligible
// for Cpu::TryUserTouchFast. Every kind deploys nested under the default
// machine configuration, so the script runs on both deployments.
TouchScriptRun RunTouchScript(RuntimeKind kind, Deployment deployment, bool observe) {
  constexpr int kPages = 4;
  constexpr uint64_t kUnmappedVa = 0x0000'3000'0000'0000;
  Testbed bed(kind, deployment);
  if (observe) {
    bed.ctx().obs().Enable();
  }
  ContainerEngine& engine = bed.engine();
  TouchScriptRun run;
  auto touch_all = [&](uint64_t base, bool write) {
    for (int i = 0; i < kPages; ++i) {
      run.results.push_back(
          engine.UserTouch(base + static_cast<uint64_t>(i) * kPageSize, write));
    }
  };
  uint64_t base = engine.MmapAnon(kPages * kPageSize, false);
  touch_all(base, /*write=*/true);   // first touch: faults
  touch_all(base, /*write=*/false);  // re-touch: hits
  touch_all(base, /*write=*/true);
  engine.UserSyscall(SyscallRequest{.no = Sys::kFork});
  touch_all(base, /*write=*/true);   // CoW break in the parent
  touch_all(base, /*write=*/false);
  run.results.push_back(engine.UserTouch(kUnmappedVa, /*write=*/false));
  engine.KillFromFault();
  run.results.push_back(engine.UserTouch(base, /*write=*/false));
  run.clock = bed.ctx().clock().now();
  run.events = bed.ctx().trace().Snapshot();
  run.tlb_hits = bed.machine().cpu().tlb().hits();
  run.tlb_misses = bed.machine().cpu().tlb().misses();
  return run;
}

class TouchPathEquivalenceTest : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(TouchPathEquivalenceTest, FastPathMatchesFullPath) {
  for (Deployment deployment : {Deployment::kBareMetal, Deployment::kNested}) {
    SCOPED_TRACE(deployment == Deployment::kNested ? "nested" : "bare metal");
    TouchScriptRun fast = RunTouchScript(GetParam(), deployment, /*observe=*/false);
    TouchScriptRun full = RunTouchScript(GetParam(), deployment, /*observe=*/true);
    EXPECT_EQ(fast.results, full.results);
    EXPECT_EQ(fast.clock, full.clock);
    EXPECT_EQ(fast.events, full.events);
    EXPECT_EQ(fast.tlb_hits, full.tlb_hits);
    EXPECT_EQ(fast.tlb_misses, full.tlb_misses);

    // The script reached every outcome it was written for.
    ASSERT_EQ(fast.results.size(), 22u);
    for (size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(fast.results[i], TouchResult::kOk) << "touch " << i;
    }
    EXPECT_EQ(fast.results[20], TouchResult::kSegv);
    EXPECT_EQ(fast.results[21], TouchResult::kKilled);
    EXPECT_GT(fast.tlb_hits, 0u);
    EXPECT_GT(fast.events[static_cast<size_t>(PathEvent::kPageFault)], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TouchPathEquivalenceTest,
    ::testing::Values(RuntimeKind::kRunc, RuntimeKind::kHvm, RuntimeKind::kPvm,
                      RuntimeKind::kCki, RuntimeKind::kCkiNoOpt2, RuntimeKind::kCkiNoOpt3,
                      RuntimeKind::kGvisor, RuntimeKind::kLibOs),
    [](const ::testing::TestParamInfo<RuntimeKind>& param_info) {
      std::string name(RuntimeKindName(param_info.param));
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace cki
