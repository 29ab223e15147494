// End-to-end validation of the calibrated engine paths against the paper's
// published microbenchmarks (Table 2, Figure 10, section 7.1). These tests
// are the anchor of the reproduction: every application-level result builds
// on these paths.
#include <gtest/gtest.h>

#include <functional>

#include "src/cki/cki_engine.h"
#include "src/guest/process.h"
#include "src/runtime/runtime.h"
#include "src/virt/hvm_engine.h"
#include "src/virt/pvm_engine.h"

namespace cki {
namespace {

constexpr double kTolerance = 0.05;  // 5 % of the paper's number

void ExpectNear(double measured, double paper, std::string_view what) {
  EXPECT_NEAR(measured, paper, paper * kTolerance)
      << what << ": measured " << measured << " ns vs paper " << paper << " ns";
}

SimNanos SyscallLatency(Testbed& bed) {
  // Warm up once, then average a small batch.
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  constexpr int kIters = 64;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
    }
  });
  return total / kIters;
}

// Latency of handling one fresh anonymous page (mmap'd, first touch).
SimNanos PageFaultLatency(Testbed& bed, int pages = 64) {
  uint64_t base = bed.engine().MmapAnon(static_cast<uint64_t>(pages) * kPageSize, false);
  EXPECT_NE(base, 0u);
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < pages; ++i) {
      EXPECT_EQ(bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true),
                TouchResult::kOk);
    }
  });
  return total / static_cast<SimNanos>(pages);
}

SimNanos HypercallLatency(Testbed& bed) {
  bed.engine().GuestHypercall(HypercallOp::kNop);
  constexpr int kIters = 64;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().GuestHypercall(HypercallOp::kNop);
    }
  });
  return total / kIters;
}

// --- Figure 10b: system call latency -------------------------------------

TEST(MicroSyscall, RuncIs90ns) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 90, "RunC syscall");
}

TEST(MicroSyscall, HvmIs90ns) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 91, "HVM syscall");
}

TEST(MicroSyscall, CkiIs90ns) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 90, "CKI syscall");
}

TEST(MicroSyscall, PvmIs336ns) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 336, "PVM syscall");
}

TEST(MicroSyscall, PvmNestedSameAsBareMetal) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kNested);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 336, "PVM-NST syscall");
}

TEST(MicroSyscall, CkiWithoutOpt2Is238ns) {
  Testbed bed(RuntimeKind::kCkiNoOpt2, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 238, "CKI-wo-OPT2 syscall");
}

TEST(MicroSyscall, CkiWithoutOpt3Is153ns) {
  Testbed bed(RuntimeKind::kCkiNoOpt3, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(SyscallLatency(bed)), 153, "CKI-wo-OPT3 syscall");
}

// --- Figure 10a: page fault latency ---------------------------------------

TEST(MicroPageFault, RuncIs1000ns) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 1000, "RunC pgfault");
}

TEST(MicroPageFault, CkiIs1067ns) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 1067, "CKI pgfault");
}

TEST(MicroPageFault, HvmBareMetalIs3257ns) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 3257, "HVM-BM pgfault");
}

TEST(MicroPageFault, HvmNestedIs32565ns) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kNested);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 32565, "HVM-NST pgfault");
}

TEST(MicroPageFault, PvmIs4407ns) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 4407, "PVM pgfault");
}

TEST(MicroPageFault, CkiNestedEqualsBareMetal) {
  Testbed bm(RuntimeKind::kCki, Deployment::kBareMetal);
  Testbed nst(RuntimeKind::kCki, Deployment::kNested);
  EXPECT_EQ(PageFaultLatency(bm), PageFaultLatency(nst))
      << "CKI needs no L0 intervention: nested faults cost the same";
}

// --- Table 2 / sec 7.1: empty hypercall -----------------------------------

TEST(MicroHypercall, HvmBareMetalIs1088ns) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(HypercallLatency(bed)), 1088, "HVM-BM hypercall");
}

TEST(MicroHypercall, HvmNestedIs6746ns) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kNested);
  ExpectNear(static_cast<double>(HypercallLatency(bed)), 6746, "HVM-NST hypercall");
}

TEST(MicroHypercall, PvmBareMetalIs466ns) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  ExpectNear(static_cast<double>(HypercallLatency(bed)), 466, "PVM-BM hypercall");
}

TEST(MicroHypercall, PvmNestedIs486ns) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kNested);
  ExpectNear(static_cast<double>(HypercallLatency(bed)), 486, "PVM-NST hypercall");
}

TEST(MicroHypercall, CkiIs390nsEverywhere) {
  Testbed bm(RuntimeKind::kCki, Deployment::kBareMetal);
  Testbed nst(RuntimeKind::kCki, Deployment::kNested);
  ExpectNear(static_cast<double>(HypercallLatency(bm)), 390, "CKI-BM hypercall");
  ExpectNear(static_cast<double>(HypercallLatency(nst)), 390, "CKI-NST hypercall");
}

// --- crossing ladder (sec 7.1): exact simulated ns per op -------------------
// The ladder every figure rests on, pinned exactly: the PKS gate pair and
// the KSM PTE update (bench_table2_micro's ladder table) and the six
// Table 2 cells they sit below. Each op costs the same from the first call.

TEST(CrossingLadder, ExactNsPerOp) {
  // `prepare` sets up a fresh testbed and returns the op to time.
  using Op = std::function<void()>;
  struct Rung {
    const char* what;
    RuntimeKind kind;
    Deployment dep;
    SimNanos ns;
    Op (*prepare)(Testbed& bed);
  };
  const auto getpid = [](Testbed& bed) -> Op {
    return [&bed] { bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid}); };
  };
  const auto hypercall = [](Testbed& bed) -> Op {
    return [&bed] { bed.engine().GuestHypercall(HypercallOp::kNop); };
  };
  const Rung rungs[] = {
      {"PKS gate pair", RuntimeKind::kCki, Deployment::kBareMetal, 70,
       [](Testbed& bed) -> Op {
         Gates& gates = static_cast<CkiEngine&>(bed.engine()).gates();
         return [&gates] {
           gates.EnterKsm();
           gates.ExitKsm();
         };
       }},
      {"KSM mprotect", RuntimeKind::kCki, Deployment::kBareMetal, 332,
       [](Testbed& bed) -> Op {
         uint64_t page = bed.engine().MmapAnon(kPageSize, true);
         return [&bed, page] {
           bed.engine().UserSyscall(SyscallRequest{
               .no = Sys::kMprotect, .arg0 = page, .arg1 = kPageSize, .arg2 = kProtRead | kProtWrite});
         };
       }},
      {"CKI hypercall", RuntimeKind::kCki, Deployment::kBareMetal, 390, hypercall},
      {"PVM-BM exit", RuntimeKind::kPvm, Deployment::kBareMetal, 466, hypercall},
      {"HVM-BM VM exit", RuntimeKind::kHvm, Deployment::kBareMetal, 1088, hypercall},
      {"HVM-NST VM exit", RuntimeKind::kHvm, Deployment::kNested, 6746, hypercall},
      {"CKI syscall", RuntimeKind::kCki, Deployment::kBareMetal, 90, getpid},
      {"PVM syscall", RuntimeKind::kPvm, Deployment::kBareMetal, 336, getpid},
  };
  for (const Rung& rung : rungs) {
    Testbed bed(rung.kind, rung.dep);
    Op op = rung.prepare(bed);
    for (int call = 0; call < 3; ++call) {
      EXPECT_EQ(bed.Measure(op), rung.ns) << rung.what << ", call " << call;
    }
  }
}

// --- path composition (event counts, independent of latency) ----------------

TEST(PathComposition, CkiSyscallHasNoSwitches) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto before = bed.ctx().trace().Snapshot();
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kPksSwitch), 0u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kCr3Switch), 0u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kModeSwitch), 0u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kHypercall), 0u);
}

TEST(PathComposition, PvmSyscallHasTwoModeAndTwoCr3Switches) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  auto before = bed.ctx().trace().Snapshot();
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kModeSwitch), 2u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kCr3Switch), 2u);
}

TEST(PathComposition, PvmPageFaultDoesThreeHostRoundTrips) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(2 * kPageSize, false);
  // Warm the intermediate page-table levels so the measured fault performs
  // exactly one leaf PTE update.
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base + kPageSize, true), TouchResult::kOk);
  // 3 host round trips = 6 context switches (sec 2.4.2) + shadow emulation.
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kVmExit), 3u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kModeSwitch), 6u);
  EXPECT_GE(CountDelta(before, bed.ctx().trace(), PathEvent::kShadowPtUpdate), 1u);
}

TEST(PathComposition, HvmNestedPageFaultBouncesThroughL0) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kNested);
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kEptViolation), 1u);
  EXPECT_GE(CountDelta(before, bed.ctx().trace(), PathEvent::kL0WorldSwitch), 8u);
}

TEST(PathComposition, CkiPageFaultUsesKsmGateNotHost) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(kPageSize, false);
  auto before = bed.ctx().trace().Snapshot();
  ASSERT_EQ(bed.engine().UserTouch(base, true), TouchResult::kOk);
  EXPECT_GE(CountDelta(before, bed.ctx().trace(), PathEvent::kKsmCall), 1u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kVmExit), 0u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kNestedVmExit), 0u);
  EXPECT_EQ(CountDelta(before, bed.ctx().trace(), PathEvent::kHypercall), 0u);
}

// --- Table 2 cold faults ----------------------------------------------------

TEST(MicroColdFault, HvmColdIs4347ns) {
  Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
  static_cast<HvmEngine&>(bed.engine()).set_cold_faults(true);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 4347, "HVM cold pgfault");
}

TEST(MicroColdFault, PvmColdIs6727ns) {
  Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
  static_cast<PvmEngine&>(bed.engine()).set_cold_faults(true);
  ExpectNear(static_cast<double>(PageFaultLatency(bed)), 6727, "PVM cold pgfault");
}

}  // namespace
}  // namespace cki
