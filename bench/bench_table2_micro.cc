// Table 2: container performance on microbenchmarks (ns): syscall, page
// fault (cold: fresh memory incl. host backing allocation) and hypercall,
// for RunC / HVM / PVM in bare-metal and nested deployments. CKI columns
// are added for reference (the paper reports them in Fig 10 / sec 7.1).
// A second table adds the two CKI gate primitives below Table 2 on the
// crossing-cost ladder (sec 7.1): a PKS gate pair and a KSM call.
#include <iostream>

#include "bench/bench_util.h"
#include "src/cki/cki_engine.h"
#include "src/metrics/report.h"
#include "src/virt/hvm_engine.h"
#include "src/virt/pvm_engine.h"

namespace cki {
namespace {

SimNanos SyscallNs(Testbed& bed) {
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  constexpr int kIters = 128;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
    }
  });
  return total / kIters;
}

SimNanos ColdFaultNs(Testbed& bed) {
  if (auto* hvm = dynamic_cast<HvmEngine*>(&bed.engine())) {
    hvm->set_cold_faults(true);
  }
  if (auto* pvm = dynamic_cast<PvmEngine*>(&bed.engine())) {
    pvm->set_cold_faults(true);
  }
  constexpr int kPages = 128;
  uint64_t base = bed.engine().MmapAnon(kPages * kPageSize, false);
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kPages; ++i) {
      bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true);
    }
  });
  return total / kPages;
}

SimNanos HypercallNs(Testbed& bed) {
  if (bed.kind() == RuntimeKind::kRunc) {
    return 0;  // "-" in the paper: no hypervisor below an OS-level container
  }
  constexpr int kIters = 128;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().GuestHypercall(HypercallOp::kNop);
    }
  });
  return total / kIters;
}

// One KSM entry and exit through the PKS gates, nothing in between.
SimNanos PksGatePairNs() {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  Gates& gates = static_cast<CkiEngine&>(bed.engine()).gates();
  return bed.Measure([&] {
    gates.EnterKsm();
    gates.ExitKsm();
  });
}

// One KSM call that updates a PTE: mprotect of a populated RW page to RW,
// through the monitor-checked store.
SimNanos KsmPteUpdateNs() {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  uint64_t page = bed.engine().MmapAnon(kPageSize, true);
  return bed.Measure([&] {
    bed.engine().UserSyscall(SyscallRequest{
        .no = Sys::kMprotect, .arg0 = page, .arg1 = kPageSize, .arg2 = kProtRead | kProtWrite});
  });
}

void Run(BenchObsSink& sink) {
  ReportTable table("Table 2: microbenchmark latencies (ns)", "op",
                    {"RunC-BM", "HVM-BM", "PVM-BM", "CKI-BM", "HVM-NST", "PVM-NST", "CKI-NST"});
  std::vector<std::pair<RuntimeKind, Deployment>> configs = {
      {RuntimeKind::kRunc, Deployment::kBareMetal}, {RuntimeKind::kHvm, Deployment::kBareMetal},
      {RuntimeKind::kPvm, Deployment::kBareMetal},  {RuntimeKind::kCki, Deployment::kBareMetal},
      {RuntimeKind::kHvm, Deployment::kNested},     {RuntimeKind::kPvm, Deployment::kNested},
      {RuntimeKind::kCki, Deployment::kNested},
  };

  std::vector<double> syscalls;
  std::vector<double> faults;
  std::vector<double> hypercalls;
  for (auto [kind, dep] : configs) {
    {
      Testbed bed(kind, dep);
      syscalls.push_back(static_cast<double>(SyscallNs(bed)));
    }
    {
      Testbed bed(kind, dep);
      faults.push_back(static_cast<double>(ColdFaultNs(bed)));
    }
    {
      Testbed bed(kind, dep);
      hypercalls.push_back(static_cast<double>(HypercallNs(bed)));
    }
  }
  table.AddRow("syscall", syscalls);
  table.AddRow("pgfault (cold)", faults);
  table.AddRow("hypercall", hypercalls);
  sink.Print(table, 0);

  std::cout << "Paper (Table 2): syscall 93/91/336 (BM), 91/336 (NST); pgfault\n"
               "1000/4347/6727 (BM), 34050/7346 (NST); hypercall -/1088/466 (BM),\n"
               "6746/486 (NST). CKI (sec 7.1): syscall 90, pgfault 1067, hypercall 390.\n";

  ReportTable ladder("Crossing ladder: CKI gate primitives (ns)", "op", {"CKI-BM"});
  ladder.AddRow("PKS gate pair", {static_cast<double>(PksGatePairNs())});
  ladder.AddRow("KSM call (mprotect PTE)", {static_cast<double>(KsmPteUpdateNs())});
  sink.Print(ladder, 0);
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_table2_micro", cki::kNoMode, cki::Run);
}
