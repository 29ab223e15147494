// Figure 10: (a) page-fault latency breakdown, (b) syscall latency with the
// CKI optimization ablations. The breakdown segments are reconstructed from
// the event trace: handler time vs mechanism time (VM exits / SPT emulation
// / EPT faults / KSM calls).
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/virt/pvm_engine.h"

namespace cki {
namespace {

struct FaultBreakdown {
  double total = 0;
  double handler = 0;    // guest-side delivery + handler + return
  double mechanism = 0;  // exits, shadow emulation, EPT faults, KSM calls
};

FaultBreakdown MeasureFault(RuntimeKind kind, Deployment dep, std::string_view label,
                            BenchObsSink& sink) {
  Testbed bed(kind, dep);
  constexpr int kPages = 128;
  uint64_t base = bed.engine().MmapAnon(kPages * kPageSize, false);
  // Warm the intermediate tables with the first page (not measured).
  bed.engine().UserTouch(base, true);

  // Observe only the measured region: boot and warmup stay out of the span
  // tree, so the profiler's root total equals the measured latency.
  if (sink.active()) {
    sink.EnableHub(bed.ctx().obs());
    bed.ctx().obs().set_owner(bed.engine().id());
  }
  // Measure total, then re-measure the pure handler share on a RunC bed
  // with identical kernel work. Mechanism = total - handler-equivalent.
  SimNanos total = bed.Measure([&] {
    for (int i = 1; i < kPages; ++i) {
      bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true);
    }
  });
  if (sink.active()) {
    bed.ctx().obs().Disable();
    sink.AddConfig(label, total, bed.ctx().obs());
  }
  FaultBreakdown b;
  b.total = static_cast<double>(total) / (kPages - 1);

  const CostModel& c = bed.ctx().cost();
  double handler = static_cast<double>(c.fault_delivery + c.pgfault_handler_core);
  if (kind == RuntimeKind::kHvm) {
    handler += static_cast<double>(c.hvm_guest_handler_extra + c.iret_native);
    if (dep == Deployment::kNested) {
      handler += static_cast<double>(c.hvm_nested_guest_handler_extra);
    }
  } else if (kind == RuntimeKind::kPvm) {
    handler += static_cast<double>(c.pvm_guest_handler_extra);
  } else if (kind == RuntimeKind::kRunc) {
    handler += static_cast<double>(c.iret_native);
  }
  b.handler = handler;
  b.mechanism = b.total - handler;
  return b;
}

SimNanos SyscallNs(RuntimeKind kind, std::string_view label, BenchObsSink& sink) {
  Testbed bed(kind, Deployment::kBareMetal);
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  constexpr int kIters = 128;
  if (sink.active()) {
    sink.EnableHub(bed.ctx().obs());
    bed.ctx().obs().set_owner(bed.engine().id());
  }
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
    }
  });
  if (sink.active()) {
    bed.ctx().obs().Disable();
    sink.AddConfig(label, total, bed.ctx().obs());
  }
  return total / kIters;
}

void Run(BenchObsSink& sink) {
  ReportTable fig10a("Figure 10a: page-fault latency breakdown (ns)", "config",
                     {"total", "pgfault handler", "mechanism (exits/SPT/EPT/KSM)"});
  struct Cfg {
    const char* label;
    RuntimeKind kind;
    Deployment dep;
    const char* paper;
  };
  const Cfg cfgs[] = {
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested, "32565 = 1684 + 30881"},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal, "3257 = 1164 + 2093"},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal, "4407 = 1065 + 1532 + 1828"},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal, "1067 = 990 + 77"},
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal, "1000"},
  };
  for (const Cfg& cfg : cfgs) {
    FaultBreakdown b =
        MeasureFault(cfg.kind, cfg.dep, std::string("fault/") + cfg.label, sink);
    fig10a.AddRow(cfg.label, {b.total, b.handler, b.mechanism});
  }
  sink.Print(fig10a, 0);
  std::cout << "Paper: HVM-NST 32565 (1684+30881), HVM-BM 3257 (1164+2093),\n"
               "PVM 4407 (1065+1532+1828), CKI 1067 (990+77), RunC ~1000.\n\n";

  ReportTable fig10b("Figure 10b: syscall latency (ns)", "config", {"latency"});
  fig10b.AddRow("RunC", {static_cast<double>(SyscallNs(RuntimeKind::kRunc, "syscall/RunC", sink))});
  fig10b.AddRow("HVM", {static_cast<double>(SyscallNs(RuntimeKind::kHvm, "syscall/HVM", sink))});
  fig10b.AddRow("CKI", {static_cast<double>(SyscallNs(RuntimeKind::kCki, "syscall/CKI", sink))});
  fig10b.AddRow("CKI-wo-OPT3", {static_cast<double>(SyscallNs(RuntimeKind::kCkiNoOpt3, "syscall/CKI-wo-OPT3", sink))});
  fig10b.AddRow("CKI-wo-OPT2", {static_cast<double>(SyscallNs(RuntimeKind::kCkiNoOpt2, "syscall/CKI-wo-OPT2", sink))});
  fig10b.AddRow("PVM", {static_cast<double>(SyscallNs(RuntimeKind::kPvm, "syscall/PVM", sink))});
  sink.Print(fig10b, 0);
  std::cout << "Paper: RunC/HVM/CKI ~90, CKI-wo-OPT3 153, CKI-wo-OPT2 238, PVM 336.\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig10_breakdown", cki::kNoMode, cki::Run);
}
