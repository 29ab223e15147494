// Ablation: side-channel mitigation costs (PTI + IBRS). The paper's KSM
// gate carries no mitigation because only container-private data is mapped
// in the KSM (section 3.3, citing the unmapped speculation contract). This
// bench re-runs the microbenchmarks with mitigations disabled to show who
// was paying for them.
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"

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

SimNanos HypercallNs(Testbed& bed) {
  constexpr int kIters = 64;
  SimNanos total = bed.Measure([&] {
    for (int i = 0; i < kIters; ++i) {
      bed.engine().GuestHypercall(HypercallOp::kNop);
    }
  });
  return total / kIters;
}

void Run(BenchObsSink& sink) {
  CostModel mitigated = CostModel::Calibrated();
  CostModel bare = mitigated;
  bare.pti_overhead = 0;
  bare.ibrs_overhead = 0;

  ReportTable table("Side-channel mitigation ablation (ns)", "metric",
                    {"mitigated", "PTI/IBRS off", "delta"});

  auto add = [&](const std::string& label, RuntimeKind kind, bool hypercall) {
    Testbed with(kind, Deployment::kBareMetal, mitigated);
    Testbed without(kind, Deployment::kBareMetal, bare);
    double a = static_cast<double>(hypercall ? HypercallNs(with) : SyscallNs(with));
    double b = static_cast<double>(hypercall ? HypercallNs(without) : SyscallNs(without));
    table.AddRow(label, {a, b, a - b});
  };

  add("PVM syscall", RuntimeKind::kPvm, false);
  add("CKI syscall", RuntimeKind::kCki, false);
  add("PVM hypercall", RuntimeKind::kPvm, true);
  add("CKI hypercall", RuntimeKind::kCki, true);
  sink.Print(table, 0);
  std::cout << "PVM pays PTI+IBRS on every syscall (two mitigated CR3 switches);\n"
               "CKI's syscall path has no switches at all, so mitigation settings\n"
               "cannot touch it — only its host-bound hypercalls see the delta.\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ablation_mitigations", cki::kNoMode, cki::Run);
}
