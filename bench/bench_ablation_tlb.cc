// Ablation: one- vs two-dimensional page-walk cost as the working set
// scales past TLB reach — the mechanism behind Table 4. Sweeps the table
// size and reports per-access cost and TLB miss rate for 1-stage (CKI/RunC)
// vs 2-stage (HVM) translation.
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"
#include "src/sim/rng.h"
#include "src/workloads/tlb_apps.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  const int sizes[] = {256, 512, 1024, 4096, 16384, 65536};  // pages
  std::vector<std::string> cols;
  for (int s : sizes) {
    cols.push_back(std::to_string(s * 4 / 1024) + "MiB");
  }
  ReportTable cost("TLB ablation: ns per random access vs working set", "config", cols);
  ReportTable miss("TLB ablation: miss rate (%)", "config", cols);

  for (RuntimeKind kind : {RuntimeKind::kRunc, RuntimeKind::kHvm, RuntimeKind::kCki}) {
    std::vector<double> cost_row;
    std::vector<double> miss_row;
    for (int pages : sizes) {
      Testbed bed(kind, Deployment::kBareMetal);
      TlbAppResult r = RunGups(bed.engine(), /*updates=*/50000, pages);
      cost_row.push_back(static_cast<double>(r.elapsed) / 50000.0);
      double total = static_cast<double>(r.tlb_misses + r.tlb_hits);
      miss_row.push_back(total > 0 ? 100.0 * static_cast<double>(r.tlb_misses) / total : 0);
    }
    cost.AddRow(std::string(RuntimeKindName(kind)), cost_row);
    miss.AddRow(std::string(RuntimeKindName(kind)), miss_row);
  }
  sink.Print(cost, 1);
  sink.Print(miss, 1);
  std::cout << "Expected: costs converge while the set fits the TLB; once misses\n"
               "dominate, HVM pays the 24-reference 2-D walk vs 4 references (1-D).\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ablation_tlb", cki::kNoMode, cki::Run);
}
