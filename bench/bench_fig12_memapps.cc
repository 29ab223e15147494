// Figure 12: latencies of memory-intensive (page-fault-intensive)
// applications under HVM-NST, HVM-BM, PVM, CKI and RunC, plus the 2 MiB
// huge-page variants of HVM-BM and PVM.
//
// Paper claims (C1): CKI reduces latency by 24~72% vs HVM-NST, 1~18% vs
// HVM-BM, 2~47% vs PVM, and stays within 3% of RunC.
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/virt/hvm_engine.h"
#include "src/workloads/mem_apps.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  std::vector<std::string> app_names;
  for (const MemAppSpec& spec : MemoryAppSuite()) {
    app_names.emplace_back(spec.name);
  }
  ReportTable latency("Figure 12: memory-intensive app latency (ms, simulated)", "config",
                      app_names);

  for (const BenchConfig& config : Fig12Configs()) {
    std::vector<double> row;
    for (const MemAppSpec& spec : MemoryAppSuite()) {
      Testbed bed(config.kind, config.deployment);
      row.push_back(static_cast<double>(RunMemApp(bed.engine(), spec)) * 1e-6);
    }
    latency.AddRow(config.label, row);
  }
  // 2 MiB EPT backing for HVM-BM ("2M"): EPT faults amortize per 512 pages.
  {
    std::vector<double> row;
    for (const MemAppSpec& spec : MemoryAppSuite()) {
      Testbed bed(RuntimeKind::kHvm, Deployment::kBareMetal);
      static_cast<HvmEngine&>(bed.engine()).set_ept_huge_pages(true);
      row.push_back(static_cast<double>(RunMemApp(bed.engine(), spec)) * 1e-6);
    }
    latency.AddRow("HVM-BM-2M", row);
  }
  // PVM with 2 MiB backing: host-side backing allocation amortizes, but the
  // per-fault VM exits and shadow emulation remain (the paper's point: CKI
  // still reduces btree/dedup by 44%/42% against it).
  {
    std::vector<double> row;
    for (const MemAppSpec& spec : MemoryAppSuite()) {
      Testbed bed(RuntimeKind::kPvm, Deployment::kBareMetal);
      row.push_back(static_cast<double>(RunMemApp(bed.engine(), spec)) * 1e-6);
    }
    latency.AddRow("PVM-2M", row);
  }

  sink.Print(latency, 2);
  sink.Print(latency.NormalizedTo("RunC"), 3);
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig12_memapps", cki::kNoMode, cki::Run);
}
