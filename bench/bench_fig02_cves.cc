// Figure 2: Linux kernel CVEs exploitable by containers (2022-2023),
// classified by security effect, with the DoS share that motivates
// kernel-separation (VM-level) containers over kernel-sharing (enclave)
// containers.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/workloads/cve_data.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  ReportTable table("Figure 2: container-exploitable Linux CVEs (209 total)", "effect",
                    {"count", "share %", "DoS", "contained: kernel-sep", "contained: enclave"});
  int total = 0;
  for (const CveClass& c : CveClasses()) {
    total += c.count;
  }
  for (const CveClass& c : CveClasses()) {
    table.AddRow(std::string(c.effect),
                 {static_cast<double>(c.count),
                  100.0 * static_cast<double>(c.count) / static_cast<double>(total),
                  c.dos_capable ? 1.0 : 0.0, ContainedByKernelSeparation(c) ? 1.0 : 0.0,
                  ContainedByKernelSharing(c) ? 1.0 : 0.0});
  }
  sink.Print(table, 1);
  std::printf("DoS-capable share: %.1f%% (paper: 97.3%%)\n", DosShare() * 100.0);
  std::printf("Kernel separation contains all %d classes; kernel sharing contains only the\n"
              "non-DoS class (information leakage).\n",
              static_cast<int>(CveClasses().size()));
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig02_cves", cki::kNoMode, cki::Run);
}
