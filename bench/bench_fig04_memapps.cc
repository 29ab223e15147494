// Figure 4 (motivation): memory-intensive application latency of existing
// secure containers vs OS-level containers — HVM and PVM, bare-metal and
// nested, normalized to RunC-BM. The paper's headline: nested HVM degrades
// memory-intensive applications by 28%~226%.
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/workloads/mem_apps.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  std::vector<std::string> app_names;
  for (const MemAppSpec& spec : MemoryAppSuite()) {
    app_names.emplace_back(spec.name);
  }
  ReportTable latency("Figure 4: motivation, memory-intensive latency (ms)", "config", app_names);

  for (const BenchConfig& config : MotivationConfigs()) {
    std::vector<double> row;
    for (const MemAppSpec& spec : MemoryAppSuite()) {
      Testbed bed(config.kind, config.deployment);
      row.push_back(static_cast<double>(RunMemApp(bed.engine(), spec)) * 1e-6);
    }
    latency.AddRow(config.label, row);
  }
  sink.Print(latency, 2);
  sink.Print(latency.NormalizedTo("RunC-BM"), 3);
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig04_memapps", cki::kNoMode, cki::Run);
}
