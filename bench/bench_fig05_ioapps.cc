// Figure 5 (motivation): I/O-intensive application throughput of existing
// secure containers vs RunC-BM. Headline: nested HVM degrades I/O-intensive
// applications by 1.8x~4.3x relative to PVM (which avoids L0 exits).
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/workloads/io_apps.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  std::vector<std::string> app_names;
  for (const IoAppSpec& spec : IoAppSuite()) {
    app_names.emplace_back(spec.name);
  }
  ReportTable tput("Figure 5: motivation, I/O-intensive throughput (req/s)", "config", app_names);

  for (const BenchConfig& config : MotivationConfigs()) {
    std::vector<double> row;
    for (const IoAppSpec& spec : IoAppSuite()) {
      Testbed bed(config.kind, config.deployment);
      row.push_back(RunIoApp(bed.engine(), spec));
    }
    tput.AddRow(config.label, row);
  }
  sink.Print(tput, 0);
  sink.Print(tput.NormalizedTo("RunC-BM", /*invert=*/true), 3);

  // The paper's PVM-vs-HVM nested ratio (1.8x ~ 4.3x).
  std::cout << "HVM-NST vs PVM-NST throughput ratio (PVM/HVM):\n";
  for (size_t i = 0; i < tput.columns().size(); ++i) {
    double hvm = tput.ValueAt("HVM-NST", i);
    double pvm = tput.ValueAt("PVM-NST", i);
    std::cout << "  " << tput.columns()[i] << ": " << (hvm > 0 ? pvm / hvm : 0) << "x\n";
  }
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig05_ioapps", cki::kNoMode, cki::Run);
}
