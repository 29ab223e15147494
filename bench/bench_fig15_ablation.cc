// Figure 15: breakdown of CKI's syscall optimizations on SQLite — overhead
// (%) vs unmodified CKI for PVM, CKI-wo-OPT2 (page-table switches added)
// and CKI-wo-OPT3 (sysret/swapgs blocked).
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/workloads/sqlite_bench.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  std::vector<std::string> pattern_names;
  for (const SqlitePattern& p : SqliteSuite()) {
    pattern_names.emplace_back(p.name);
  }
  ReportTable overhead("Figure 15: syscall-optimization ablation, overhead vs CKI (%)", "config",
                       pattern_names);

  // Baseline: unmodified CKI.
  std::vector<double> cki_tput;
  for (const SqlitePattern& p : SqliteSuite()) {
    Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
    cki_tput.push_back(RunSqlitePattern(bed.engine(), p).ops_per_sec);
  }

  const std::vector<BenchConfig> configs = {
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"CKI-wo-OPT2", RuntimeKind::kCkiNoOpt2, Deployment::kBareMetal},
      {"CKI-wo-OPT3", RuntimeKind::kCkiNoOpt3, Deployment::kBareMetal},
  };
  for (const BenchConfig& config : configs) {
    std::vector<double> row;
    size_t i = 0;
    for (const SqlitePattern& p : SqliteSuite()) {
      Testbed bed(config.kind, config.deployment);
      double tput = RunSqlitePattern(bed.engine(), p).ops_per_sec;
      row.push_back((cki_tput[i] / tput - 1.0) * 100.0);
      i++;
    }
    overhead.AddRow(config.label, row);
  }
  sink.Print(overhead, 1);
  std::cout << "Paper: PVM 24/17/23/22/22/1/0; CKI-wo-OPT2 15/1/15/13/12/1/1;\n"
               "CKI-wo-OPT3 9/0/8/5/6/0/0 (%).\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig15_ablation", cki::kNoMode, cki::Run);
}
