// Figure 11: lmbench micro-operations under RunC, HVM, CKI, PVM
// (bare-metal), normalized to RunC. Expected shape: HVM ~= RunC (no VM
// exits on these paths); PVM pays syscall redirection (short syscalls ~2x),
// shadow paging (page fault, fork), and hypercall-based context switching;
// CKI adds only cheap KSM calls.
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/workloads/lmbench.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  std::vector<std::string> op_names;
  for (LmbenchOp op : LmbenchSuite()) {
    op_names.emplace_back(LmbenchOpName(op));
  }
  ReportTable latency("Figure 11: lmbench latency (ns)", "config", op_names);

  for (const BenchConfig& config : BareMetalConfigs()) {
    std::vector<double> row;
    for (LmbenchOp op : LmbenchSuite()) {
      // Fresh testbed per op: fork-based ops leave extra processes behind.
      Testbed bed(config.kind, config.deployment);
      row.push_back(static_cast<double>(RunLmbenchOp(bed.engine(), op)));
    }
    latency.AddRow(config.label, row);
  }
  sink.Print(latency, 0);
  sink.Print(latency.NormalizedTo("RunC"), 2);
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig11_lmbench", cki::kNoMode, cki::Run);
}
