// Table 4: finish time of TLB-miss-intensive applications (GUPS, BTree
// lookup) in bare-metal. HVM pays the two-dimensional page walk on every
// TLB miss; RunC/PVM/CKI walk one stage (PVM's shadow tables are flat
// one-stage tables, which is why it matches RunC here).
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/virt/hvm_engine.h"
#include "src/workloads/tlb_apps.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  ReportTable table("Table 4: TLB-miss-intensive finish time (ms, simulated)", "app",
                    {"RunC-BM", "HVM-BM", "HVM-BM-2M(EPT)", "PVM-BM", "CKI-BM"});

  auto run_gups = [](RuntimeKind kind, bool huge) {
    Testbed bed(kind, Deployment::kBareMetal);
    if (huge) {
      static_cast<HvmEngine&>(bed.engine()).set_ept_huge_pages(true);
    }
    return static_cast<double>(RunGups(bed.engine()).elapsed) * 1e-6;
  };
  auto run_btree = [](RuntimeKind kind, bool huge) {
    Testbed bed(kind, Deployment::kBareMetal);
    if (huge) {
      static_cast<HvmEngine&>(bed.engine()).set_ept_huge_pages(true);
    }
    return static_cast<double>(RunBtreeLookup(bed.engine()).elapsed) * 1e-6;
  };

  table.AddRow("GUPS", {run_gups(RuntimeKind::kRunc, false), run_gups(RuntimeKind::kHvm, false),
                        run_gups(RuntimeKind::kHvm, true), run_gups(RuntimeKind::kPvm, false),
                        run_gups(RuntimeKind::kCki, false)});
  table.AddRow("BTree-Lookup",
               {run_btree(RuntimeKind::kRunc, false), run_btree(RuntimeKind::kHvm, false),
                run_btree(RuntimeKind::kHvm, true), run_btree(RuntimeKind::kPvm, false),
                run_btree(RuntimeKind::kCki, false)});
  sink.Print(table, 2);
  std::cout << "Paper (s): GUPS 54.9 / 67.8|67.1 / 54.9 / 55.1;\n"
               "BTree-Lookup 22.6 / 24.1|24.2 / 21.7 / 22.6.\n"
               "Shape: HVM ~19-23% slower on GUPS (2-D walk), ~6% on BTree;\n"
               "EPT huge pages do not remove the 2-D walk cost.\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_table4_tlb", cki::kNoMode, cki::Run);
}
