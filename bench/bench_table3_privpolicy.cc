// Table 3: the privileged-instruction policy of the CKI hardware extension,
// verified live against a booted CKI container — each instruction is
// actually executed on the simulated CPU with PKRS = PKRS_GUEST and the
// observed behavior (blocked / allowed) must match the table.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/cki/priv_policy.h"
#include "src/runtime/runtime.h"

namespace cki {
namespace {

// Prints the text table (it carries strategy and note strings) and records
// its 0/1 columns as a ReportTable for --json-out.
void Run(BenchObsSink& sink) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  Cpu& cpu = bed.machine().cpu();
  cpu.set_cpl(Cpl::kKernel);  // the deprivileged guest kernel: ring 0, PKRS != 0

  std::printf("== Table 3: privileged instructions in the CKI guest kernel ==\n");
  std::printf("%-16s %-8s %-18s %-10s %s\n", "instruction", "blocked", "virtualized via",
              "observed", "note");
  ReportTable json_table("Table 3: privileged instructions in the CKI guest kernel",
                         "instruction", {"blocked", "observed blocked"});
  int mismatches = 0;
  for (const PrivPolicyEntry& e : PrivPolicyTable()) {
    Fault f = cpu.ExecPriv(e.instr);
    bool observed_blocked = (f.type == FaultType::kPrivInstrBlocked);
    if (observed_blocked != e.blocked) {
      mismatches++;
    }
    json_table.AddRow(std::string(PrivInstrName(e.instr)),
                      {e.blocked ? 1.0 : 0.0, observed_blocked ? 1.0 : 0.0});
    std::printf("%-16.*s %-8s %-18.*s %-10s %.*s\n",
                static_cast<int>(PrivInstrName(e.instr).size()), PrivInstrName(e.instr).data(),
                e.blocked ? "yes" : "no",
                static_cast<int>(PrivStrategyName(e.strategy).size()),
                PrivStrategyName(e.strategy).data(), observed_blocked ? "trapped" : "executed",
                static_cast<int>(e.note.size()), e.note.data());
  }
  std::printf("\npolicy/hardware mismatches: %d (must be 0)\n", mismatches);
  sink.AddTable(json_table);
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_table3_privpolicy", cki::kNoMode, cki::Run);
}
