// The closed span-phase vocabulary.
//
// Every TraceScope opens one of these phases, so the span tree, the
// exporters, the tests and the DESIGN.md §6 taxonomy all share one table.
// Ids [0, Sys::kCount) are the per-syscall guest-handler phases (named by
// kSysNames, reached through SysPhase); the named phases follow. The
// static_assert makes adding a Phase without naming it a compile error
// (same pattern as kSysNames and kPathEventNames), and
// tools/check_markdown.py checks DESIGN.md against kPhaseNames.
//
// Phase names are an API: renaming one changes every exported trace and
// span JSON, so treat renames as breaking changes.
#ifndef SRC_OBS_PHASE_H_
#define SRC_OBS_PHASE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/guest/syscall.h"

namespace cki {

enum class Phase : uint16_t {
  // Engine roots.
  kSyscall = static_cast<uint16_t>(Sys::kCount),
  kTouch,
  kHypercall,
  kFault,
  // Mechanism phases.
  kKsmRoundtrip,
  kKsmStorePte,
  kGateHypercall,
  kGateHwInterrupt,
  kSptFill,
  kSptEmulate,
  kEptViolation,
  // Guest kernel.
  kMmFaultIn,
  kMmCloneCow,
  kMmTeardown,
  // Hardware.
  kMmuPageWalk,
  // Host.
  kVirtioDeliver,
  kVcpuSlice,
  // Fault domains.
  kFaultKill,
  kFaultReclaim,
  // Network.
  kNetHop,
  kNicKick,
  kNicFlush,
  kNicIrq,
  kLoadgenSubmit,
  kLoadgenOpenloop,
  // Workloads.
  kChainSetup,
  kChainClient,
  kChainProxy,
  kChainBackend,
  kKvApp,
  kCount,
};

// Names of the named phases, indexed by id - Sys::kCount.
inline constexpr auto kPhaseNames = std::to_array<std::string_view>({
    "syscall",
    "touch",
    "hypercall",
    "fault",
    "ksm/roundtrip",
    "ksm/store_pte",
    "gate/hypercall",
    "gate/hw_interrupt",
    "spt/fill",
    "spt/emulate",
    "ept/violation",
    "mm/fault_in",
    "mm/clone_cow",
    "mm/teardown",
    "mmu/page_walk",
    "virtio/deliver",
    "vcpu/slice",
    "fault/kill",
    "fault/reclaim",
    "net/hop",
    "nic/kick",
    "nic/flush",
    "nic/irq",
    "loadgen/submit",
    "loadgen/openloop",
    "chain/setup",
    "chain/client",
    "chain/proxy",
    "chain/backend",
    "kv/app",
});
static_assert(kPhaseNames.size() == static_cast<size_t>(Phase::kCount) - kSysNames.size(),
              "every Phase from kSyscall up to kCount must have a name in kPhaseNames");

// The guest handler phase of syscall `s`; an out-of-range `s` maps to an
// id past the table, which PhaseName reports as "unknown".
constexpr Phase SysPhase(Sys s) {
  return s < Sys::kCount ? static_cast<Phase>(s) : Phase::kCount;
}

constexpr std::string_view PhaseName(Phase p) {
  size_t i = static_cast<size_t>(p);
  if (i < kSysNames.size()) {
    return kSysNames[i];
  }
  i -= kSysNames.size();
  return i < kPhaseNames.size() ? kPhaseNames[i] : std::string_view("unknown");
}

}  // namespace cki

#endif  // SRC_OBS_PHASE_H_
