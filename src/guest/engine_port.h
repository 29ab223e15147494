// The seam between the (shared) model guest kernel and the container engine
// it runs under. Every privileged effect of the guest kernel — page-table
// stores, physical page allocation, host invocations, address-space loads —
// flows through this interface, and each container design (RunC, HVM, PVM,
// CKI) implements it with its own mechanism and cost:
//
//               StorePte            LoadAddressSpace      Hypercall
//   RunC/HVM    direct store        mov cr3               n/a / vmcall exit
//   PVM         VM exit + shadow-   hypercall + shadow    exit round trip
//               PTE emulation       root switch
//   CKI         KSM call checked    KSM call validating   switcher (PKS +
//               by the PTP monitor  the declared root     CR3, no L0)
//
// ContainerEngine (src/runtime/engine.h) implements the page-table and
// physical-memory hooks once for identity-mapped designs (guest PA == host
// PA, native PTE store, host frame allocator, invlpg). RunC, gVisor and
// LibOS use those defaults; HVM, PVM and CKI override them. How a user
// fault reaches the guest kernel is not part of this seam: each engine's
// OnTouchFault hook delivers it from ContainerEngine's shared touch loop.
#ifndef SRC_GUEST_ENGINE_PORT_H_
#define SRC_GUEST_ENGINE_PORT_H_

#include <cstdint>
#include <string_view>

namespace cki {

// Host services reachable via hypercall (the paravirtual interface).
enum class HypercallOp : uint8_t {
  kNop = 0,        // empty hypercall (microbenchmarks)
  kPauseVcpu,      // hlt replacement
  kSetTimer,       // wrmsr(TSC_DEADLINE) replacement
  kSendIpi,        // wrmsr(ICR) replacement
  kVirtioKick,     // queue notification (MMIO replacement in CKI)
  kYield,
  kLogByte,        // debug console
  kCount,
};

std::string_view HypercallOpName(HypercallOp op);

// Returned by the page-allocation hooks when the engine's memory budget is
// exhausted: the guest kernel propagates ENOMEM instead of the machine
// aborting. 0 cannot serve as the sentinel — it is a valid guest PA.
inline constexpr uint64_t kNoPage = ~0ull;

class EnginePort {
 public:
  virtual ~EnginePort() = default;

  // --- page tables -----------------------------------------------------
  // Reads/stores a guest page-table entry. Addresses are in the guest's
  // physical space (hPA for RunC/CKI, gPA for HVM/PVM).
  virtual uint64_t ReadPte(uint64_t pte_pa) = 0;
  virtual bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) = 0;

  // Brackets a bulk page-table operation (fork, exec, exit, munmap of a
  // range). Engines may batch their mechanism: PVM amortizes VM exits over
  // the batch, CKI holds the KSM gate open across the stores.
  virtual void BeginPteBatch() {}
  virtual void EndPteBatch() {}

  // --- physical memory ---------------------------------------------------
  // Allocates/frees one zeroed data page, returning its guest-visible PA.
  virtual uint64_t AllocDataPage() = 0;
  virtual void FreeDataPage(uint64_t pa) = 0;
  // Allocates a 2 MiB-aligned contiguous run backing a huge mapping.
  // Only meaningful when huge_pages_enabled().
  virtual uint64_t AllocDataHugePage() { return 0; }
  // Allocates a page-table page. Under CKI this *declares* the PTP to the
  // monitor (type + level recorded, PTE re-keyed to the PTP domain).
  virtual uint64_t AllocPtp(int level) = 0;
  // Releases a page-table page on address-space teardown (undeclared
  // under CKI after the monitor checks it is no longer referenced).
  virtual void FreePtp(uint64_t pa, int level) = 0;

  // Whether the configuration backs VM memory with 2 MiB mappings
  // (the "2M" variants in Figure 12 / Table 4).
  virtual bool huge_pages_enabled() const { return false; }

  // --- control ---------------------------------------------------------
  // Invokes host-kernel functionality. Returns an op-defined value.
  virtual uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) = 0;

  // Switches to another process's address space (the guest's CR3 load).
  virtual void LoadAddressSpace(uint64_t root_pa, uint16_t asid) = 0;

  // Flushes one page translation after an unmap/protect (invlpg — directly
  // executable in every design; PCID confines it to the container).
  virtual void InvalidatePage(uint64_t va) = 0;

  // --- copy-on-write clones (src/snap) ---------------------------------
  // True when the frame at guest-visible `pa` is shared with another
  // container (a CoW clone sibling). The kernel's CoW fault path must
  // then copy even if its own refcount says "sole owner".
  virtual bool FrameShared(uint64_t pa) const {
    (void)pa;
    return false;
  }

  // Shootdown after breaking cross-container sharing at `va`: flushes the
  // page across the whole container's PCID range (engines charge the IPI
  // cost). Defaults to a plain single-PCID invalidation.
  virtual void CowBreakShootdown(uint64_t va) { InvalidatePage(va); }
};

}  // namespace cki

#endif  // SRC_GUEST_ENGINE_PORT_H_
