// Base class for container engines. An engine binds a model guest kernel to
// one of the four isolation mechanisms (RunC, HVM, PVM, CKI) on a shared
// Machine, implements the EnginePort seam with that design's mechanism and
// costs, and exposes the user-visible operations the workloads drive.
//
// Every engine is also a fault domain: the public entry points are
// non-virtual wrappers that refuse work once the container has been killed
// and convert the ContainerKilled unwind of this engine's own faults into
// an error return — so a fault in one container can never take down the
// caller, the Machine, or a neighbor engine.
#ifndef SRC_RUNTIME_ENGINE_H_
#define SRC_RUNTIME_ENGINE_H_

#include <memory>
#include <string_view>

#include "src/guest/engine_port.h"
#include "src/guest/guest_kernel.h"
#include "src/host/machine.h"

namespace cki {

class FaultInjector;
class SnapReader;
class SnapWriter;

enum class TouchResult : uint8_t { kOk, kSegv, kKilled };

// What an engine's fault hook tells the shared user-touch loop to do next.
enum class TouchStep : uint8_t { kRetry, kSegv };

// The evaluated container designs (lives here so engines can name their
// own kind; runtime.h builds its factory over the same enum).
enum class RuntimeKind : uint8_t {
  kRunc = 0,    // OS-level container
  kHvm,         // Kata-style, hardware virtualization
  kPvm,         // software virtualization (shadow paging)
  kCki,         // this paper
  kCkiNoOpt2,   // ablation: + page-table switches on syscalls
  kCkiNoOpt3,   // ablation: sysret/swapgs blocked
  kGvisor,      // userspace kernel (Systrap redirection)
  kLibOs,       // process-like library OS (no U/K isolation)
};

class ContainerEngine : public EnginePort {
 public:
  // `touch_attempts` bounds the user-touch loop (see UserTouch): 4 for
  // single-stage designs; two-stage designs (HVM, PVM) pass 6, since a
  // fresh page can fault in both stages before the access completes.
  explicit ContainerEngine(Machine& machine, int touch_attempts = 4)
      : machine_(machine),
        ctx_(machine.ctx()),
        id_(machine.AllocOwnerId()),
        touch_attempts_(touch_attempts) {}
  ~ContainerEngine() override;

  ContainerEngine(const ContainerEngine&) = delete;
  ContainerEngine& operator=(const ContainerEngine&) = delete;

  virtual std::string_view name() const = 0;

  // Which evaluated design this engine implements (checkpoint streams
  // record it so Restore can rebuild the right engine anywhere).
  virtual RuntimeKind kind() const = 0;

  // Boots the container: registers its fault domain, then engine-specific
  // setup, then the guest kernel and its init process.
  virtual void Boot();

  GuestKernel& kernel() { return *kernel_; }
  Machine& machine() { return machine_; }
  OwnerId id() const { return id_; }
  bool nested() const { return machine_.nested(); }

  // False once this container's fault domain has killed it.
  bool alive() const { return !killed_; }
  // Base/size of this engine's hardware PCID range (TLB-isolation tests
  // and the clone path's cross-address-space shootdowns).
  uint16_t pcid_base() const { return pcid_base_; }
  uint16_t pcid_count() const { return pcid_count_; }

  // Arms deterministic fault injection on this engine's guest-facing
  // paths (PKS violations on touches; engines add their own sites).
  void set_injector(FaultInjector* injector) { injector_ = injector; }

  // Kills this container in place: engine hook, guest process teardown,
  // PCID-range TLB flush, frame reclamation. Idempotent; never throws.
  // Invoked by the fault domain handler and directly by chaos drivers.
  void KillFromFault();

  // --- user-visible operations (what workloads drive) -----------------------
  // A syscall from the current container process, through the design's full
  // entry/exit path. Returns kEKILLED once the container is dead.
  SyscallResult UserSyscall(const SyscallRequest& req);

  // A user-mode memory access, through the MMU; faults are carried through
  // the design's full delivery/handling/return path.
  //
  // The base class owns the touch loop: it opens the "touch" scope, sets
  // cpl := user and retries Access; a clean access is kOk, a fault goes to
  // the engine's OnTouchFault hook. After `touch_attempts` faulting
  // accesses the touch is a segv.
  //
  // Clean-hit fast path (DESIGN.md §14): because every engine shares that
  // {touch scope, cpl := user, Access} prologue, a committed TLB hit with
  // no fault is bit-identical to the full path whenever observability is
  // disabled (the touch span is the only thing the full path would add,
  // and a disabled hub records nothing). A live injector, a killed
  // container, an enabled hub, a miss, or any fault falls through to the
  // full path — which re-runs the access from scratch, side effects
  // untouched (TryUserTouchFast commits nothing on failure).
  TouchResult UserTouch(uint64_t va, bool write) {
    if (!killed_ && injector_ == nullptr && !ctx_.obs().enabled()) {
      Cpu& cpu = machine_.cpu();
      cpu.set_cpl(Cpl::kUser);
      if (cpu.TryUserTouchFast(va, write ? AccessIntent::Write() : AccessIntent::Read())) {
        return TouchResult::kOk;
      }
    }
    return UserTouchSlow(va, write);
  }

  // A guest-kernel-level request to the host (the "empty hypercall" of the
  // microbenchmarks), through the engine's EnginePort::Hypercall. RunC has
  // no hypervisor, so its engine returns 0 cost.
  uint64_t GuestHypercall(HypercallOp op, uint64_t a0 = 0, uint64_t a1 = 0);

  // --- virtio path primitives (I/O workloads) -------------------------------
  // Cost of one queue notification from guest to host (doorbell).
  virtual SimNanos KickCost() const = 0;
  // Cost of delivering one device interrupt to the guest (host -> guest).
  virtual SimNanos DeviceInterruptCost() const = 0;
  // Cost of acknowledging a device interrupt (EOI / queue-unmask write)
  // once the guest drains the RX ring. For virtualized designs the write
  // traps like a doorbell; RunC overrides this to 0.
  virtual SimNanos InterruptAckCost() const { return KickCost(); }
  // Extra per-request device-emulation work of this design's virtio stack.
  virtual SimNanos VirtioEmulationExtra() const { return 0; }

  // Convenience: allocate + populate an anonymous user mapping and return
  // its base VA (drives mmap through the syscall path).
  uint64_t MmapAnon(uint64_t bytes, bool populate);

  // --- snapshot hooks (src/snap; DESIGN.md §10) -------------------------
  // Engine construction parameters, captured into / applied from the
  // stream's config blob. Apply runs on a fresh engine BEFORE Boot().
  virtual void SnapCaptureConfig(SnapWriter& w) const { (void)w; }
  virtual void SnapApplyConfig(SnapReader& r) { (void)r; }
  // Mutable engine state (virtual IF, pending virqs, ...), captured after
  // the kernel section and applied after the kernel has been rebuilt.
  virtual void SnapCaptureState(SnapWriter& w) const { (void)w; }
  virtual void SnapApplyState(SnapReader& r) { (void)r; }

  // Host PA backing the guest-visible `pa`; identity for designs without
  // a second translation stage. kNoPage when no backing exists yet (lazy
  // HVM/PVM pages — their content is all-zero by construction).
  virtual uint64_t HostFrameFor(uint64_t pa) const { return pa; }
  // Like HostFrameFor but materializes missing backing (restore fill-in).
  virtual uint64_t EnsureHostFrame(uint64_t pa) { return pa; }

  // Clone support: registers this engine as a sharer of `host_pa` and
  // returns the guest-visible PA it must be mapped under. HVM/PVM mint a
  // fresh gPA wired to the shared host frame.
  virtual uint64_t AdoptSharedFrame(uint64_t host_pa);

  // --- EnginePort -------------------------------------------------------
  // Identity-mapped defaults (the guest-visible PA is the host PA): native
  // PTE reads and charged stores, data pages and page-table pages straight
  // from the host allocator, and invlpg. RunC and gVisor use all of them.
  // HVM and PVM override everything but InvalidatePage with their second
  // translation stage; CKI overrides everything but ReadPte and
  // InvalidatePage with its monitor (PTPs stay readable by the guest,
  // read-only under pkey_PTP); LibOS overrides InvalidatePage only.
  uint64_t ReadPte(uint64_t pte_pa) override;
  bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) override;
  uint64_t AllocDataPage() override;
  void FreeDataPage(uint64_t pa) override;
  uint64_t AllocPtp(int level) override;
  void FreePtp(uint64_t pa, int level) override;
  void InvalidatePage(uint64_t va) override;

  // CoW sharing; see engine_port.h.
  bool FrameShared(uint64_t pa) const override;
  void CowBreakShootdown(uint64_t va) override;

 protected:
  // First line of every engine's FreeDataPage: true when `pa` was a
  // cross-container shared frame whose release the allocator handled
  // (share dropped or primacy transferred) — the engine must NOT recycle
  // it into any free list.
  bool ReleaseSharedDataFrame(uint64_t pa);

  // Design-specific syscall path behind the fault-domain wrapper.
  virtual SyscallResult DoUserSyscall(const SyscallRequest& req) = 0;
  // Handles fault `f` of the user touch of `va` the way this design
  // delivers it: kRetry re-runs the access, kSegv ends the touch. Runs
  // with cpl == user and must leave it so on kRetry.
  virtual TouchStep OnTouchFault(const Fault& f, uint64_t va, bool write) = 0;
  // Native fault delivery, the OnTouchFault of RunC, LibOS and gVisor: a
  // not-present or protection fault goes straight into the kernel handler
  // (after `handler_extra` of design-specific work) and irets back; any
  // other fault is a segv.
  TouchStep DeliverFaultNatively(const Fault& f, uint64_t va, bool write,
                                 SimNanos handler_extra);

  // Engine-specific teardown run first on a kill (drop monitor state,
  // shadow roots, ...). Must not call back into guest code.
  virtual void OnKill() {}

  // Claims this engine's hardware PCID range (recorded so the kill path
  // can flush exactly this container's TLB contexts).
  void AllocPcids(uint16_t count) {
    pcid_base_ = machine_.AllocPcidRange(count);
    pcid_count_ = count;
  }

  Machine& machine_;
  SimContext& ctx_;
  OwnerId id_;
  std::unique_ptr<GuestKernel> kernel_;
  uint16_t pcid_base_ = 0;
  uint16_t pcid_count_ = 0;
  FaultInjector* injector_ = nullptr;

 private:
  // The full fault-domain path: injector hook, the touch loop with its
  // OnTouchFault dispatch, ContainerKilled unwind. Misses and faults take
  // this route.
  TouchResult UserTouchSlow(uint64_t va, bool write);

  const int touch_attempts_;
  bool killed_ = false;
};

}  // namespace cki

#endif  // SRC_RUNTIME_ENGINE_H_
