#include "src/virt/libos_engine.h"

#include "src/obs/trace_scope.h"
#include "src/snap/snap_stream.h"

namespace cki {

namespace {
// A libOS "syscall" is a call through a function-pointer table.
constexpr SimNanos kFnCallOverhead = 8;
}  // namespace

LibOsEngine::LibOsEngine(Machine& machine) : ContainerEngine(machine) {
  AllocPcids(16);
}

void LibOsEngine::MapLibOsState() {
  if (state_mapped_) {
    return;
  }
  state_mapped_ = true;
  // The libOS's own bookkeeping lives in the application's address space,
  // user-accessible — that is the design.
  Process& proc = kernel_->current();
  uint64_t page = AllocDataPage();
  kernel_->editor().MapPage(proc.pt_root, kLibOsStateVa, page, kPteP | kPteW | kPteU | kPteNx,
                            0, PageSize::k4K);
  proc.vmas.Insert(Vma{.start = kLibOsStateVa,
                       .end = kLibOsStateVa + kPageSize,
                       .prot = kProtRead | kProtWrite,
                       .kind = VmaKind::kAnon});
}

SyscallResult LibOsEngine::DoUserSyscall(const SyscallRequest& req) {
  // Compatibility limit: a single-process container.
  if (req.no == Sys::kFork || req.no == Sys::kExecve) {
    return {kEINVAL};
  }
  // No ring crossing at all: a function call into the linked libOS.
  SyscallScope obs_scope(ctx_, id_, req.no);
  ctx_.ChargeWork(kFnCallOverhead);
  ctx_.ChargeWork(ctx_.cost().syscall_handler_min);
  return kernel_->HandleSyscall(req);
}

bool LibOsEngine::AppCanTouchLibOsState() {
  MapLibOsState();
  Cpu& cpu = machine_.cpu();
  cpu.set_cpl(Cpl::kUser);
  // Application code writing libOS internals: same address space, user
  // mapping, no protection boundary. It simply works — the weakness.
  Fault f = cpu.Access(kLibOsStateVa, AccessIntent::Write());
  return f.ok();
}

uint64_t LibOsEngine::Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) {
  (void)op;
  (void)a0;
  (void)a1;
  // LibOS -> host requests are host syscalls from the unikernel process.
  TraceScope obs_scope(ctx_, Phase::kHypercall);
  ctx_.RecordEvent(PathEvent::kHypercall);
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  ctx_.ChargeWork(ctx_.cost().hypercall_dispatch);
  ctx_.Charge(ctx_.cost().mode_switch, PathEvent::kModeSwitch);
  return 0;
}

SimNanos LibOsEngine::KickCost() const {
  return 2 * ctx_.cost().mode_switch + ctx_.cost().hypercall_dispatch;
}

SimNanos LibOsEngine::DeviceInterruptCost() const {
  return ctx_.cost().hw_interrupt_delivery;
}

void LibOsEngine::LoadAddressSpace(uint64_t root_pa, uint16_t asid) {
  ctx_.Charge(ctx_.cost().cr3_write_raw, PathEvent::kCr3Switch);
  machine_.cpu().LoadCr3(MakeCr3(root_pa, static_cast<uint16_t>(pcid_base_ + (asid & 0xF))));
}

void LibOsEngine::InvalidatePage(uint64_t va) {
  // The libOS runs in user mode: invlpg would #GP. Memory-management
  // operations are host syscalls underneath (mmap/mprotect), and the host
  // kernel performs the TLB maintenance.
  machine_.cpu().tlb().InvalidatePage(Cr3Pcid(machine_.cpu().cr3()), va);
}

void LibOsEngine::SnapCaptureState(SnapWriter& w) const { w.PutBool(state_mapped_); }

void LibOsEngine::SnapApplyState(SnapReader& r) {
  // The state page travels as an ordinary VMA + leaf in the kernel
  // section; only the "already mapped" latch is engine-side.
  state_mapped_ = r.GetBool();
}

}  // namespace cki
