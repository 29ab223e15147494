// CKI: the paper's contribution. The guest kernel runs in kernel mode
// inside a new, PKS-defined privilege level:
//   * syscalls/exceptions enter it directly (no redirection, no page-table
//     switch: guest kernel memory is mapped U/K-isolated in the user space);
//   * there is no second translation stage — the host delegates contiguous
//     host-physical segments and the guest fills hPAs into its own PTEs,
//     with every update validated by the KSM through a fast PKS gate;
//   * privileged instructions are blocked in hardware while PKRS != 0 and
//     virtualized via KSM calls / hypercalls (Table 3);
//   * hardware interrupts reach the host through forgery-proof gates.
#ifndef SRC_CKI_CKI_ENGINE_H_
#define SRC_CKI_CKI_ENGINE_H_

#include <memory>

#include "src/cki/binary_rewriter.h"
#include "src/cki/gates.h"
#include "src/cki/ksm.h"
#include "src/runtime/engine.h"

namespace cki {

// Syscall-path ablations of section 7.1 (Figure 10b / 15).
enum class CkiAblation : uint8_t {
  kNone = 0,
  kNoOpt2,  // adds two page-table switches to every syscall
  kNoOpt3,  // blocks sysret/swapgs: two PKS switches per syscall
};

class CkiEngine : public ContainerEngine {
 public:
  explicit CkiEngine(Machine& machine, CkiAblation ablation = CkiAblation::kNone,
                     uint64_t segment_pages = 1ull << 19,  // 2 GiB default
                     int n_vcpus = 1);

  std::string_view name() const override;
  RuntimeKind kind() const override {
    switch (ablation_) {
      case CkiAblation::kNoOpt2:
        return RuntimeKind::kCkiNoOpt2;
      case CkiAblation::kNoOpt3:
        return RuntimeKind::kCkiNoOpt3;
      case CkiAblation::kNone:
        break;
    }
    return RuntimeKind::kCki;
  }

  void Boot() override;

  // --- snapshot hooks --------------------------------------------------
  // Config: segment size + vCPU count (the ablation is the kind itself).
  // State: virtual-IF latch, deferred virq queue, selected vCPU.
  void SnapCaptureConfig(SnapWriter& w) const override;
  void SnapApplyConfig(SnapReader& r) override;
  void SnapCaptureState(SnapWriter& w) const override;
  void SnapApplyState(SnapReader& r) override;

  SimNanos KickCost() const override;
  SimNanos DeviceInterruptCost() const override;

  Ksm& ksm() { return *ksm_; }
  Gates& gates() { return *gates_; }
  BinaryRewriter& rewriter() { return rewriter_; }
  const PhysSegment& segment() const { return segment_; }

  // Delivers one hardware device interrupt through the real gate path
  // (tests use this; I/O workloads use DeviceInterruptCost()).
  bool DeliverHardwareInterrupt(uint8_t vector);

  // Migrates execution to vCPU `vcpu`: the KSM loads that vCPU's copy of
  // the current top-level PTP, so the same thread finds its per-vCPU area
  // at the same constant VA backed by different physical memory (Fig 8c).
  bool SelectVcpu(int vcpu);
  int current_vcpu() const { return current_vcpu_; }
  int n_vcpus() const { return n_vcpus_; }

  // --- para-virtual interrupt state (Table 3: STI/CLI/POPF) -----------------
  // The guest cannot execute cli/sti; it maintains its interrupt-enabled
  // state as an in-memory bit visible to the host. The host defers
  // *virtual* interrupt injection while the bit is clear — but hardware
  // interrupts still reach the host (that is the DoS guarantee).
  void GuestSetVirtualIf(bool enabled);
  bool virtual_if() const { return virtual_if_; }
  // Queues a virtual interrupt for the guest; injects immediately when the
  // virtual IF allows, otherwise defers until GuestSetVirtualIf(true).
  // Returns true if the interrupt was injected (vs deferred).
  bool InjectVirq(uint8_t vector);
  size_t pending_virqs() const { return pending_virqs_.size(); }
  uint64_t delivered_virqs() const { return delivered_virqs_; }

  // --- EnginePort ------------------------------------------------------
  bool StorePte(uint64_t pte_pa, uint64_t value, int level, uint64_t va) override;
  void BeginPteBatch() override;
  void EndPteBatch() override;
  uint64_t AllocDataPage() override;
  void FreeDataPage(uint64_t pa) override;
  uint64_t AllocPtp(int level) override;
  void FreePtp(uint64_t pa, int level) override;
  uint64_t Hypercall(HypercallOp op, uint64_t a0, uint64_t a1) override;
  void LoadAddressSpace(uint64_t root_pa, uint16_t asid) override;

 protected:
  SyscallResult DoUserSyscall(const SyscallRequest& req) override;
  TouchStep OnTouchFault(const Fault& f, uint64_t va, bool write) override;
  void OnKill() override;

 private:
  uint64_t SegmentAlloc();
  // Charges one standalone KSM call round trip (enter + op + exit).
  void ChargeKsmRoundtrip(SimNanos op_work);

  CkiAblation ablation_;
  uint64_t segment_pages_;
  int n_vcpus_;
  int current_vcpu_ = 0;
  uint64_t current_root_ = 0;
  bool virtual_if_ = true;
  std::vector<uint8_t> pending_virqs_;
  uint64_t delivered_virqs_ = 0;
  PhysSegment segment_{};
  uint64_t segment_next_ = 0;
  std::vector<uint64_t> guest_free_list_;

  std::unique_ptr<Ksm> ksm_;
  std::unique_ptr<Gates> gates_;
  BinaryRewriter rewriter_;
  std::vector<uint8_t> guest_code_image_;

  uint16_t current_pcid_ = 0;

  // Fault-path state: the PTE update and the final iret share one KSM gate
  // crossing (Fig 10a: both KSM calls together cost 77 ns).
  bool in_fault_ = false;
  bool ksm_open_ = false;   // currently executing with PKRS == 0
  bool in_batch_ = false;
};

}  // namespace cki

#endif  // SRC_CKI_CKI_ENGINE_H_
