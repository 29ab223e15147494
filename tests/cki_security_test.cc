// Security tests for the CKI mechanisms (paper sections 4 and 6): the
// PKS-gating hardware extension, the page-table monitor invariants, gate
// abuse, interrupt abuse, PCID confinement, and cross-container isolation.
// Each test mounts a concrete attack and asserts it is stopped.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cki/cki_engine.h"
#include "src/hw/pks.h"
#include "src/runtime/runtime.h"
#include "src/sim/seed_split.h"

namespace cki {
namespace {

class CkiSecurityTest : public ::testing::Test {
 protected:
  CkiSecurityTest() : bed_(RuntimeKind::kCki, Deployment::kBareMetal) {}

  CkiEngine& engine() { return static_cast<CkiEngine&>(bed_.engine()); }
  Cpu& cpu() { return bed_.machine().cpu(); }
  Ksm& ksm() { return engine().ksm(); }

  // Puts the CPU in "compromised guest kernel" state: ring 0, PKRS_GUEST.
  void EnterGuestKernel() {
    cpu().set_cpl(Cpl::kKernel);
    cpu().SetPkrsDirect(kPkrsGuest);
  }

  Testbed bed_;
};

// --- privileged-instruction isolation (sec 4.1) ---------------------------

TEST_F(CkiSecurityTest, DestructiveInstructionsTrapInGuestKernel) {
  EnterGuestKernel();
  for (PrivInstr instr : {PrivInstr::kWrmsr, PrivInstr::kMovToCr3, PrivInstr::kLidt,
                          PrivInstr::kIret, PrivInstr::kCli, PrivInstr::kSti, PrivInstr::kPopf,
                          PrivInstr::kInvpcid, PrivInstr::kInOut}) {
    EXPECT_EQ(cpu().ExecPriv(instr).type, FaultType::kPrivInstrBlocked)
        << PrivInstrName(instr) << " must trap with PKRS != 0";
  }
}

TEST_F(CkiSecurityTest, HarmlessInstructionsExecuteInGuestKernel) {
  EnterGuestKernel();
  for (PrivInstr instr : {PrivInstr::kMovFromCr, PrivInstr::kClac, PrivInstr::kStac,
                          PrivInstr::kInvlpg, PrivInstr::kSwapgs, PrivInstr::kSysret,
                          PrivInstr::kHlt}) {
    EXPECT_TRUE(cpu().ExecPriv(instr).ok())
        << PrivInstrName(instr) << " must stay executable (Table 3)";
  }
}

TEST_F(CkiSecurityTest, SameInstructionsExecuteInKsmContext) {
  cpu().set_cpl(Cpl::kKernel);
  cpu().SetPkrsDirect(kPkrsMonitor);  // KSM / host: PKRS == 0
  for (PrivInstr instr : {PrivInstr::kWrmsr, PrivInstr::kMovToCr3, PrivInstr::kLidt,
                          PrivInstr::kIret, PrivInstr::kCli}) {
    EXPECT_TRUE(cpu().ExecPriv(instr).ok())
        << PrivInstrName(instr) << " must execute with PKRS == 0";
  }
}

TEST_F(CkiSecurityTest, PrivilegedInstructionsFaultFromUserMode) {
  cpu().set_cpl(Cpl::kUser);
  EXPECT_EQ(cpu().ExecPriv(PrivInstr::kMovToCr3).type, FaultType::kGeneralProtection);
  EXPECT_EQ(cpu().Wrpkrs(0).type, FaultType::kGeneralProtection);
}

TEST_F(CkiSecurityTest, WrpkrsIsUndefinedWithoutTheExtension) {
  Machine stock(MachineConfigFor(RuntimeKind::kRunc, Deployment::kBareMetal));
  stock.cpu().set_cpl(Cpl::kKernel);
  EXPECT_EQ(stock.cpu().Wrpkrs(0).type, FaultType::kInvalidOpcode);
}

TEST_F(CkiSecurityTest, GuestCannotRaiseOwnPkrsViaWrmsr) {
  EnterGuestKernel();
  // wrmsr is blocked, so the legacy PKRS-write path is closed.
  EXPECT_EQ(cpu().WrpkrsViaMsr(0).type, FaultType::kPrivInstrBlocked);
  EXPECT_EQ(cpu().pkrs(), kPkrsGuest);
}

TEST_F(CkiSecurityTest, SysretCannotMaskInterrupts) {
  // DoS attempt: return to user mode with IF cleared so the timer can
  // never preempt. The extended sysret forces IF on when PKRS != 0.
  EnterGuestKernel();
  ASSERT_TRUE(cpu().Sysret(/*requested_if=*/false).ok());
  EXPECT_TRUE(cpu().interrupts_enabled());
  // Trusted code (PKRS == 0) retains full control of RFLAGS.
  cpu().set_cpl(Cpl::kKernel);
  cpu().SetPkrsDirect(kPkrsMonitor);
  ASSERT_TRUE(cpu().Sysret(/*requested_if=*/false).ok());
  EXPECT_FALSE(cpu().interrupts_enabled());
  cpu().set_interrupts_enabled(true);
}

// --- PKS memory isolation (sec 3.3) -----------------------------------------

TEST_F(CkiSecurityTest, GuestKernelCannotTouchKsmMemory) {
  EnterGuestKernel();
  Fault read_fault = cpu().Access(ksm().per_vcpu_area_va(), AccessIntent::Read());
  EXPECT_EQ(read_fault.type, FaultType::kPageKeyViolation);
  Fault write_fault = cpu().Access(ksm().per_vcpu_area_va(), AccessIntent::Write());
  EXPECT_EQ(write_fault.type, FaultType::kPageKeyViolation);
}

TEST_F(CkiSecurityTest, KsmReachesItsOwnMemory) {
  cpu().set_cpl(Cpl::kKernel);
  cpu().SetPkrsDirect(kPkrsMonitor);
  EXPECT_TRUE(cpu().Access(ksm().per_vcpu_area_va(), AccessIntent::Write()).ok());
  cpu().SetPkrsDirect(kPkrsGuest);
}

TEST_F(CkiSecurityTest, UserModeCannotTouchKsmMemoryEither) {
  cpu().set_cpl(Cpl::kUser);
  Fault f = cpu().Access(ksm().per_vcpu_area_va(), AccessIntent::Read());
  // Supervisor-only page: plain protection fault before any key check.
  EXPECT_EQ(f.type, FaultType::kPageProtection);
}

// --- page-table monitor invariants (sec 4.3) --------------------------------

TEST_F(CkiSecurityTest, StoreOutsideDeclaredPtpRejected) {
  uint64_t rogue = engine().AllocDataPage();  // guest data frame, not a PTP
  uint64_t sanitized = 0;
  PtpVerdict v = ksm().monitor().CheckStore(rogue, MakePte(rogue, kPteP | kPteW), 1, 0x1000,
                                            &sanitized);
  EXPECT_EQ(v, PtpVerdict::kNotDeclared);
}

TEST_F(CkiSecurityTest, MappingForeignFrameRejected) {
  // The attacker asks the KSM to map a host-owned frame (the KSM region
  // itself) into its address space.
  engine().UserTouch(kUserTextBase, false);  // populate the text leaf
  uint64_t root = engine().kernel().current().pt_root;
  std::optional<uint64_t> slot = engine().kernel().editor().FindLeafSlot(root, kUserTextBase);
  ASSERT_TRUE(slot.has_value());
  PtpVerdict v = ksm().UpdatePte(*slot, MakePte(ksm().ksm_region_pa(), kPteP | kPteW), 1,
                                 kUserTextBase);
  EXPECT_EQ(v, PtpVerdict::kForeignFrame);
  EXPECT_GE(bed_.ctx().trace().Count(PathEvent::kSecurityViolation), 1u);
}

TEST_F(CkiSecurityTest, GuestChosenProtectionKeysRejected) {
  engine().UserTouch(kUserTextBase, false);
  uint64_t root = engine().kernel().current().pt_root;
  std::optional<uint64_t> slot = engine().kernel().editor().FindLeafSlot(root, kUserTextBase);
  ASSERT_TRUE(slot.has_value());
  uint64_t frame = engine().segment().base;
  PtpVerdict v = ksm().UpdatePte(*slot, MakePte(frame, kPteP | kPteW, kPkeyKsm), 1,
                                 kUserTextBase);
  EXPECT_EQ(v, PtpVerdict::kBadPkey);
}

TEST_F(CkiSecurityTest, NewKernelExecutableMappingRejectedAfterSeal) {
  ASSERT_TRUE(ksm().monitor().sealed());
  engine().UserTouch(kUserTextBase, false);
  uint64_t root = engine().kernel().current().pt_root;
  std::optional<uint64_t> slot = engine().kernel().editor().FindLeafSlot(root, kUserTextBase);
  ASSERT_TRUE(slot.has_value());
  uint64_t frame = engine().segment().base;
  // U=0, NX=0: kernel-executable — the path to smuggling wrpkrs bytes.
  PtpVerdict v = ksm().UpdatePte(*slot, MakePte(frame, kPteP), 1, kUserTextBase);
  EXPECT_EQ(v, PtpVerdict::kKernelExecMapping);
}

TEST_F(CkiSecurityTest, MappingPtpAsDataForcedReadOnly) {
  engine().UserTouch(kUserTextBase, false);
  GuestKernel& kernel = engine().kernel();
  uint64_t root = kernel.current().pt_root;
  // Find some declared PTP: the root itself.
  ASSERT_TRUE(ksm().monitor().IsPtp(root));
  std::optional<uint64_t> slot = kernel.editor().FindLeafSlot(root, kUserTextBase);
  ASSERT_TRUE(slot.has_value());
  PtpVerdict v = ksm().UpdatePte(*slot, MakePte(root, kPteP | kPteW | kPteNx), 1, kUserTextBase);
  EXPECT_EQ(v, PtpVerdict::kOk);
  uint64_t stored = bed_.machine().mem().ReadU64(*slot);
  EXPECT_FALSE(PteWritable(stored)) << "PTP data mapping must be read-only";
  EXPECT_EQ(PtePkey(stored), kPkeyPtp) << "PTP data mapping must carry pkey_PTP";
}

TEST_F(CkiSecurityTest, PtpCannotBeLinkedTwice) {
  // Allocate two PTPs at level 2 and try to reference the same level-1 PTP
  // from both (aliasing would let one mapping bypass monitoring).
  uint64_t pd1 = engine().AllocPtp(2);
  uint64_t pd2 = engine().AllocPtp(2);
  uint64_t pt = engine().AllocPtp(1);
  PtpVerdict first = ksm().UpdatePte(pd1 + 8 * 5, MakePte(pt, kPteP | kPteW), 2, 0);
  EXPECT_EQ(first, PtpVerdict::kOk);
  PtpVerdict second = ksm().UpdatePte(pd2 + 8 * 9, MakePte(pt, kPteP | kPteW), 2, 0);
  EXPECT_EQ(second, PtpVerdict::kPtpAlreadyLinked);
}

TEST_F(CkiSecurityTest, Cr3LoadOfUndeclaredRootRejected) {
  uint64_t fake_root = engine().segment().base + 17 * kPageSize;
  EXPECT_EQ(ksm().monitor().CheckCr3(fake_root), PtpVerdict::kRootNotDeclared);
  EXPECT_EQ(ksm().LoadGuestCr3(fake_root, 1, 0), PtpVerdict::kRootNotDeclared);
}

TEST_F(CkiSecurityTest, ReservedTopLevelSlotsRejected) {
  uint64_t root = engine().kernel().current().pt_root;
  uint64_t frame = engine().AllocPtp(3);
  PtpVerdict v = ksm().UpdatePte(root + static_cast<uint64_t>(kKsmRegionSlot) * 8,
                                 MakePte(frame, kPteP | kPteW), kPtLevels, kKsmRegionVa);
  EXPECT_EQ(v, PtpVerdict::kReservedSlot);
  v = ksm().UpdatePte(root + static_cast<uint64_t>(kPerVcpuSlot) * 8,
                      MakePte(frame, kPteP | kPteW), kPtLevels, kPerVcpuAreaVa);
  EXPECT_EQ(v, PtpVerdict::kReservedSlot);
}

// --- switch-gate abuse (sec 4.2) --------------------------------------------

TEST_F(CkiSecurityTest, RopJumpToGateWrpkrsAborts) {
  EnterGuestKernel();
  uint64_t aborted_before = engine().gates().aborted_switches();
  // Attacker wants PKRS with only the PTP write-disable lifted.
  EXPECT_FALSE(engine().gates().AttackRopWrpkrs(PkAccessDisable(kPkeyKsm)));
  EXPECT_GT(engine().gates().aborted_switches(), aborted_before);
  EXPECT_EQ(cpu().pkrs(), kPkrsGuest) << "abort path must restore a safe PKRS";
}

TEST_F(CkiSecurityTest, RopJumpWithGateConstantGainsNothing) {
  EnterGuestKernel();
  // Supplying exactly the gate constant is just the legitimate entry: the
  // attacker lands on the fixed dispatcher, not arbitrary code.
  EXPECT_FALSE(engine().gates().AttackRopWrpkrs(kPkrsMonitor));
}

// --- interrupt abuse (sec 4.4) ------------------------------------------------

TEST_F(CkiSecurityTest, HardwareInterruptSwitchesPkrsAndReachesHost) {
  EnterGuestKernel();
  EXPECT_TRUE(engine().DeliverHardwareInterrupt(kVecTimer));
  // After iret, the guest PKRS is restored by the extension.
  EXPECT_EQ(cpu().pkrs(), kPkrsGuest);
}

TEST_F(CkiSecurityTest, SoftwareIntCannotForgeInterrupt) {
  EnterGuestKernel();
  uint64_t violations_before = bed_.ctx().trace().Count(PathEvent::kSecurityViolation);
  EXPECT_FALSE(engine().gates().AttackForgeInterrupt(kVecVirtioNet));
  EXPECT_GT(bed_.ctx().trace().Count(PathEvent::kSecurityViolation), violations_before);
}

TEST_F(CkiSecurityTest, CorruptedStackCannotTripleFaultWithIst) {
  EnterGuestKernel();
  cpu().set_stack_valid(false);  // guest points RSP at garbage
  // Interrupt vectors use IST stacks configured by the KSM: delivery works.
  InterruptEntry entry = cpu().DeliverInterrupt(kVecTimer, /*hardware=*/true);
  EXPECT_TRUE(entry.fault.ok());
  cpu().IretTrusted(Cpl::kKernel, entry.saved_pkrs);
  cpu().set_stack_valid(true);
}

TEST_F(CkiSecurityTest, WithoutIstCorruptedStackWouldTripleFault) {
  // Counterfactual: an IDT whose timer gate does not use IST.
  Idt naive;
  naive.SetGate(kVecTimer, IdtGate{.present = true, .handler_tag = 1, .ist_index = 0,
                                   .pks_switch = true});
  cpu().set_idt(&naive);
  EnterGuestKernel();
  cpu().set_stack_valid(false);
  InterruptEntry entry = cpu().DeliverInterrupt(kVecTimer, /*hardware=*/true);
  EXPECT_EQ(entry.fault.type, FaultType::kTripleFault);
  cpu().set_stack_valid(true);
  cpu().set_idt(&ksm().idt());
}

TEST_F(CkiSecurityTest, SwapgsCannotMisleadTheKsm) {
  // The guest may corrupt kernel_gs (swapgs is allowed), but the per-vCPU
  // area is found at a constant VA, not via gs (Fig 8c).
  EnterGuestKernel();
  cpu().set_kernel_gs_base(0xDEAD'BEEF'0000);
  ASSERT_TRUE(cpu().Swapgs().ok());
  cpu().SetPkrsDirect(kPkrsMonitor);
  EXPECT_TRUE(engine().gates().SecureStackAccessible())
      << "KSM must locate the secure stack regardless of gs state";
  cpu().SetPkrsDirect(kPkrsGuest);
}

// --- TLB / PCID confinement (sec 4.1) -----------------------------------------

TEST(CkiCrossContainer, InvlpgCannotFlushOtherContainers) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  CkiEngine a(machine, CkiAblation::kNone, 4096);
  a.Boot();
  CkiEngine b(machine, CkiAblation::kNone, 4096);
  b.Boot();

  // Container B touches a page (loads a TLB entry under B's PCID).
  uint64_t vb = b.MmapAnon(kPageSize, true);
  EXPECT_EQ(b.UserTouch(vb, false), TouchResult::kOk);
  uint16_t b_pcid = Cr3Pcid(machine.cpu().cr3());
  size_t b_entries = machine.cpu().tlb().ValidCountForPcid(b_pcid);
  ASSERT_GT(b_entries, 0u);

  // Container A (now made current) flushes the same VA maliciously.
  machine.cpu().set_cpl(Cpl::kKernel);
  machine.cpu().SetPkrsDirect(kPkrsGuest);
  a.LoadAddressSpace(a.kernel().current().pt_root, a.kernel().current().asid);
  machine.cpu().SetPkrsDirect(kPkrsGuest);
  ASSERT_TRUE(machine.cpu().Invlpg(vb).ok());

  EXPECT_EQ(machine.cpu().tlb().ValidCountForPcid(b_pcid), b_entries)
      << "invlpg must only affect the issuing container's PCID context";
}

TEST(CkiCrossContainer, CannotMapAnotherContainersSegment) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  CkiEngine a(machine, CkiAblation::kNone, 4096);
  a.Boot();
  CkiEngine b(machine, CkiAblation::kNone, 4096);
  b.Boot();

  machine.cpu().SetPkrsDirect(kPkrsGuest);
  a.LoadAddressSpace(a.kernel().current().pt_root, a.kernel().current().asid);
  a.UserTouch(kUserTextBase, false);
  uint64_t a_root = a.kernel().current().pt_root;
  std::optional<uint64_t> slot = a.kernel().editor().FindLeafSlot(a_root, kUserTextBase);
  ASSERT_TRUE(slot.has_value());
  uint64_t theirs = b.segment().base + 3 * kPageSize;
  PtpVerdict v = a.ksm().UpdatePte(*slot, MakePte(theirs, kPteP | kPteW), 1, kUserTextBase);
  EXPECT_EQ(v, PtpVerdict::kForeignFrame)
      << "container A must not map container B's physical memory";
}

// --- binary rewriting (sec 4.1) -------------------------------------------------

TEST(BinaryRewriterTest, DetectsStrayWrpkrs) {
  BinaryRewriter rewriter;
  rewriter.RegisterGateOffset(0x100);
  std::vector<uint8_t> image(4096, 0x90);
  EmitWrpkrs(image, 0x100);   // legitimate gate
  EmitWrpkrs(image, 0x2F0);   // smuggled
  ScanReport report = rewriter.Scan(image);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0], 0x2F0u);
  EXPECT_EQ(report.gate_occurrences, 1u);
}

TEST(BinaryRewriterTest, DetectsUnalignedOccurrences) {
  BinaryRewriter rewriter;
  std::vector<uint8_t> image(4096, 0x90);
  // The wrpkrs byte pattern hidden at an odd offset inside "other"
  // instructions — x86 does not enforce alignment.
  EmitWrpkrs(image, 0x101);
  EmitWrpkrs(image, 0x3FF);  // straddles nothing but sits unaligned
  ScanReport report = rewriter.Scan(image);
  EXPECT_EQ(report.violations.size(), 2u);
}

TEST(BinaryRewriterTest, RewritePatchesViolations) {
  BinaryRewriter rewriter;
  rewriter.RegisterGateOffset(0x40);
  std::vector<uint8_t> image(1024, 0x90);
  EmitWrpkrs(image, 0x40);
  EmitWrpkrs(image, 0x80);
  EmitWrpkrs(image, 0x83);  // overlapping second occurrence
  EXPECT_EQ(rewriter.Rewrite(image), 2u);
  ScanReport after = rewriter.Scan(image);
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.gate_occurrences, 1u) << "gate sites must survive rewriting";
}

TEST(BinaryRewriterTest, BootImageOfEngineIsClean) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  auto& engine = static_cast<CkiEngine&>(bed.engine());
  // Boot checks this with RequireClean; double-check the invariant holds.
  EXPECT_GE(engine.rewriter().gate_offsets().size(), 4u);
}

// The byte-wise scan Scan() replaced: every offset compared in full.
ScanReport BytewiseScan(const BinaryRewriter& rewriter, const std::vector<uint8_t>& image) {
  ScanReport report;
  for (size_t off = 0; off + kWrpkrsOpcodeLen <= image.size(); ++off) {
    if (std::equal(kWrpkrsOpcode, kWrpkrsOpcode + kWrpkrsOpcodeLen, image.begin() + off)) {
      if (rewriter.gate_offsets().count(off) != 0) {
        report.gate_occurrences++;
      } else {
        report.violations.push_back(off);
      }
    }
  }
  return report;
}

TEST(BinaryRewriterTest, FindsPatternInTheLastThreeBytes) {
  BinaryRewriter rewriter;
  std::vector<uint8_t> image(100, 0x90);
  EmitWrpkrs(image, image.size() - kWrpkrsOpcodeLen);
  EXPECT_EQ(rewriter.Scan(image).violations, std::vector<size_t>{97});
  image.pop_back();  // a truncated pattern at the end is no occurrence
  EXPECT_TRUE(rewriter.Scan(image).clean());
}

TEST(BinaryRewriterTest, PartialPrefixBeforeARealHit) {
  BinaryRewriter rewriter;
  std::vector<uint8_t> image(64, 0x90);
  image[10] = 0x0F;  // 0F 0F 01 EF: the first 0F starts no occurrence
  EmitWrpkrs(image, 11);
  image[30] = 0x0F;  // 0F 01 0F 01 EF
  image[31] = 0x01;
  EmitWrpkrs(image, 32);
  EXPECT_EQ(rewriter.Scan(image).violations, (std::vector<size_t>{11, 32}));
}

TEST(BinaryRewriterTest, ImagesShorterThanThePatternAreClean) {
  BinaryRewriter rewriter;
  for (const std::vector<uint8_t>& image :
       {std::vector<uint8_t>{}, std::vector<uint8_t>{0x0F}, std::vector<uint8_t>{0x0F, 0x01}}) {
    ScanReport report = rewriter.Scan(image);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.gate_occurrences, 0u);
  }
}

TEST(BinaryRewriterTest, BackToBackOccurrences) {
  BinaryRewriter rewriter;
  rewriter.RegisterGateOffset(3);
  std::vector<uint8_t> image(12, 0x90);
  for (size_t off = 0; off + kWrpkrsOpcodeLen <= image.size(); off += kWrpkrsOpcodeLen) {
    EmitWrpkrs(image, off);
  }
  ScanReport report = rewriter.Scan(image);
  EXPECT_EQ(report.violations, (std::vector<size_t>{0, 6, 9}));
  EXPECT_EQ(report.gate_occurrences, 1u);
}

TEST(BinaryRewriterTest, MatchesBytewiseScanOnSeededRandomImages) {
  // Bytes drawn mostly from the pattern's own alphabet, so prefixes,
  // overlaps and hits are common at every alignment.
  constexpr uint8_t kAlphabet[] = {0x0F, 0x01, 0xEF, 0x90};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    XorShift64Star rng(seed);
    std::vector<uint8_t> image(rng.Next() % 5000);
    for (uint8_t& byte : image) {
      uint64_t r = rng.Next();
      byte = (r & 7) == 0 ? static_cast<uint8_t>(r >> 8) : kAlphabet[(r >> 3) % 4];
    }
    BinaryRewriter rewriter;
    ScanReport plain = BytewiseScan(rewriter, image);
    for (size_t i = 0; i < plain.violations.size(); i += 3) {
      rewriter.RegisterGateOffset(plain.violations[i]);  // every third hit is a gate
    }
    ScanReport want = BytewiseScan(rewriter, image);
    ScanReport got = rewriter.Scan(image);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.gate_occurrences, want.gate_occurrences);
    EXPECT_EQ(got.violations.size() + got.gate_occurrences, plain.violations.size());
  }
}

TEST(BinaryRewriterTest, RequireCleanNamesTheFirstStrayOffset) {
  BinaryRewriter rewriter;
  rewriter.RegisterGateOffset(0x10);
  std::vector<uint8_t> image(256, 0x90);
  EmitWrpkrs(image, 0x10);
  EXPECT_NO_THROW(rewriter.RequireClean(image));
  EmitWrpkrs(image, 0x81);
  EmitWrpkrs(image, 0x40);
  try {
    rewriter.RequireClean(image);
    FAIL() << "a stray wrpkrs must be fatal in every build type";
  } catch (const FatalHostError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 64"), std::string::npos) << e.what();
  }
}

// --- per-vCPU top-level copies (sec 4.2/4.3) -------------------------------------

TEST_F(CkiSecurityTest, TopLevelUpdatesMirrorIntoCopies) {
  GuestKernel& kernel = engine().kernel();
  uint64_t root = kernel.current().pt_root;
  uint64_t copy = ksm().TopLevelCopy(root, 0);
  ASSERT_NE(copy, 0u);
  PhysMem& mem = bed_.machine().mem();
  // Every guest slot of the copy must equal the original; KSM slots differ.
  for (int i = 0; i < kPtEntries; ++i) {
    if (i == kKsmRegionSlot || i == kPerVcpuSlot) {
      EXPECT_TRUE(PtePresent(mem.ReadU64(copy + static_cast<uint64_t>(i) * 8)));
      EXPECT_FALSE(PtePresent(mem.ReadU64(root + static_cast<uint64_t>(i) * 8)))
          << "KSM mappings must exist only in the hardware copies";
    } else {
      EXPECT_EQ(mem.ReadU64(copy + static_cast<uint64_t>(i) * 8),
                mem.ReadU64(root + static_cast<uint64_t>(i) * 8))
          << "slot " << i;
    }
  }
}

TEST_F(CkiSecurityTest, AccessedBitsPropagateFromCopies) {
  GuestKernel& kernel = engine().kernel();
  uint64_t root = kernel.current().pt_root;
  uint64_t copy = ksm().TopLevelCopy(root, 0);
  PhysMem& mem = bed_.machine().mem();
  // Simulate hardware setting the A bit in the copy only.
  int slot = PtIndex(kUserTextBase, kPtLevels);
  uint64_t off = static_cast<uint64_t>(slot) * 8;
  mem.WriteU64(copy + off, mem.ReadU64(copy + off) | kPteA);
  uint64_t read = ksm().ReadTopLevelPte(root, slot);
  EXPECT_TRUE((read & kPteA) != 0) << "A/D bits must propagate from per-vCPU copies";
}

}  // namespace
}  // namespace cki
