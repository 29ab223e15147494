// Tests for src/snap: checkpoint/restore round trips across every engine,
// corruption rejection as a typed fault, copy-on-write clones (frame
// sharing, CoW breaks, kill independence), and cross-shard migration
// determinism.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/fault/fault_injector.h"
#include "src/hw/pte.h"
#include "src/runtime/runtime.h"
#include "src/snap/snap_stream.h"
#include "src/snap/snapshot.h"

namespace cki {
namespace {

constexpr uint64_t kMarker = 0x5EEDF00DCAFEF00DULL;

// Engines share one CPU per machine: reload this engine's address space
// before driving touches through the MMU.
void Activate(ContainerEngine& e) {
  Process& p = e.kernel().current();
  e.LoadAddressSpace(p.pt_root, p.asid);
}

// Host frame backing `va` in the engine's current process; kNoPage if
// unmapped. Materializes lazy (HVM/PVM) backing so callers can read or
// write the content directly.
uint64_t MappedHostPa(ContainerEngine& e, uint64_t va) {
  Process& p = e.kernel().current();
  WalkResult walk = e.kernel().editor().Walk(p.pt_root, va);
  if (!walk.fault.ok()) {
    return kNoPage;
  }
  return e.EnsureHostFrame(PteAddr(walk.leaf_pte));
}

// Puts representative state into a freshly booted container: a tmpfs file,
// a pipe, a grown heap, a populated mapping with marker content — and
// (optionally) a forked child so page_refs_ has CoW entries.
uint64_t Warm(ContainerEngine& e, Machine& machine, bool with_fork) {
  SyscallResult r = e.UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = 7});
  EXPECT_TRUE(r.ok());
  uint64_t fd = static_cast<uint64_t>(r.value);
  EXPECT_TRUE(e.UserSyscall(SyscallRequest{.no = Sys::kWrite, .arg0 = fd, .arg1 = 3000}).ok());
  EXPECT_TRUE(e.UserSyscall(SyscallRequest{.no = Sys::kPipe}).ok());
  EXPECT_TRUE(
      e.UserSyscall(SyscallRequest{.no = Sys::kBrk, .arg0 = kUserHeapBase + 4 * kPageSize}).ok());
  uint64_t base = e.MmapAnon(4 * kPageSize, /*populate=*/true);
  EXPECT_NE(base, 0u);
  if (with_fork) {
    EXPECT_TRUE(e.UserSyscall(SyscallRequest{.no = Sys::kFork}).ok());
  }
  uint64_t host = MappedHostPa(e, base);
  EXPECT_NE(host, kNoPage);
  machine.mem().WriteU64(host, kMarker);
  return base;
}

// Deterministic post-restore probe: syscall return values + kernel
// counters (no gettimeofday — the only clock-dependent syscall).
std::vector<int64_t> Probe(ContainerEngine& e) {
  std::vector<int64_t> vals;
  vals.push_back(e.UserSyscall(SyscallRequest{.no = Sys::kGetpid}).value);
  vals.push_back(e.UserSyscall(SyscallRequest{.no = Sys::kOpen, .arg0 = 7}).value);
  int64_t fd = vals.back();
  if (fd >= 0) {
    vals.push_back(e.UserSyscall(SyscallRequest{.no = Sys::kRead,
                                                .arg0 = static_cast<uint64_t>(fd),
                                                .arg1 = 1024})
                       .value);
    vals.push_back(e.UserSyscall(SyscallRequest{.no = Sys::kFstat,
                                                .arg0 = static_cast<uint64_t>(fd)})
                       .value);
  }
  vals.push_back(e.UserSyscall(SyscallRequest{.no = Sys::kBrk, .arg0 = 0}).value);
  vals.push_back(static_cast<int64_t>(e.kernel().total_syscalls()));
  vals.push_back(static_cast<int64_t>(e.kernel().live_processes()));
  return vals;
}

const RuntimeKind kAllKinds[] = {RuntimeKind::kRunc, RuntimeKind::kHvm,  RuntimeKind::kPvm,
                                 RuntimeKind::kCki,  RuntimeKind::kGvisor, RuntimeKind::kLibOs};

// --- checkpoint / restore ----------------------------------------------------

TEST(Snapshot, RoundTripIsByteIdenticalAcrossAllEngines) {
  for (RuntimeKind kind : kAllKinds) {
    SCOPED_TRACE(std::string(RuntimeKindName(kind)));
    Testbed bed(kind, Deployment::kBareMetal);
    bool with_fork = kind != RuntimeKind::kLibOs;  // LibOS blocks fork
    uint64_t base = Warm(bed.engine(), bed.machine(), with_fork);

    SnapshotImage img1 = CheckpointContainer(bed.engine());
    ASSERT_TRUE(img1.Valid());
    EXPECT_EQ(img1.kind(), kind);

    Machine other(MachineConfigFor(kind, Deployment::kBareMetal));
    RestoreOutcome out = RestoreContainer(other, img1);
    ASSERT_TRUE(out.ok) << "restore failed: " << FaultKindName(out.fault.kind);
    ASSERT_NE(out.engine, nullptr);

    // checkpoint(restore(checkpoint(x))) == checkpoint(x), bit for bit.
    SnapshotImage img2 = CheckpointContainer(*out.engine);
    EXPECT_EQ(img1.bytes, img2.bytes);
    EXPECT_EQ(img1.content_hash(), img2.content_hash());

    // Frame contents migrated (under fresh host frames).
    uint64_t restored_host = MappedHostPa(*out.engine, base);
    ASSERT_NE(restored_host, kNoPage);
    EXPECT_EQ(other.mem().ReadU64(restored_host), kMarker);

    // The restored container keeps serving: identical observable behavior.
    EXPECT_EQ(Probe(bed.engine()), Probe(*out.engine));
  }
}

TEST(Snapshot, CorruptStreamRejectedWithTypedFault) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  Warm(bed.engine(), bed.machine(), /*with_fork=*/true);

  FaultInjector injector(InjectorConfig{.seed = 99, .snapshot_corrupt_rate = 1.0});
  SnapshotImage img = CheckpointContainer(bed.engine(), &injector);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_FALSE(img.Valid());

  Machine other(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  RestoreOutcome out = RestoreContainer(other, img);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.engine, nullptr);
  EXPECT_EQ(out.fault.kind, FaultKind::kSnapshotCorrupt);
  EXPECT_EQ(other.faults().CountForKind(FaultKind::kSnapshotCorrupt), 1u);
}

TEST(Snapshot, ManualBitFlipAnywhereIsRejected) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  Warm(bed.engine(), bed.machine(), /*with_fork=*/false);
  SnapshotImage img = CheckpointContainer(bed.engine());
  ASSERT_TRUE(img.Valid());

  SnapshotImage flipped = img;
  flipped.bytes[flipped.bytes.size() / 2] ^= 0x10;
  EXPECT_FALSE(flipped.Valid());
  Machine other(MachineConfigFor(RuntimeKind::kRunc, Deployment::kBareMetal));
  EXPECT_FALSE(RestoreContainer(other, flipped).ok);

  // The untouched image still restores on the same machine afterwards.
  EXPECT_TRUE(RestoreContainer(other, img).ok);
}

// The checkpoint stream as built before frames were captured whole: every
// page read word by word through ReadU64. Mirrors CheckpointContainer with
// no injector, NIC or blkfs, including its simulated-time charges.
SnapshotImage PerWordCheckpoint(ContainerEngine& engine) {
  SimContext& ctx = engine.machine().ctx();
  PhysMem& mem = engine.machine().mem();
  ctx.ChargeWork(ctx.cost().snap_fixed);
  SnapWriter w;
  w.PutU64(kSnapMagic);
  w.PutU32(kSnapVersion);
  w.PutU8(static_cast<uint8_t>(engine.kind()));
  SnapWriter cfg;
  engine.SnapCaptureConfig(cfg);
  w.PutBlob(cfg.bytes());
  engine.kernel().SnapshotTo(w, [&](uint64_t pa, SnapWriter& fw) {
    ctx.ChargeWork(ctx.cost().snap_page_capture);
    uint64_t host = engine.HostFrameFor(pa);
    if (host == kNoPage) {
      fw.PutBool(false);
      return;
    }
    std::array<uint64_t, kPageSize / 8> words;
    bool nonzero = false;
    for (size_t i = 0; i < words.size(); ++i) {
      words[i] = mem.ReadU64(host + i * 8);
      nonzero = nonzero || words[i] != 0;
    }
    fw.PutBool(nonzero);
    if (nonzero) {
      for (uint64_t word : words) {
        fw.PutU64(word);
      }
    }
  });
  SnapWriter state;
  engine.SnapCaptureState(state);
  w.PutBlob(state.bytes());
  for (int absent_section = 0; absent_section < 2; ++absent_section) {  // NIC, blkfs
    SnapWriter none;
    none.PutBool(false);
    w.PutBlob(none.bytes());
  }
  w.PutU64(w.Hash());
  return SnapshotImage{w.Take()};
}

TEST(Snapshot, WholeFrameCaptureMatchesPerWordStream) {
  for (RuntimeKind kind : kAllKinds) {
    SCOPED_TRACE(std::string(RuntimeKindName(kind)));
    Testbed bed(kind, Deployment::kBareMetal);
    Warm(bed.engine(), bed.machine(), kind != RuntimeKind::kLibOs);
    // Three populated pages: written, written then zeroed, never touched.
    uint64_t base = bed.engine().MmapAnon(3 * kPageSize, /*populate=*/true);
    ASSERT_NE(base, 0u);
    uint64_t written = MappedHostPa(bed.engine(), base);
    uint64_t zeroed = MappedHostPa(bed.engine(), base + kPageSize);
    uint64_t untouched = MappedHostPa(bed.engine(), base + 2 * kPageSize);
    ASSERT_NE(written, kNoPage);
    ASSERT_NE(zeroed, kNoPage);
    ASSERT_NE(untouched, kNoPage);
    PhysMem& mem = bed.machine().mem();
    mem.WriteU64(written + kPageSize - 8, kMarker);
    mem.WriteU64(zeroed + 128, kMarker);
    mem.WriteU64(zeroed + 128, 0);
    ASSERT_NE(mem.FrameWords(zeroed), nullptr);
    if (kind == RuntimeKind::kCki) {
      // Segment frames are installed lazily: never written, never backed.
      EXPECT_EQ(mem.FrameWords(untouched), nullptr);
    }

    SnapshotImage whole = CheckpointContainer(bed.engine());
    SnapshotImage per_word = PerWordCheckpoint(bed.engine());
    ASSERT_TRUE(whole.Valid());
    EXPECT_EQ(whole.bytes, per_word.bytes);
  }
}

// --- copy-on-write clones ----------------------------------------------------

TEST(Clone, SharesFramesAndBreaksOnFirstWrite) {
  Machine machine(MachineConfigFor(RuntimeKind::kRunc, Deployment::kBareMetal));
  std::unique_ptr<ContainerEngine> parent = MakeEngine(machine, RuntimeKind::kRunc);
  parent->Boot();
  uint64_t base = Warm(*parent, machine, /*with_fork=*/false);
  uint64_t parent_host = MappedHostPa(*parent, base);

  std::unique_ptr<ContainerEngine> clone = CloneContainer(*parent);
  uint64_t shared = machine.frames().SharedFrames(clone->id());
  EXPECT_GT(shared, 0u) << "a clone must share its template's frames";
  EXPECT_EQ(MappedHostPa(*clone, base), parent_host) << "same frame until someone writes";

  // Clone writes: it gets a private copy, drops exactly one share, and the
  // template's frame (with the marker) is untouched.
  Activate(*clone);
  ASSERT_EQ(clone->UserTouch(base, /*write=*/true), TouchResult::kOk);
  EXPECT_EQ(machine.frames().SharedFrames(clone->id()), shared - 1);
  EXPECT_NE(MappedHostPa(*clone, base), parent_host);
  EXPECT_EQ(machine.frames().OwnerOf(parent_host), parent->id());
  EXPECT_EQ(machine.mem().ReadU64(parent_host), kMarker);

  // Template writes a *different* shared page: primacy of that frame moves
  // to the clone (the only remaining holder) instead of being freed.
  uint64_t page2 = base + kPageSize;
  uint64_t page2_host = MappedHostPa(*parent, page2);
  Activate(*parent);
  ASSERT_EQ(parent->UserTouch(page2, /*write=*/true), TouchResult::kOk);
  EXPECT_EQ(machine.frames().OwnerOf(page2_host), clone->id());
  EXPECT_NE(MappedHostPa(*parent, page2), page2_host);
}

TEST(Clone, CkiCloneMapsSharedFramesPastTheMonitor) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  auto parent = std::make_unique<CkiEngine>(machine, CkiAblation::kNone,
                                            /*segment_pages=*/4096);
  parent->Boot();
  uint64_t base = Warm(*parent, machine, /*with_fork=*/true);

  std::unique_ptr<ContainerEngine> clone = CloneContainer(*parent);
  EXPECT_EQ(clone->kind(), RuntimeKind::kCki);
  EXPECT_GT(machine.frames().SharedFrames(clone->id()), 0u);
  EXPECT_TRUE(clone->alive()) << "monitor must accept shared-frame mappings";

  Activate(*clone);
  EXPECT_EQ(clone->UserTouch(base, /*write=*/true), TouchResult::kOk);
  EXPECT_TRUE(clone->alive());
  EXPECT_TRUE(parent->alive());
}

TEST(Clone, KillingParentLeavesClonesServing) {
  Machine machine(MachineConfigFor(RuntimeKind::kRunc, Deployment::kBareMetal));
  std::unique_ptr<ContainerEngine> parent = MakeEngine(machine, RuntimeKind::kRunc);
  parent->Boot();
  uint64_t base = Warm(*parent, machine, /*with_fork=*/false);

  std::unique_ptr<ContainerEngine> clone_a = CloneContainer(*parent);
  std::unique_ptr<ContainerEngine> clone_b = CloneContainer(*parent);

  machine.faults().Kill(FaultReport{FaultKind::kProtectionViolation, parent->id(), 0});
  EXPECT_FALSE(parent->alive());
  EXPECT_EQ(machine.frames().OwnedFrames(parent->id()), 0u);

  for (ContainerEngine* clone : {clone_a.get(), clone_b.get()}) {
    EXPECT_TRUE(clone->alive());
    Activate(*clone);
    EXPECT_EQ(clone->UserTouch(base, /*write=*/false), TouchResult::kOk);
    uint64_t host = MappedHostPa(*clone, base);
    ASSERT_NE(host, kNoPage);
    EXPECT_EQ(machine.mem().ReadU64(host), kMarker) << "shared content must outlive the parent";
    EXPECT_TRUE(clone->UserSyscall(SyscallRequest{.no = Sys::kGetpid}).ok());
  }
}

TEST(Clone, KillingCloneLeavesParentFramesIntact) {
  Machine machine(MachineConfigFor(RuntimeKind::kRunc, Deployment::kBareMetal));
  std::unique_ptr<ContainerEngine> parent = MakeEngine(machine, RuntimeKind::kRunc);
  parent->Boot();
  uint64_t base = Warm(*parent, machine, /*with_fork=*/false);
  uint64_t owned_before = machine.frames().OwnedFrames(parent->id());

  std::unique_ptr<ContainerEngine> clone = CloneContainer(*parent);
  clone->KillFromFault();
  EXPECT_EQ(machine.frames().SharedFrames(clone->id()), 0u);
  EXPECT_EQ(machine.frames().OwnedFrames(clone->id()), 0u);
  EXPECT_EQ(machine.frames().OwnedFrames(parent->id()), owned_before);

  Activate(*parent);
  EXPECT_EQ(parent->UserTouch(base, /*write=*/true), TouchResult::kOk);
  EXPECT_TRUE(parent->UserSyscall(SyscallRequest{.no = Sys::kGetpid}).ok());
}

TEST(Snapshot, NetTraceContextSurvivesCheckpointRestoreAndClone) {
  // The ambient net trace (the causal identity of the request currently in
  // service, DESIGN.md §11) is kernel state: it must ride the CKISNAP1
  // stream so a migrated container's next response still carries it.
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  Warm(bed.engine(), bed.machine(), /*with_fork=*/true);
  bed.engine().kernel().set_net_trace(TraceContext{0xABCD, 0x1234});

  SnapshotImage img = CheckpointContainer(bed.engine());
  ASSERT_TRUE(img.Valid());
  Machine other(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  RestoreOutcome out = RestoreContainer(other, img);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.engine->kernel().net_trace().trace_id, 0xABCDu);
  EXPECT_EQ(out.engine->kernel().net_trace().span_id, 0x1234u);

  // A CoW clone adopts its template's in-service identity as well.
  std::unique_ptr<ContainerEngine> clone = CloneContainer(*out.engine);
  EXPECT_EQ(clone->kernel().net_trace().trace_id, 0xABCDu);
  EXPECT_EQ(clone->kernel().net_trace().span_id, 0x1234u);
}

// --- cross-shard migration ---------------------------------------------------

TEST(Snapshot, CrossShardMigrationReproducesWorkloadExactly) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  Warm(bed.engine(), bed.machine(), /*with_fork=*/true);
  SnapshotImage img = CheckpointContainer(bed.engine());
  ASSERT_TRUE(img.Valid());

  auto workload_hash = [](ContainerEngine& e) {
    uint64_t h = kFnvOffsetBasis;
    auto mix = [&h](uint64_t v) { h = FnvMix64(h, v); };
    for (const int64_t v : Probe(e)) {
      mix(static_cast<uint64_t>(v));
    }
    uint64_t extra = e.MmapAnon(2 * kPageSize, /*populate=*/true);
    mix(extra);
    mix(static_cast<uint64_t>(e.UserTouch(extra, /*write=*/true)));
    mix(e.kernel().total_page_faults());
    return h;
  };
  const uint64_t want = workload_hash(bed.engine());

  SimCluster cluster(ClusterConfig{.shards = 2, .threads = 2, .root_seed = 7});
  ClusterResult result = cluster.Run([&img, &workload_hash, want](const ShardTask& task) {
    ShardResult shard;
    shard.index = task.index;
    Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
    RestoreOutcome out = RestoreContainer(machine, img);
    if (!out.ok) {
      shard.ok = false;
      shard.error = "restore failed";
      return shard;
    }
    uint64_t h = workload_hash(*out.engine);
    shard.HashMix(h);
    shard.ok = h == want;
    if (!shard.ok) {
      shard.error = "workload hash diverged after migration";
    }
    return shard;
  });
  EXPECT_TRUE(result.all_ok());
  ASSERT_EQ(result.shard_count(), 2u);
  EXPECT_EQ(result.shards()[0].trace_hash(), result.shards()[1].trace_hash());
}

}  // namespace
}  // namespace cki
