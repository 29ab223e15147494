#include "src/snap/snapshot.h"

#include <algorithm>

#include "src/blkfs/blkfs.h"
#include "src/fault/fault_injector.h"
#include "src/net/virt_nic.h"
#include "src/runtime/runtime.h"
#include "src/snap/snap_stream.h"

namespace cki {

namespace {

constexpr size_t kWordsPerPage = kPageSize / 8;
// magic + version + kind + (empty) config blob + trailing hash.
constexpr size_t kMinStreamBytes = 8 + 4 + 1 + 4 + 8;

uint64_t TrailingHash(const std::vector<uint8_t>& bytes) {
  uint64_t v = 0;
  size_t base = bytes.size() - 8;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes[base + static_cast<size_t>(i)]) << (i * 8);
  }
  return v;
}

bool KindInRange(uint8_t kind) {
  return kind <= static_cast<uint8_t>(RuntimeKind::kLibOs);
}

}  // namespace

RuntimeKind SnapshotImage::kind() const {
  if (bytes.size() < kMinStreamBytes) {
    return RuntimeKind::kRunc;
  }
  return static_cast<RuntimeKind>(bytes[12]);
}

uint64_t SnapshotImage::content_hash() const {
  if (bytes.size() < kMinStreamBytes) {
    return 0;
  }
  return TrailingHash(bytes);
}

bool SnapshotImage::Valid() const {
  if (bytes.size() < kMinStreamBytes) {
    return false;
  }
  SnapReader r(bytes.data(), bytes.size());
  if (r.GetU64() != kSnapMagic || r.GetU32() != kSnapVersion || !KindInRange(r.GetU8())) {
    return false;
  }
  return TrailingHash(bytes) == SnapHashBytes(kSnapFnvBasis, bytes.data(), bytes.size() - 8);
}

SnapshotImage CheckpointContainer(ContainerEngine& engine, FaultInjector* injector,
                                  const VirtNic* nic, Blkfs* blkfs) {
  SimContext& ctx = engine.machine().ctx();
  PhysMem& mem = engine.machine().mem();
  ctx.ChargeWork(ctx.cost().snap_fixed);

  // Quiesce storage before the kernel section: writeback demotes PTEs
  // (write-protect), so it must happen before page tables serialize.
  if (blkfs != nullptr) {
    blkfs->FlushAll();
  }

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
      // Lazy HVM/PVM page never backed: all-zero by construction.
      fw.PutBool(false);
      return;
    }
    // One installation check per frame; a never-written frame is all zero.
    const uint64_t* words = mem.FrameWords(host);
    bool nonzero = words != nullptr &&
                   std::any_of(words, words + kWordsPerPage, [](uint64_t word) { return word != 0; });
    fw.PutBool(nonzero);
    if (nonzero) {
      for (size_t i = 0; i < kWordsPerPage; ++i) {
        fw.PutU64(words[i]);
      }
    }
  });

  SnapWriter state;
  engine.SnapCaptureState(state);
  w.PutBlob(state.bytes());

  SnapWriter dev;
  dev.PutBool(nic != nullptr);
  if (nic != nullptr) {
    nic->SnapCapture(dev);
  }
  w.PutBlob(dev.bytes());

  SnapWriter bw;
  bw.PutBool(blkfs != nullptr);
  if (blkfs != nullptr) {
    blkfs->SnapCapture(bw);
  }
  w.PutBlob(bw.bytes());

  w.PutU64(w.Hash());
  SnapshotImage image{w.Take()};

  // Chaos site 7: one deterministic bit-flip somewhere in the finished
  // stream (position derives from the injector's draw count, so the same
  // seed corrupts the same bit).
  if (injector != nullptr && injector->InjectSnapshotCorruption()) {
    uint64_t bit = (injector->draws() * 0x9E3779B97F4A7C15ULL) % (image.bytes.size() * 8);
    image.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return image;
}

RestoreOutcome RestoreContainer(Machine& machine, const SnapshotImage& image) {
  RestoreOutcome out;
  out.fault = FaultReport{FaultKind::kSnapshotCorrupt, /*owner=*/0, /*detail=*/0};
  const std::vector<uint8_t>& bytes = image.bytes;

  // Content hash first: any damage anywhere in the stream is caught here
  // before a single byte drives an allocation.
  if (bytes.size() < kMinStreamBytes ||
      TrailingHash(bytes) != SnapHashBytes(kSnapFnvBasis, bytes.data(), bytes.size() - 8)) {
    out.fault.detail = bytes.size() < kMinStreamBytes ? 0 : TrailingHash(bytes);
    machine.faults().Note(out.fault);
    return out;
  }
  SnapReader r(bytes.data(), bytes.size() - 8);
  uint8_t kind_byte = 0;
  if (r.GetU64() != kSnapMagic || r.GetU32() != kSnapVersion ||
      !KindInRange(kind_byte = r.GetU8())) {
    machine.faults().Note(out.fault);
    return out;
  }
  RuntimeKind kind = static_cast<RuntimeKind>(kind_byte);

  SimContext& ctx = machine.ctx();
  ctx.ChargeWork(ctx.cost().snap_fixed);
  std::unique_ptr<ContainerEngine> engine = MakeEngine(machine, kind);

  std::vector<uint8_t> cfg = r.GetBlob();
  {
    SnapReader cr(cfg);
    engine->SnapApplyConfig(cr);
    if (!cr.ok() || !r.ok()) {
      machine.faults().Note(out.fault);
      return out;
    }
  }

  bool booted = false;
  try {
    engine->Boot();
    booted = true;
    bool restored = engine->kernel().RestoreFrom(r, [&](uint64_t pa, SnapReader& fr) {
      uint64_t host = engine->EnsureHostFrame(pa);
      if (host == kNoPage) {
        return false;
      }
      bool nonzero = fr.GetBool();
      if (!fr.ok()) {
        return false;
      }
      if (!nonzero) {
        machine.mem().ZeroFrame(host);
        return true;
      }
      for (size_t i = 0; i < kWordsPerPage; ++i) {
        machine.mem().WriteU64(host + i * 8, fr.GetU64());
      }
      return fr.ok();
    });
    if (restored && r.ok()) {
      std::vector<uint8_t> state = r.GetBlob();
      SnapReader sr(state);
      engine->SnapApplyState(sr);
      out.device_state = r.GetBlob();
      out.blkfs_state = r.GetBlob();
      restored = sr.ok() && r.ok();
    }
    if (!restored || !r.ok()) {
      // Reject the stream, reclaim whatever the half-restore allocated,
      // and report the typed fault — never a host abort.
      engine->KillFromFault();
      machine.faults().Note(out.fault);
      return out;
    }
  } catch (const ContainerKilled& killed) {
    out.fault = killed.report();
    return out;
  } catch (const FatalHostError&) {
    if (booted) {
      engine->KillFromFault();
    }
    throw;  // genuinely host-fatal; not a stream problem
  }

  out.ok = true;
  out.engine = std::move(engine);
  return out;
}

bool ApplySnapshotDeviceState(VirtNic& nic, const std::vector<uint8_t>& blob) {
  SnapReader r(blob);
  if (!r.GetBool() || !r.ok()) {
    return false;
  }
  nic.SnapApply(r);
  return r.ok();
}

std::unique_ptr<ContainerEngine> CloneContainer(ContainerEngine& parent) {
  Machine& machine = parent.machine();
  SimContext& ctx = machine.ctx();
  ctx.ChargeWork(ctx.cost().snap_fixed);

  std::unique_ptr<ContainerEngine> clone = MakeEngine(machine, parent.kind());
  SnapWriter cfg;
  parent.SnapCaptureConfig(cfg);
  {
    SnapReader cr(cfg.bytes());
    clone->SnapApplyConfig(cr);
  }
  clone->Boot();

  ContainerEngine* clone_ptr = clone.get();
  clone->kernel().CloneFrom(parent.kernel(), [&parent, clone_ptr](uint64_t parent_pa) {
    uint64_t host = parent.HostFrameFor(parent_pa);
    if (host == kNoPage) {
      // Never-backed lazy page: give the clone its own private zero page
      // instead of a share record (there is nothing to share).
      return clone_ptr->AllocDataPage();
    }
    return clone_ptr->AdoptSharedFrame(host);
  });

  // The parent's writable mappings were just demoted to read-only; flush
  // every TLB context it may have cached them under.
  machine.cpu().tlb().InvalidatePcidRange(parent.pcid_base(), parent.pcid_count());

  SnapWriter state;
  parent.SnapCaptureState(state);
  {
    SnapReader sr(state.bytes());
    clone->SnapApplyState(sr);
  }
  return clone;
}

}  // namespace cki
