// Tests for src/blkfs: page-cache hit/evict/writeback ordering, the
// O_DIRECT bypass, layer-chain resolution in the host-side LayerStore,
// cross-container dedup refcounts with exact frame footprints on
// kill/reap, mmap pin cooperation, snapshot/clone round trips, and the
// cluster-level trace-hash determinism contract at several thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/blkfs/blkfs.h"
#include "src/cki/cki_engine.h"
#include "src/cluster/sim_cluster.h"
#include "src/fault/fault_domain.h"
#include "src/runtime/runtime.h"
#include "src/snap/snapshot.h"
#include "src/workloads/blkfs_workload.h"

namespace cki {
namespace {

constexpr uint64_t kFileName = 0x66696c65;  // "file"
constexpr uint64_t kLogName = 0x6c6f67;     // "log"
constexpr uint64_t kCkiSegmentPages = 1024;

BlkfsImageSpec OneFile(uint64_t blocks, uint64_t seed = 3) {
  return BlkfsImageSpec{{{.name = kFileName, .blocks = blocks, .tag_seed = seed}}};
}

int64_t OpenBlkfs(ContainerEngine& e, uint64_t name, uint64_t extra_flags = 0) {
  SyscallResult r = e.UserSyscall(
      SyscallRequest{.no = Sys::kOpen, .arg0 = name, .arg1 = kOpenBlkfs | extra_flags});
  EXPECT_TRUE(r.ok());
  return r.value;
}

int64_t Pread(ContainerEngine& e, int64_t fd, uint64_t bytes, uint64_t off) {
  return e.UserSyscall(SyscallRequest{.no = Sys::kPread,
                                      .arg0 = static_cast<uint64_t>(fd),
                                      .arg1 = bytes,
                                      .arg2 = off})
      .value;
}

int64_t Pwrite(ContainerEngine& e, int64_t fd, uint64_t bytes, uint64_t off) {
  return e.UserSyscall(SyscallRequest{.no = Sys::kPwrite,
                                      .arg0 = static_cast<uint64_t>(fd),
                                      .arg1 = bytes,
                                      .arg2 = off})
      .value;
}

int64_t FsyncFd(ContainerEngine& e, int64_t fd) {
  return e.UserSyscall(SyscallRequest{.no = Sys::kFsync, .arg0 = static_cast<uint64_t>(fd)})
      .value;
}

// --- page cache basics ------------------------------------------------------

TEST(BlkfsCache, HitMissAndLruBasics) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  LayerStore store(bed.machine());
  BlkfsImageSpec spec = OneFile(8);
  BlkfsConfig cfg;
  cfg.readahead_window = 0;  // isolate hit/miss accounting
  Blkfs fs(bed.engine(), store, BuildBlkfsImage(store, spec), spec, cfg);

  int64_t fd = OpenBlkfs(bed.engine(), kFileName);
  EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, 0), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(fs.counters().misses, 1u);
  EXPECT_EQ(fs.counters().hits, 0u);
  EXPECT_EQ(fs.cached_pages(), 1u);

  EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, 0), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(fs.counters().misses, 1u);
  EXPECT_EQ(fs.counters().hits, 1u);

  // A second block is its own cache entry; reads past EOF return 0.
  EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, 3 * kPageSize), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(fs.cached_pages(), 2u);
  EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, 64 * kPageSize), 0);
}

TEST(BlkfsCache, ReadaheadFollowsSequentialRuns) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  LayerStore store(bed.machine());
  BlkfsImageSpec spec = OneFile(24);
  Blkfs fs(bed.engine(), store, BuildBlkfsImage(store, spec), spec);  // window = 8

  int64_t fd = OpenBlkfs(bed.engine(), kFileName);
  for (uint64_t b = 0; b < 24; ++b) {
    EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, b * kPageSize),
              static_cast<int64_t>(kPageSize));
  }
  // Miss at 0 prefetches 1..8; hits extend the run, so the boundary miss
  // at 9 prefetches 10..17, and 18 prefetches the 19..23 tail.
  EXPECT_EQ(fs.counters().misses, 3u);
  EXPECT_EQ(fs.counters().readahead, 21u);
  EXPECT_EQ(fs.counters().hits, 21u);
  EXPECT_EQ(fs.cached_pages(), 24u);

  // Warm re-scan: pure hits, no device traffic.
  uint64_t dev_reads = fs.device_stats().reads;
  for (uint64_t b = 0; b < 24; ++b) {
    EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, b * kPageSize),
              static_cast<int64_t>(kPageSize));
  }
  EXPECT_EQ(fs.counters().misses, 3u);
  EXPECT_EQ(fs.device_stats().reads, dev_reads);
}

TEST(BlkfsCache, WritebackEpochIsAsyncAndFsyncIsABarrier) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  LayerStore store(bed.machine());
  BlkfsImageSpec spec = OneFile(4);
  BlkfsConfig cfg;
  cfg.readahead_window = 0;
  cfg.writeback_epoch = 8;
  Blkfs fs(bed.engine(), store, BuildBlkfsImage(store, spec), spec, cfg);

  int64_t fd = OpenBlkfs(bed.engine(), kLogName);  // fresh empty file
  for (uint64_t b = 0; b < 4; ++b) {
    EXPECT_EQ(Pwrite(bed.engine(), fd, kPageSize, b * kPageSize),
              static_cast<int64_t>(kPageSize));
  }
  // Below the epoch: dirty pages sit in the cache, nothing hit the device.
  EXPECT_EQ(fs.dirty_pages(), 4u);
  EXPECT_EQ(fs.counters().writebacks, 0u);
  EXPECT_EQ(fs.device_stats().writes, 0u);
  EXPECT_EQ(fs.device_stats().flushes, 0u);

  // fsync: writeback of exactly the dirty pages, then the FLUSH barrier.
  EXPECT_EQ(FsyncFd(bed.engine(), fd), 0);
  EXPECT_EQ(fs.dirty_pages(), 0u);
  EXPECT_EQ(fs.counters().writebacks, 4u);
  EXPECT_EQ(fs.device_stats().writes, 4u);
  EXPECT_EQ(fs.device_stats().flushes, 1u);

  // Hitting the epoch triggers an asynchronous batch: writes, no flush.
  for (uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(Pwrite(bed.engine(), fd, kPageSize, b * kPageSize),
              static_cast<int64_t>(kPageSize));
  }
  EXPECT_EQ(fs.dirty_pages(), 0u);
  EXPECT_EQ(fs.counters().writebacks, 12u);
  EXPECT_EQ(fs.device_stats().flushes, 1u);
}

TEST(BlkfsCache, ODirectBypassesTheCache) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  LayerStore store(bed.machine());
  BlkfsImageSpec spec = OneFile(8);
  Blkfs fs(bed.engine(), store, BuildBlkfsImage(store, spec), spec);

  int64_t fd = OpenBlkfs(bed.engine(), kFileName, kOpenDirect);
  EXPECT_EQ(Pread(bed.engine(), fd, 4 * kPageSize, 0), static_cast<int64_t>(4 * kPageSize));
  EXPECT_EQ(fs.counters().direct_reads, 4u);
  EXPECT_EQ(fs.counters().misses, 0u);
  EXPECT_EQ(fs.cached_pages(), 0u);
  EXPECT_EQ(fs.device_stats().reads, 4u);

  EXPECT_EQ(Pwrite(bed.engine(), fd, 2 * kPageSize, 0), static_cast<int64_t>(2 * kPageSize));
  EXPECT_EQ(fs.counters().direct_writes, 2u);
  EXPECT_EQ(fs.cached_pages(), 0u);
  EXPECT_EQ(fs.dirty_pages(), 0u);
  EXPECT_EQ(fs.device_stats().writes, 2u);
  // The direct write landed in the delta layer, not the base image.
  EXPECT_EQ(store.delta(fs.frontend().view()).size(), 2u);
}

// --- host-side layer chain --------------------------------------------------

TEST(BlkfsLayers, ResolutionWalksDeltaThenBase) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store(machine);
  int image = store.RegisterImage({10, 11, 12, 13});
  int view = store.OpenView(image, 1);

  BlkResolution base = store.Resolve(view, 1);
  EXPECT_FALSE(base.from_delta);
  EXPECT_TRUE(base.base_present);
  EXPECT_EQ(base.tag, 11u);
  EXPECT_EQ(base.chain_steps, 2);
  EXPECT_EQ(base.host_pa, kNoPage);  // not materialized yet

  bool fresh = false;
  uint64_t pa = store.MaterializeBase(view, 1, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_NE(pa, kNoPage);
  EXPECT_EQ(store.MaterializeBase(view, 1, &fresh), pa);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(store.materialized_frames(image), 1u);
  EXPECT_EQ(store.Resolve(view, 1).host_pa, pa);

  // A delta write shadows the base block without touching the image.
  store.WriteDelta(view, 1, 99);
  BlkResolution delta = store.Resolve(view, 1);
  EXPECT_TRUE(delta.from_delta);
  EXPECT_EQ(delta.tag, 99u);
  EXPECT_EQ(delta.chain_steps, 1);
  EXPECT_EQ(store.image(image).block_tags[1], 11u);

  // Past the base extent: a hole until written.
  BlkResolution hole = store.Resolve(view, 9);
  EXPECT_FALSE(hole.base_present);
  EXPECT_FALSE(hole.from_delta);

  // Clones copy the parent delta and then diverge.
  int clone = store.CloneView(view, 2);
  EXPECT_TRUE(store.Resolve(clone, 1).from_delta);
  store.WriteDelta(clone, 2, 77);
  EXPECT_TRUE(store.Resolve(clone, 2).from_delta);
  EXPECT_FALSE(store.Resolve(view, 2).from_delta);

  // Identical content dedups to the same image id.
  EXPECT_EQ(store.RegisterImage({10, 11, 12, 13}), image);
  EXPECT_NE(store.RegisterImage({10, 11, 12, 14}), image);
}

TEST(BlkfsLayers, BadImageIdOrBlockIsAHostError) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store(machine);
  int image = store.RegisterImage({10, 11});
  EXPECT_THROW(store.OpenView(image + 1, 1), FatalHostError);
  EXPECT_THROW(store.OpenView(-1, 1), FatalHostError);
  EXPECT_EQ(store.view_count(), 0u);

  int view = store.OpenView(image, 1);
  EXPECT_THROW(store.MaterializeBase(view, 2), FatalHostError);
  EXPECT_EQ(store.materialized_frames(image), 0u);
  EXPECT_NE(store.MaterializeBase(view, 1), kNoPage);
}

// --- cross-container dedup + exact reap footprint ---------------------------

TEST(BlkfsDedup, SiblingsShareBaseFramesAndReapExactly) {
  constexpr uint64_t kBlocks = 32;
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store(machine);
  BlkfsImageSpec spec = OneFile(kBlocks);
  int image = BuildBlkfsImage(store, spec);
  BlkfsConfig cfg;
  cfg.cache_pages = kBlocks;

  auto a = std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages);
  a->Boot();
  auto b = std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages);
  b->Boot();
  uint64_t a_owned = machine.frames().OwnedFrames(a->id());
  uint64_t b_owned = machine.frames().OwnedFrames(b->id());
  auto fs_a = std::make_unique<Blkfs>(*a, store, image, spec, cfg);
  auto fs_b = std::make_unique<Blkfs>(*b, store, image, spec, cfg);

  int64_t fd_a = OpenBlkfs(*a, kFileName);
  int64_t fd_b = OpenBlkfs(*b, kFileName);
  for (uint64_t blk = 0; blk < kBlocks; ++blk) {
    EXPECT_EQ(Pread(*a, fd_a, kPageSize, blk * kPageSize), static_cast<int64_t>(kPageSize));
    EXPECT_EQ(Pread(*b, fd_b, kPageSize, blk * kPageSize), static_cast<int64_t>(kPageSize));
  }

  // One physical copy machine-wide; each container maps it via shares and
  // pays zero private frames for read-only image data.
  EXPECT_EQ(store.materialized_frames(image), kBlocks);
  EXPECT_EQ(machine.frames().OwnedFrames(a->id()), a_owned);
  EXPECT_EQ(machine.frames().OwnedFrames(b->id()), b_owned);
  EXPECT_EQ(machine.frames().SharedFrames(a->id()), kBlocks);
  EXPECT_EQ(machine.frames().SharedFrames(b->id()), kBlocks);
  EXPECT_EQ(fs_a->counters().base_shares, kBlocks);
  // The device filled each base frame exactly once; the sibling's reads
  // were pure share grants.
  EXPECT_EQ(fs_a->device_stats().reads + fs_b->device_stats().reads, kBlocks);

  // Killing one sibling returns exactly its footprint; the other keeps
  // reading from its intact cache.
  a->KillFromFault();
  EXPECT_EQ(machine.frames().OwnedFrames(a->id()), 0u);
  EXPECT_EQ(machine.frames().SharedFrames(a->id()), 0u);
  uint64_t hits_before = fs_b->counters().hits;
  EXPECT_EQ(Pread(*b, fd_b, kPageSize, 5 * kPageSize), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(fs_b->counters().hits, hits_before + 1);

  b->KillFromFault();
  EXPECT_EQ(machine.frames().OwnedFrames(b->id()), 0u);
  EXPECT_EQ(machine.frames().SharedFrames(b->id()), 0u);
  // The base image survives container reaps: it is host-owned.
  EXPECT_EQ(store.materialized_frames(image), kBlocks);

  fs_a.reset();
  fs_b.reset();
}

// --- mmap cooperation -------------------------------------------------------

TEST(BlkfsMmap, EvictionSkipsMappedPages) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  LayerStore store(bed.machine());
  BlkfsImageSpec spec = OneFile(16);
  BlkfsConfig cfg;
  cfg.cache_pages = 4;
  cfg.readahead_window = 0;
  Blkfs fs(bed.engine(), store, BuildBlkfsImage(store, spec), spec, cfg);

  int64_t fd = OpenBlkfs(bed.engine(), kFileName);
  SyscallResult map = bed.engine().UserSyscall(SyscallRequest{.no = Sys::kMmap,
                                                              .arg0 = kPageSize,
                                                              .arg1 = kProtRead,
                                                              .arg2 = kMapShared,
                                                              .arg3 = static_cast<uint64_t>(fd)});
  ASSERT_TRUE(map.ok());
  uint64_t va = static_cast<uint64_t>(map.value);
  EXPECT_EQ(bed.engine().UserTouch(va, /*write=*/false), TouchResult::kOk);
  EXPECT_EQ(fs.cached_pages(), 1u);

  // Thrash well past capacity: the mapped page is pinned and survives.
  for (uint64_t blk = 1; blk < 16; ++blk) {
    EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, blk * kPageSize),
              static_cast<int64_t>(kPageSize));
  }
  EXPECT_GT(fs.counters().evictions, 0u);
  EXPECT_LE(fs.cached_pages(), 5u);
  uint64_t hits_before = fs.counters().hits;
  EXPECT_EQ(Pread(bed.engine(), fd, kPageSize, 0), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(fs.counters().hits, hits_before + 1);
}

TEST(BlkfsMmap, SharedMapsWriteBackAndPrivateMapsCow) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  LayerStore store(bed.machine());
  BlkfsImageSpec spec = OneFile(8);
  Blkfs fs(bed.engine(), store, BuildBlkfsImage(store, spec), spec);
  ContainerEngine& e = bed.engine();

  // kMapShared: a store dirties the file page; fsync writes it back.
  int64_t fd = OpenBlkfs(e, kFileName);
  SyscallResult shared = e.UserSyscall(SyscallRequest{.no = Sys::kMmap,
                                                      .arg0 = kPageSize,
                                                      .arg1 = kProtRead | kProtWrite,
                                                      .arg2 = kMapShared,
                                                      .arg3 = static_cast<uint64_t>(fd)});
  ASSERT_TRUE(shared.ok());
  uint64_t shared_va = static_cast<uint64_t>(shared.value);
  EXPECT_EQ(e.UserTouch(shared_va, /*write=*/true), TouchResult::kOk);
  EXPECT_EQ(fs.dirty_pages(), 1u);
  // The first store to a base-image page privatized it (CoW break) so the
  // shared host frame stayed pristine for siblings.
  EXPECT_EQ(fs.counters().cow_breaks, 1u);
  EXPECT_EQ(FsyncFd(e, fd), 0);
  EXPECT_EQ(fs.dirty_pages(), 0u);
  EXPECT_EQ(fs.device_stats().writes, 1u);
  EXPECT_EQ(store.delta(fs.frontend().view()).size(), 1u);

  // Writeback write-protected the mapping: the next store refaults into
  // dirty tracking instead of mutating a clean page invisibly.
  EXPECT_EQ(e.UserTouch(shared_va, /*write=*/true), TouchResult::kOk);
  EXPECT_EQ(fs.dirty_pages(), 1u);

  // kMapPrivate: the store copies into an anonymous page; the file stays
  // clean and fsync has nothing to do.
  FsyncFd(e, fd);
  uint64_t writes_before = fs.device_stats().writes;
  SyscallResult priv = e.UserSyscall(SyscallRequest{.no = Sys::kMmap,
                                                    .arg0 = kPageSize,
                                                    .arg1 = kProtRead | kProtWrite,
                                                    .arg2 = kMapPrivate,
                                                    .arg3 = static_cast<uint64_t>(fd)});
  ASSERT_TRUE(priv.ok());
  uint64_t priv_va = static_cast<uint64_t>(priv.value);
  EXPECT_EQ(e.UserTouch(priv_va, /*write=*/true), TouchResult::kOk);
  EXPECT_EQ(fs.dirty_pages(), 0u);
  EXPECT_EQ(FsyncFd(e, fd), 0);
  EXPECT_EQ(fs.device_stats().writes, writes_before);
}

// --- snapshot / clone -------------------------------------------------------

TEST(BlkfsSnap, CheckpointRestoreRoundTripIsBitIdentical) {
  Machine source(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore source_store(source);
  BlkfsImageSpec spec = OneFile(8);
  int image = BuildBlkfsImage(source_store, spec);
  auto tmpl = std::make_unique<CkiEngine>(source, CkiAblation::kNone, kCkiSegmentPages);
  tmpl->Boot();
  auto fs = std::make_unique<Blkfs>(*tmpl, source_store, image, spec);

  int64_t fd = OpenBlkfs(*tmpl, kFileName);
  EXPECT_EQ(Pread(*tmpl, fd, 4 * kPageSize, 0), static_cast<int64_t>(4 * kPageSize));
  EXPECT_EQ(Pwrite(*tmpl, fd, kPageSize, 2 * kPageSize), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(FsyncFd(*tmpl, fd), 0);

  SnapshotImage img = CheckpointContainer(*tmpl, nullptr, nullptr, fs.get());
  uint64_t captured_hash = fs->trace_hash();

  // Restore on two fresh machines; both must rebuild the same filesystem.
  auto restore = [&](Machine& machine, LayerStore& store) {
    RestoreOutcome out = RestoreContainer(machine, img);
    EXPECT_TRUE(out.ok);
    std::unique_ptr<Blkfs> rfs = RestoreBlkfsState(*out.engine, store, out.blkfs_state);
    EXPECT_NE(rfs, nullptr);
    return std::make_pair(std::move(out.engine), std::move(rfs));
  };
  Machine m2(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store2(m2);
  auto [eng2, fs2] = restore(m2, store2);
  Machine m3(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store3(m3);
  auto [eng3, fs3] = restore(m3, store3);

  EXPECT_EQ(fs2->trace_hash(), captured_hash);
  EXPECT_EQ(fs3->trace_hash(), captured_hash);
  // The restored delta shadows block 2 exactly as the source left it.
  EXPECT_EQ(store2.delta(fs2->frontend().view()), source_store.delta(fs->frontend().view()));

  // Re-checkpointing both restored containers yields bit-identical
  // streams: nothing about the restore depends on the machine it ran on.
  SnapshotImage img2 = CheckpointContainer(*eng2, nullptr, nullptr, fs2.get());
  SnapshotImage img3 = CheckpointContainer(*eng3, nullptr, nullptr, fs3.get());
  EXPECT_EQ(img2.bytes, img3.bytes);

  // The restored cache answers from memory and the file reads back whole.
  int64_t fd2 = OpenBlkfs(*eng2, kFileName);
  uint64_t hits_before = fs2->counters().hits;
  EXPECT_EQ(Pread(*eng2, fd2, 4 * kPageSize, 0), static_cast<int64_t>(4 * kPageSize));
  EXPECT_GT(fs2->counters().hits, hits_before);
}

TEST(BlkfsSnap, CloneForksTheDeltaAndSharesTheCache) {
  Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
  LayerStore store(machine);
  BlkfsImageSpec spec = OneFile(8);
  int image = BuildBlkfsImage(store, spec);
  auto parent = std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages);
  parent->Boot();
  auto fs = std::make_unique<Blkfs>(*parent, store, image, spec);

  int64_t fd = OpenBlkfs(*parent, kFileName);
  EXPECT_EQ(Pread(*parent, fd, 4 * kPageSize, 0), static_cast<int64_t>(4 * kPageSize));
  EXPECT_EQ(Pwrite(*parent, fd, kPageSize, 0), static_cast<int64_t>(kPageSize));

  std::unique_ptr<ContainerEngine> clone = CloneContainer(*parent);
  ASSERT_NE(clone, nullptr);
  std::unique_ptr<Blkfs> cfs = Blkfs::Clone(*clone, *fs);
  // Clone() flushed the parent, so both sides agree on the quiesced state.
  EXPECT_EQ(cfs->trace_hash(), fs->trace_hash());
  EXPECT_EQ(store.delta(cfs->frontend().view()), store.delta(fs->frontend().view()));
  EXPECT_EQ(cfs->cached_pages(), fs->cached_pages());

  // The clone reads from the shared (CoW) cache pages without device I/O.
  int64_t cfd = OpenBlkfs(*clone, kFileName);
  uint64_t dev_reads = cfs->device_stats().reads;
  EXPECT_EQ(Pread(*clone, cfd, 4 * kPageSize, 0), static_cast<int64_t>(4 * kPageSize));
  EXPECT_EQ(cfs->device_stats().reads, dev_reads);

  // Divergence: a clone write lands in the clone's delta only.
  EXPECT_EQ(Pwrite(*clone, cfd, kPageSize, 5 * kPageSize), static_cast<int64_t>(kPageSize));
  EXPECT_EQ(FsyncFd(*clone, cfd), 0);
  EXPECT_TRUE(store.Resolve(cfs->frontend().view(), 5).from_delta);
  EXPECT_FALSE(store.Resolve(fs->frontend().view(), 5).from_delta);
}

// --- determinism across thread counts ---------------------------------------

TEST(BlkfsCluster, TraceHashIsThreadCountInvariant) {
  auto run = [](uint32_t threads) {
    SimCluster cluster(ClusterConfig{.shards = 4, .threads = threads, .root_seed = 17});
    ClusterResult result = cluster.Run([](const ShardTask& task) {
      ShardResult shard;
      shard.index = task.index;
      Machine machine(MachineConfigFor(RuntimeKind::kCki, Deployment::kBareMetal));
      LayerStore store(machine);
      BlkfsImageSpec spec = OneFile(16, /*seed=*/task.seed % 7);
      int image = BuildBlkfsImage(store, spec);
      auto engine = std::make_unique<CkiEngine>(machine, CkiAblation::kNone, kCkiSegmentPages);
      engine->Boot();
      auto fs = std::make_unique<Blkfs>(*engine, store, image, spec);
      RunBlkfsWal(*engine, *fs, /*transactions=*/8);
      RunBlkfsScan(*engine, *fs, kFileName, 16);
      shard.HashMix(fs->trace_hash());
      shard.HashMix(machine.faults().trace_hash());
      engine->KillFromFault();
      EXPECT_EQ(machine.frames().OwnedFrames(engine->id()), 0u);
      EXPECT_EQ(machine.frames().SharedFrames(engine->id()), 0u);
      shard.sim_ns = machine.ctx().clock().now();
      return shard;
    });
    EXPECT_TRUE(result.all_ok());
    return result.trace_hash();
  };
  uint64_t at1 = run(1);
  EXPECT_EQ(run(2), at1);
  EXPECT_EQ(run(8), at1);
}

}  // namespace
}  // namespace cki
