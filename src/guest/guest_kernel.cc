// Lifecycle, scheduling, and syscall layer of the model guest kernel.
#include "src/guest/guest_kernel.h"

#include <algorithm>
#include <cassert>

#include "src/obs/trace_scope.h"

#include "src/hw/pte.h"

namespace cki {

std::string_view HypercallOpName(HypercallOp op) {
  switch (op) {
    case HypercallOp::kNop:
      return "nop";
    case HypercallOp::kPauseVcpu:
      return "pause_vcpu";
    case HypercallOp::kSetTimer:
      return "set_timer";
    case HypercallOp::kSendIpi:
      return "send_ipi";
    case HypercallOp::kVirtioKick:
      return "virtio_kick";
    case HypercallOp::kYield:
      return "yield";
    case HypercallOp::kLogByte:
      return "log_byte";
    case HypercallOp::kCount:
      break;
  }
  return "unknown";
}

GuestKernel::GuestKernel(SimContext& ctx, EnginePort& port)
    : ctx_(ctx),
      port_(port),
      editor_([&port](uint64_t pa) { return port.ReadPte(pa); },
              [&port](int level) { return port.AllocPtp(level); },
              [&port](uint64_t pte_pa, uint64_t value, int level, uint64_t va) {
                return port.StorePte(pte_pa, value, level, va);
              }) {}

SimNanos GuestKernel::HandlerCost(Sys s) const {
  const CostModel& c = ctx_.cost();
  // Handler *body* beyond the generic 40 ns minimum charged with the entry
  // path. Values give native lmbench-like absolute latencies; the paper
  // compares containers by ratio, which the engine mechanisms produce.
  switch (s) {
    case Sys::kGetpid:
    case Sys::kGettimeofday:
      return 0;
    case Sys::kRead:
    case Sys::kWrite:
      return 60;
    case Sys::kPread:
    case Sys::kPwrite:
      return 70;
    case Sys::kOpen:
      return 260;
    case Sys::kClose:
      return 110;
    case Sys::kStat:
      return 210;
    case Sys::kFstat:
      return 110;
    case Sys::kFsync:
      return 150;
    case Sys::kMmap:
      return 260;
    case Sys::kMunmap:
      return 210;
    case Sys::kMprotect:
      return 160;
    case Sys::kBrk:
      return 60;
    case Sys::kFork:
      return 24960;  // dup_mm, task struct, scheduler insertion
    case Sys::kExecve:
      return 29960;  // binary load, mm replacement
    case Sys::kExit:
      return 7960;   // task teardown beyond page-table work
    case Sys::kWaitpid:
      return 160;
    case Sys::kPipe:
      return 360;
    case Sys::kSocketpair:
      return 410;
    case Sys::kSchedYield:
      return 110;
    case Sys::kEpollWait:
      return 260;
    case Sys::kSendto:
    case Sys::kRecvfrom:
      return c.net_stack_per_packet;
    case Sys::kListen:
      return 310;
    case Sys::kAccept:
      return 460;
    case Sys::kConnect:
      return c.net_stack_per_packet;  // handshake traverses the stack
    case Sys::kCount:
      break;
  }
  return 0;
}

int GuestKernel::InstallNetSocket(int conn_id) {
  Process& proc = current();
  int fdn = proc.AllocFd();
  proc.fds[static_cast<size_t>(fdn)] = FileDesc{.kind = FdKind::kNetSocket, .net_conn = conn_id};
  return fdn;
}

int GuestKernel::NewProcessSlot() {
  int pid = next_pid_++;
  auto proc = std::make_unique<Process>();
  proc->pid = pid;
  proc->asid = next_asid_++;
  procs_.Adopt(std::move(proc));
  return pid;
}

int GuestKernel::CreateInitProcess() {
  int pid = NewProcessSlot();
  Process& proc = *procs_.Get(pid);
  proc.pt_root = NewAddressSpace();
  proc.vmas.Insert(Vma{.start = kUserTextBase,
                       .end = kUserTextBase + kTextPages * kPageSize,
                       .prot = kProtRead | kProtExec,
                       .kind = VmaKind::kText});
  proc.vmas.Insert(Vma{.start = kUserStackTop - kStackPages * kPageSize,
                       .end = kUserStackTop,
                       .prot = kProtRead | kProtWrite,
                       .kind = VmaKind::kStack});
  // stdin/stdout/stderr on the console inode.
  int console = tmpfs_.OpenOrCreate("/dev/console");
  proc.fds.resize(3);
  for (int i = 0; i < 3; ++i) {
    proc.fds[static_cast<size_t>(i)] = FileDesc{.kind = FdKind::kTmpfsFile, .ino = console};
  }
  if (current_pid_ < 0) {
    current_pid_ = pid;
    port_.LoadAddressSpace(proc.pt_root, proc.asid);
  }
  return pid;
}

Process* GuestKernel::process(int pid) { return procs_.Get(pid); }

Process& GuestKernel::current() {
  Process* p = process(current_pid_);
  assert(p != nullptr && "no current process");
  return *p;
}

void GuestKernel::SwitchTo(int pid) {
  Process* next = process(pid);
  assert(next != nullptr && next->state == ProcState::kRunnable);
  if (pid == current_pid_) {
    return;
  }
  ctx_.Charge(ctx_.cost().context_switch_kernel, PathEvent::kContextSwitch);
  current_pid_ = pid;
  port_.LoadAddressSpace(next->pt_root, next->asid);
}

int GuestKernel::Schedule() {
  // Round robin: next runnable pid after the current one.
  std::vector<int> pids;
  pids.reserve(procs_.size());
  procs_.ForEach([&pids](Process& proc) {
    if (proc.state == ProcState::kRunnable) {
      pids.push_back(proc.pid);
    }
  });
  if (pids.empty()) {
    return -1;
  }
  // pids are ascending by construction (pid-indexed slab) — no sort.
  auto it = std::upper_bound(pids.begin(), pids.end(), current_pid_);
  int next = (it == pids.end()) ? pids.front() : *it;
  SwitchTo(next);
  return next;
}

void GuestKernel::KillAllProcesses() {
  // Pure data-structure teardown; the frames themselves are swept by the
  // engine's OwnerId reclaim, and the dying container's page tables are
  // never walked again.
  procs_.ForEach([](Process& proc) {
    proc.fds.clear();
    proc.vmas.Clear();
    proc.pt_root = 0;
    proc.state = ProcState::kZombie;
  });
  current_pid_ = -1;
  channels_.clear();
  page_refs_.clear();
  file_pages_.clear();
  kernel_image_pas_.clear();
}

std::vector<int> GuestKernel::LivePids() const {
  std::vector<int> pids;
  procs_.ForEach([&pids](Process& proc) {
    if (proc.pt_root != 0) {
      pids.push_back(proc.pid);
    }
  });
  return pids;
}

size_t GuestKernel::live_processes() const {
  size_t n = 0;
  procs_.ForEach([&n](Process& proc) {
    if (proc.state == ProcState::kRunnable || proc.state == ProcState::kBlocked) {
      n++;
    }
  });
  return n;
}

SyscallResult GuestKernel::HandleSyscall(const SyscallRequest& req) {
  TraceScope obs_scope(ctx_, SysPhase(req.no));
  syscalls_++;
  ctx_.ChargeWork(HandlerCost(req.no));
  Process& proc = current();
  switch (req.no) {
    case Sys::kGetpid:
      return {proc.pid};
    case Sys::kGettimeofday:
      return {static_cast<int64_t>(ctx_.clock().now() / 1000)};
    case Sys::kRead:
      return SysRead(proc, req);
    case Sys::kWrite:
      return SysWrite(proc, req);
    case Sys::kPread:
      return SysRead(proc, req);
    case Sys::kPwrite:
      return SysWrite(proc, req);
    case Sys::kOpen:
      return SysOpen(proc, req);
    case Sys::kClose:
      return SysClose(proc, req);
    case Sys::kStat:
      return SysStat(proc, req);
    case Sys::kFstat:
      return SysStat(proc, req);
    case Sys::kFsync:
      return SysFsync(proc, req);
    case Sys::kMmap:
      return SysMmap(proc, req);
    case Sys::kMunmap:
      return SysMunmap(proc, req);
    case Sys::kMprotect:
      return SysMprotect(proc, req);
    case Sys::kBrk:
      return SysBrk(proc, req);
    case Sys::kFork:
      return SysFork(proc);
    case Sys::kExecve:
      return SysExecve(proc);
    case Sys::kExit:
      return SysExit(proc, req);
    case Sys::kWaitpid:
      return SysWaitpid(proc, req);
    case Sys::kPipe:
      return SysPipe(proc);
    case Sys::kSocketpair:
      return SysSocketpair(proc);
    case Sys::kSchedYield:
      Schedule();
      return {0};
    case Sys::kEpollWait:
      return SysEpollWait(proc, req);
    case Sys::kSendto:
      return SysSendRecv(proc, req, /*send=*/true);
    case Sys::kRecvfrom:
      return SysSendRecv(proc, req, /*send=*/false);
    case Sys::kListen:
      return SysListen(proc, req);
    case Sys::kAccept:
      return SysAccept(proc, req);
    case Sys::kConnect:
      return SysConnect(proc, req);
    case Sys::kCount:
      break;
  }
  return {kEINVAL};
}

// --- file + ipc syscalls -----------------------------------------------

SyscallResult GuestKernel::SysRead(Process& proc, const SyscallRequest& req) {
  FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
  if (fd == nullptr) {
    return {kEBADF};
  }
  uint64_t bytes = req.arg1;
  switch (fd->kind) {
    case FdKind::kTmpfsFile: {
      const TmpfsInode* node = tmpfs_.Get(fd->ino);
      if (node == nullptr) {
        return {kEBADF};
      }
      uint64_t offset = (req.no == Sys::kPread) ? req.arg2 : fd->offset;
      uint64_t avail = (offset < node->size) ? node->size - offset : 0;
      uint64_t got = std::min(bytes, avail);
      ctx_.ChargeWork(ctx_.cost().copy_per_4k * ((got + kPageSize - 1) / kPageSize));
      if (req.no != Sys::kPread) {
        fd->offset += got;
      }
      return {static_cast<int64_t>(got)};
    }
    case FdKind::kChannelRead:
    case FdKind::kChannelBoth: {
      auto it = channels_.find(fd->channel);
      if (it == channels_.end()) {
        return {kEBADF};
      }
      uint64_t got = it->second.Read(bytes);
      if (got == 0) {
        return {kEAGAIN};  // caller (or the workload driver) blocks/yields
      }
      ctx_.ChargeWork(ctx_.cost().copy_per_4k * ((got + kPageSize - 1) / kPageSize));
      return {static_cast<int64_t>(got)};
    }
    case FdKind::kNetSocket:
      return SysSendRecv(proc, req, /*send=*/false);
    case FdKind::kBlkFile: {
      if (blkfs_ == nullptr) {
        return {kEBADF};
      }
      uint64_t offset = (req.no == Sys::kPread) ? req.arg2 : fd->offset;
      int64_t got = blkfs_->Read(fd->ino - kBlkfsInoBase, offset, bytes, fd->direct);
      if (got < 0) {
        return {got};
      }
      if (!fd->direct) {
        // Copy-out from the page cache; O_DIRECT lands in the user buffer.
        ctx_.ChargeWork(ctx_.cost().copy_per_4k *
                        ((static_cast<uint64_t>(got) + kPageSize - 1) / kPageSize));
      }
      if (req.no != Sys::kPread) {
        fd->offset += static_cast<uint64_t>(got);
      }
      return {got};
    }
    default:
      return {kEBADF};
  }
}

SyscallResult GuestKernel::SysWrite(Process& proc, const SyscallRequest& req) {
  FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
  if (fd == nullptr) {
    return {kEBADF};
  }
  uint64_t bytes = req.arg1;
  switch (fd->kind) {
    case FdKind::kTmpfsFile: {
      TmpfsInode* node = tmpfs_.Get(fd->ino);
      if (node == nullptr) {
        return {kEBADF};
      }
      uint64_t offset = (req.no == Sys::kPwrite) ? req.arg2 : fd->offset;
      uint64_t new_end = offset + bytes;
      if (new_end > node->size) {
        int64_t new_blocks = tmpfs_.Resize(fd->ino, new_end);
        if (new_blocks > 0) {
          // Page-cache allocation for the fresh blocks.
          ctx_.ChargeWork(ctx_.cost().page_zero_4k * static_cast<uint64_t>(new_blocks));
        }
      }
      ctx_.ChargeWork(ctx_.cost().copy_per_4k * ((bytes + kPageSize - 1) / kPageSize));
      if (req.no != Sys::kPwrite) {
        fd->offset += bytes;
      }
      return {static_cast<int64_t>(bytes)};
    }
    case FdKind::kChannelWrite:
    case FdKind::kChannelBoth: {
      auto it = channels_.find(fd->channel);
      if (it == channels_.end()) {
        return {kEBADF};
      }
      uint64_t put = it->second.Write(bytes);
      if (put == 0) {
        return {kEAGAIN};
      }
      ctx_.ChargeWork(ctx_.cost().copy_per_4k * ((put + kPageSize - 1) / kPageSize));
      return {static_cast<int64_t>(put)};
    }
    case FdKind::kNetSocket:
      return SysSendRecv(proc, req, /*send=*/true);
    case FdKind::kBlkFile: {
      if (blkfs_ == nullptr) {
        return {kEBADF};
      }
      uint64_t offset = (req.no == Sys::kPwrite) ? req.arg2 : fd->offset;
      int64_t put = blkfs_->Write(fd->ino - kBlkfsInoBase, offset, bytes, fd->direct);
      if (put < 0) {
        return {put};
      }
      if (!fd->direct) {
        ctx_.ChargeWork(ctx_.cost().copy_per_4k *
                        ((static_cast<uint64_t>(put) + kPageSize - 1) / kPageSize));
      }
      if (req.no != Sys::kPwrite) {
        fd->offset += static_cast<uint64_t>(put);
      }
      return {put};
    }
    default:
      return {kEBADF};
  }
}

SyscallResult GuestKernel::SysOpen(Process& proc, const SyscallRequest& req) {
  // arg0: a small integer naming the file (paths are interned by callers).
  // arg1: open flags (kOpenBlkfs routes to the block filesystem).
  if ((req.arg1 & kOpenBlkfs) != 0) {
    if (blkfs_ == nullptr) {
      return {kENOENT};
    }
    int64_t ino = blkfs_->Open(req.arg0);
    if (ino < 0) {
      return {ino};
    }
    int fdn = proc.AllocFd();
    proc.fds[static_cast<size_t>(fdn)] =
        FileDesc{.kind = FdKind::kBlkFile,
                 .ino = kBlkfsInoBase + static_cast<int>(ino),
                 .direct = (req.arg1 & kOpenDirect) != 0};
    return {fdn};
  }
  std::string path = "/file" + std::to_string(req.arg0);
  int ino = tmpfs_.OpenOrCreate(path);
  int fdn = proc.AllocFd();
  proc.fds[static_cast<size_t>(fdn)] = FileDesc{.kind = FdKind::kTmpfsFile, .ino = ino};
  return {fdn};
}

void GuestKernel::CloseFd(Process& proc, FileDesc& fd) {
  (void)proc;
  if (fd.kind == FdKind::kChannelRead || fd.kind == FdKind::kChannelWrite ||
      fd.kind == FdKind::kChannelBoth) {
    auto it = channels_.find(fd.channel);
    if (it != channels_.end() && it->second.Release()) {
      channels_.erase(it);
    }
  } else if (fd.kind == FdKind::kNetSocket && net_ != nullptr) {
    net_->CloseConn(fd.net_conn);
  }
  fd = FileDesc{};
}

SyscallResult GuestKernel::SysClose(Process& proc, const SyscallRequest& req) {
  FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
  if (fd == nullptr) {
    return {kEBADF};
  }
  CloseFd(proc, *fd);
  return {0};
}

SyscallResult GuestKernel::SysStat(Process& proc, const SyscallRequest& req) {
  if (req.no == Sys::kFstat) {
    FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
    if (fd == nullptr) {
      return {kEBADF};
    }
    if (fd->kind == FdKind::kBlkFile) {
      return blkfs_ != nullptr ? SyscallResult{blkfs_->FileSize(fd->ino - kBlkfsInoBase)}
                               : SyscallResult{kEBADF};
    }
    if (fd->kind != FdKind::kTmpfsFile) {
      return {kEBADF};
    }
    return {static_cast<int64_t>(tmpfs_.Get(fd->ino)->size)};
  }
  std::string path = "/file" + std::to_string(req.arg0);
  int ino = tmpfs_.Lookup(path);
  if (ino < 0) {
    return {kENOENT};
  }
  return {static_cast<int64_t>(tmpfs_.Get(ino)->size)};
}

SyscallResult GuestKernel::SysFsync(Process& proc, const SyscallRequest& req) {
  FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
  if (fd == nullptr) {
    return {kEBADF};
  }
  if (fd->kind == FdKind::kBlkFile) {
    if (blkfs_ == nullptr) {
      return {kEBADF};
    }
    return {blkfs_->Fsync(fd->ino - kBlkfsInoBase)};
  }
  // tmpfs and channels are memory-backed: nothing to make durable.
  return {0};
}

SyscallResult GuestKernel::SysPipe(Process& proc) {
  int ch = next_channel_++;
  channels_.emplace(ch, IpcChannel(ChannelKind::kPipe));
  IpcChannel& channel = channels_.at(ch);
  channel.AddRef();
  channel.AddRef();
  int rfd = proc.AllocFd();
  proc.fds[static_cast<size_t>(rfd)] = FileDesc{.kind = FdKind::kChannelRead, .channel = ch};
  int wfd = proc.AllocFd();
  proc.fds[static_cast<size_t>(wfd)] = FileDesc{.kind = FdKind::kChannelWrite, .channel = ch};
  // Encodes both fds: rfd | wfd << 16 (test convenience).
  return {static_cast<int64_t>(rfd) | (static_cast<int64_t>(wfd) << 16)};
}

SyscallResult GuestKernel::SysSocketpair(Process& proc) {
  int ch = next_channel_++;
  channels_.emplace(ch, IpcChannel(ChannelKind::kUnixSocket));
  IpcChannel& channel = channels_.at(ch);
  channel.AddRef();
  channel.AddRef();
  int fd0 = proc.AllocFd();
  proc.fds[static_cast<size_t>(fd0)] = FileDesc{.kind = FdKind::kChannelBoth, .channel = ch};
  int fd1 = proc.AllocFd();
  proc.fds[static_cast<size_t>(fd1)] = FileDesc{.kind = FdKind::kChannelBoth, .channel = ch};
  return {static_cast<int64_t>(fd0) | (static_cast<int64_t>(fd1) << 16)};
}

SyscallResult GuestKernel::SysEpollWait(Process& proc, const SyscallRequest& req) {
  (void)proc;
  (void)req;
  if (net_ != nullptr && net_->HasPending()) {
    return {1};
  }
  // Any readable ipc channel counts as an event.
  for (const auto& [id, channel] : channels_) {
    (void)id;
    if (channel.readable()) {
      return {1};
    }
  }
  return {0};
}

SyscallResult GuestKernel::SysSendRecv(Process& proc, const SyscallRequest& req, bool send) {
  FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
  if (fd == nullptr) {
    return {kEBADF};
  }
  // AF_UNIX sockets: datagram over an in-kernel channel.
  if (fd->kind == FdKind::kChannelBoth) {
    auto it = channels_.find(fd->channel);
    if (it == channels_.end()) {
      return {kEBADF};
    }
    uint64_t moved = send ? it->second.Write(req.arg1) : it->second.Read(req.arg1);
    if (moved == 0) {
      return {kEAGAIN};
    }
    return {static_cast<int64_t>(moved)};
  }
  if (fd->kind != FdKind::kNetSocket) {
    return {kEBADF};
  }
  if (net_ == nullptr) {
    return {kEINVAL};
  }
  uint64_t bytes = req.arg1;
  ctx_.ChargeWork(ctx_.cost().copy_per_4k * ((bytes + kPageSize - 1) / kPageSize));
  uint64_t moved = send ? net_->Transmit(fd->net_conn, bytes)
                        : net_->Receive(fd->net_conn, bytes);
  if (moved == 0 && !send) {
    return {kEAGAIN};
  }
  return {static_cast<int64_t>(moved)};
}

// --- network connection syscalls ----------------------------------------

SyscallResult GuestKernel::SysListen(Process& proc, const SyscallRequest& req) {
  if (net_ == nullptr) {
    return {kEINVAL};
  }
  int64_t handle = net_->Listen(static_cast<uint16_t>(req.arg0), static_cast<int>(req.arg1));
  if (handle < 0) {
    return {handle};
  }
  int fdn = proc.AllocFd();
  proc.fds[static_cast<size_t>(fdn)] =
      FileDesc{.kind = FdKind::kNetListen, .net_conn = static_cast<int>(handle)};
  return {fdn};
}

SyscallResult GuestKernel::SysAccept(Process& proc, const SyscallRequest& req) {
  FileDesc* fd = proc.fd(static_cast<int>(req.arg0));
  if (fd == nullptr || fd->kind != FdKind::kNetListen) {
    return {kEBADF};
  }
  if (net_ == nullptr) {
    return {kEINVAL};
  }
  int64_t conn = net_->Accept(fd->net_conn);
  if (conn < 0) {
    return {conn};  // kEAGAIN when the backlog is empty
  }
  return {InstallNetSocket(static_cast<int>(conn))};
}

SyscallResult GuestKernel::SysConnect(Process& proc, const SyscallRequest& req) {
  (void)proc;
  if (net_ == nullptr) {
    return {kEINVAL};
  }
  int64_t conn = net_->Connect(static_cast<int>(req.arg0), static_cast<uint16_t>(req.arg1));
  if (conn < 0) {
    return {conn};  // kECONNREFUSED on RST or dead port
  }
  return {InstallNetSocket(static_cast<int>(conn))};
}

// --- memory syscalls -----------------------------------------------------

SyscallResult GuestKernel::SysMmap(Process& proc, const SyscallRequest& req) {
  uint64_t length = (req.arg0 + kPageSize - 1) & ~(kPageSize - 1);
  uint64_t prot = req.arg1;
  bool populate = (req.arg2 & kMapPopulate) != 0;
  bool file_shared = (req.arg2 & kMapShared) != 0;
  bool file_private = (req.arg2 & kMapPrivate) != 0;
  if (length == 0 || (file_shared && file_private)) {
    return {kEINVAL};
  }
  Vma area{.prot = prot, .kind = VmaKind::kAnon};
  if (file_shared || file_private) {
    FileDesc* fd = proc.fd(static_cast<int>(req.arg3));
    if (fd == nullptr ||
        (fd->kind != FdKind::kTmpfsFile && fd->kind != FdKind::kBlkFile)) {
      return {kEBADF};
    }
    area.kind = VmaKind::kFile;
    area.file_ino = fd->ino;
    area.cow = file_private;  // private file mappings copy on first write
  }
  uint64_t start = proc.vmas.FindFree(proc.mmap_hint, length);
  area.start = start;
  area.end = start + length;
  proc.vmas.Insert(area);
  proc.mmap_hint = start + length;
  if (populate) {
    Vma* vma = proc.vmas.Find(start);
    bool oom = false;
    port_.BeginPteBatch();
    for (uint64_t va = start; va < start + length; va += kPageSize) {
      if (!FaultInPage(proc, *vma, va, /*write=*/true)) {
        oom = true;
        break;
      }
    }
    port_.EndPteBatch();
    if (oom) {
      // Unwind the partial population and fail the mmap with ENOMEM —
      // the container keeps running (blast-radius containment).
      UnmapRange(proc, start, start + length);
      proc.vmas.Remove(start, start + length);
      ctx_.RecordEvent(PathEvent::kGuestOom);
      return {kENOMEM};
    }
  }
  return {static_cast<int64_t>(start)};
}

SyscallResult GuestKernel::SysMunmap(Process& proc, const SyscallRequest& req) {
  uint64_t start = req.arg0 & ~(kPageSize - 1);
  uint64_t length = (req.arg1 + kPageSize - 1) & ~(kPageSize - 1);
  UnmapRange(proc, start, start + length);
  proc.vmas.Remove(start, start + length);
  return {0};
}

SyscallResult GuestKernel::SysMprotect(Process& proc, const SyscallRequest& req) {
  uint64_t start = req.arg0 & ~(kPageSize - 1);
  uint64_t length = (req.arg1 + kPageSize - 1) & ~(kPageSize - 1);
  uint64_t prot = req.arg2;
  if (!proc.vmas.Protect(start, start + length, prot)) {
    return {kEINVAL};
  }
  // Update already-present leaf PTEs to the new protection. Small ranges
  // update entries individually; large ranges batch (mmu-gather style).
  bool batch = length > 8 * kPageSize;
  if (batch) {
    port_.BeginPteBatch();
  }
  for (uint64_t va = start; va < start + length; va += kPageSize) {
    WalkResult walk = editor_.Walk(proc.pt_root, va);
    if (!walk.fault) {
      editor_.ProtectPage(proc.pt_root, va, PteFlagsFor(prot, /*cow_readonly=*/false), 0);
      port_.InvalidatePage(va);
    }
  }
  if (batch) {
    port_.EndPteBatch();
  }
  return {0};
}

SyscallResult GuestKernel::SysBrk(Process& proc, const SyscallRequest& req) {
  uint64_t new_brk = req.arg0;
  if (new_brk == 0) {
    return {static_cast<int64_t>(proc.brk)};
  }
  new_brk = (new_brk + kPageSize - 1) & ~(kPageSize - 1);
  if (new_brk < kUserHeapBase || new_brk >= kUserMmapBase) {
    return {kENOMEM};
  }
  if (new_brk > proc.brk) {
    proc.vmas.Insert(Vma{.start = proc.brk,
                         .end = new_brk,
                         .prot = kProtRead | kProtWrite,
                         .kind = VmaKind::kHeap});
  } else if (new_brk < proc.brk) {
    UnmapRange(proc, new_brk, proc.brk);
    proc.vmas.Remove(new_brk, proc.brk);
  }
  proc.brk = new_brk;
  return {static_cast<int64_t>(new_brk)};
}

// --- process syscalls ----------------------------------------------------

SyscallResult GuestKernel::SysFork(Process& proc) {
  int child_pid = NewProcessSlot();
  Process& child = *procs_.Get(child_pid);
  child.parent = proc.pid;
  child.pt_root = NewAddressSpace();
  child.vmas = proc.vmas;
  child.brk = proc.brk;
  child.mmap_hint = proc.mmap_hint;
  child.fds = proc.fds;
  for (FileDesc& fd : child.fds) {
    if (fd.kind == FdKind::kChannelRead || fd.kind == FdKind::kChannelWrite ||
        fd.kind == FdKind::kChannelBoth) {
      auto it = channels_.find(fd.channel);
      if (it != channels_.end()) {
        it->second.AddRef();
      }
    }
  }
  ClonePagesCow(proc, child);
  return {child_pid};
}

SyscallResult GuestKernel::SysExecve(Process& proc) {
  // Replace the address space with a fresh image.
  TeardownAddressSpace(proc);
  proc.vmas.Clear();
  proc.pt_root = NewAddressSpace();
  proc.brk = kUserHeapBase;
  proc.mmap_hint = kUserMmapBase;
  proc.vmas.Insert(Vma{.start = kUserTextBase,
                       .end = kUserTextBase + kTextPages * kPageSize,
                       .prot = kProtRead | kProtExec,
                       .kind = VmaKind::kText});
  proc.vmas.Insert(Vma{.start = kUserStackTop - kStackPages * kPageSize,
                       .end = kUserStackTop,
                       .prot = kProtRead | kProtWrite,
                       .kind = VmaKind::kStack});
  // Loading the binary populates the text pages immediately.
  Vma* text = proc.vmas.Find(kUserTextBase);
  port_.BeginPteBatch();
  for (int i = 0; i < kTextPages; ++i) {
    FaultInPage(proc, *text, kUserTextBase + static_cast<uint64_t>(i) * kPageSize, false);
  }
  port_.EndPteBatch();
  // The new image runs in the (possibly reloaded) address space.
  if (proc.pid == current_pid_) {
    port_.LoadAddressSpace(proc.pt_root, proc.asid);
  }
  return {0};
}

SyscallResult GuestKernel::SysExit(Process& proc, const SyscallRequest& req) {
  proc.exit_code = static_cast<int>(req.arg0);
  for (FileDesc& fd : proc.fds) {
    if (fd.kind != FdKind::kFree) {
      CloseFd(proc, fd);
    }
  }
  TeardownAddressSpace(proc);
  proc.vmas.Clear();
  proc.state = ProcState::kZombie;
  if (proc.pid == current_pid_) {
    current_pid_ = -1;
    Schedule();
  }
  return {0};
}

SyscallResult GuestKernel::SysWaitpid(Process& proc, const SyscallRequest& req) {
  int want = static_cast<int>(static_cast<int64_t>(req.arg0));
  // Ascending-pid sweep: with several reapable zombies, waitpid(-1)
  // returns the lowest pid — deterministic by construction.
  bool have_child = false;
  int reaped = -1;
  procs_.ForEach([&](Process& child) {
    if (child.parent != proc.pid || reaped >= 0) {
      return;
    }
    have_child = true;
    if (child.state == ProcState::kZombie && (want <= 0 || want == child.pid)) {
      reaped = child.pid;
    }
  });
  if (reaped >= 0) {
    procs_.Erase(reaped);
    return {reaped};
  }
  return {have_child ? 0 : kECHILD};
}

}  // namespace cki
