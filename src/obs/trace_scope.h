// RAII span instrumentation over simulated time.
//
// TraceScope opens a Phase (src/obs/phase.h) on the SimContext's span
// profiler and mirrors begin/end markers into the flight recorder; nesting
// scopes builds the phase tree (syscall -> getpid -> ksm/roundtrip -> ...).
//
// Sampling (DESIGN.md §11): every scope reports to the hub's gate
// (EnterScope/ExitScope). The outermost scope latches the keep/suppress
// decision for the whole operation, so a sampled op records its full
// span subtree and an unsampled one records nothing — begin/end markers
// always stay paired. SyscallScope additionally feeds the per-container
// SLO window at full rate regardless of the gate.
//
// All scopes are no-ops (one branch) when observability is disabled.
//
// Thread-safety: a scope borrows its SimContext for the enclosing block
// and must open and close on that context's (single) simulation thread —
// spans nest by construction order, which only makes sense within one
// thread. Never hold a scope across an Observability::Detach.
// Ownership: scopes own nothing; they write into the context's hub.
#ifndef SRC_OBS_TRACE_SCOPE_H_
#define SRC_OBS_TRACE_SCOPE_H_

#include "src/guest/syscall.h"
#include "src/obs/phase.h"
#include "src/sim/context.h"

namespace cki {

class TraceScope {
 public:
  TraceScope(SimContext& ctx, Phase phase) : ctx_(ctx) { Enter(phase); }

  // Also stamps `owner` as the current container attribution.
  TraceScope(SimContext& ctx, uint32_t owner, Phase phase) : ctx_(ctx) {
    if (ctx.obs().enabled()) {
      ctx.obs().set_owner(owner);
    }
    Enter(phase);
  }

  ~TraceScope() {
    if (!entered_) {
      return;
    }
    Observability& obs = ctx_.obs();
    if (recording_) {
      SimNanos now = ctx_.clock().now();
      obs.RecordRing(TraceRecord{.ts = now,
                                 .owner = obs.owner(),
                                 .code = static_cast<uint16_t>(phase_),
                                 .kind = TraceRecordKind::kSpanEnd});
      obs.profiler().EndSpan(now);
    }
    obs.ExitScope();
  }

  // Whether this operation won the sampling gate (always true at full
  // rate). False also when observability is disabled.
  bool recording() const { return recording_; }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  void Enter(Phase phase) {
    Observability& obs = ctx_.obs();
    if (!obs.enabled()) {
      return;
    }
    entered_ = true;
    recording_ = obs.EnterScope();
    if (!recording_) {
      return;
    }
    phase_ = phase;
    SimNanos now = ctx_.clock().now();
    obs.profiler().BeginSpan(phase_, now);
    obs.RecordRing(TraceRecord{.ts = now,
                               .owner = obs.owner(),
                               .code = static_cast<uint16_t>(phase_),
                               .kind = TraceRecordKind::kSpanBegin});
  }

  SimContext& ctx_;
  bool entered_ = false;
  bool recording_ = false;
  Phase phase_ = Phase::kCount;
};

// The engines' per-syscall instrumentation: a "syscall" span plus the
// per-syscall latency histogram (both behind the sampling gate) plus the
// owning container's SLO window (always on — the rolling window is the
// telemetry that must survive sampling). The histogram item is
// SysName(no).
class SyscallScope {
 public:
  SyscallScope(SimContext& ctx, uint32_t owner, Sys no)
      : ctx_(ctx), scope_(ctx, owner, Phase::kSyscall), owner_(owner), no_(no),
        active_(ctx.obs().enabled()) {
    if (active_) {
      start_ = ctx_.clock().now();
    }
  }

  ~SyscallScope() {
    if (!active_) {
      return;
    }
    Observability& obs = ctx_.obs();
    SimNanos now = ctx_.clock().now();
    SimNanos latency = now - start_;
    if (scope_.recording()) {
      obs.AddHistSample("syscall", SysName(no_), latency);
    }
    obs.SloObserveSyscall(owner_, now, latency);
  }

  SyscallScope(const SyscallScope&) = delete;
  SyscallScope& operator=(const SyscallScope&) = delete;

 private:
  SimContext& ctx_;
  TraceScope scope_;
  uint32_t owner_;
  Sys no_;
  bool active_;
  SimNanos start_ = 0;
};

}  // namespace cki

#endif  // SRC_OBS_TRACE_SCOPE_H_
