// Hierarchical span profiler over simulated time.
//
// TraceScope (src/obs/trace_scope.h) opens a span of one Phase
// (src/obs/phase.h); nested scopes build a tree of phases (e.g. syscall ->
// getpid -> ksm/roundtrip), and closing a span attributes the elapsed
// simulated nanoseconds to its tree node: `total` includes children,
// `self` excludes them. The tree makes latency breakdowns like the
// paper's Fig. 10 an output of instrumentation instead of hand-wired cost
// arithmetic.
//
// Thread-safety: none — the open-span stack is inherently per-execution-
// thread state, so a profiler belongs to exactly one machine's hub and is
// only driven from that shard's thread. Cluster runs keep one profiler
// per shard (Observability::Detach moves it out with the hub) and export
// them side by side rather than merging trees.
// Ownership: the profiler owns its nodes; node indices and the references
// returned by nodes() stay valid for the profiler's lifetime. Node names
// point into the static phase table.
#ifndef SRC_OBS_SPAN_PROFILER_H_
#define SRC_OBS_SPAN_PROFILER_H_

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "src/obs/phase.h"
#include "src/sim/clock.h"

namespace cki {

class SpanProfiler {
 public:
  struct Node {
    Phase phase = Phase::kCount;
    std::string_view name;  // PhaseName(phase)
    int parent = -1;        // node index, -1 for roots
    SimNanos total = 0;     // simulated ns including children
    SimNanos self = 0;      // simulated ns excluding children
    uint64_t count = 0;     // completed spans
    std::vector<int> children{};
  };

  // Opens/closes a span; driven by TraceScope. Returns the node index.
  int BeginSpan(Phase phase, SimNanos now);
  void EndSpan(SimNanos now);
  size_t depth() const { return stack_.size(); }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<int>& roots() const { return roots_; }
  // Total simulated ns attributed to root spans (the end-to-end time the
  // instrumented operations covered).
  SimNanos RootTotal() const;
  // Finds the direct child of `parent` (-1: roots) named `name`, or -1.
  int FindChild(int parent, std::string_view name) const;

  // Nested JSON array of root nodes:
  //   [{"name":..,"count":..,"total_ns":..,"self_ns":..,"children":[..]}]
  void WriteJson(std::ostream& os) const;

 private:
  struct Frame {
    int node = -1;
    SimNanos start = 0;
    SimNanos child_ns = 0;  // time consumed by completed child spans
  };

  void WriteNodeJson(std::ostream& os, int node) const;

  std::vector<Node> nodes_;
  std::vector<int> roots_;
  std::vector<Frame> stack_;
};

}  // namespace cki

#endif  // SRC_OBS_SPAN_PROFILER_H_
