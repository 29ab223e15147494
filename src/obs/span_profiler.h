// Hierarchical span profiler over simulated time.
//
// TraceScope (src/obs/trace_scope.h) opens a named span; nested scopes
// build a tree of phases (e.g. syscall -> getpid -> ksm/roundtrip), and
// closing a span attributes the elapsed simulated nanoseconds to its tree
// node: `total` includes children, `self` excludes them. The tree makes
// latency breakdowns like the paper's Fig. 10 an output of instrumentation
// instead of hand-wired cost arithmetic.
//
// Thread-safety: none — the open-span stack is inherently per-execution-
// thread state, so a profiler belongs to exactly one machine's hub and is
// only driven from that shard's thread. Cluster runs keep one profiler
// per shard (Observability::Detach moves it out with the hub) and export
// them side by side rather than merging trees.
// Ownership: the profiler owns its nodes; node/phase indices and the
// references returned by nodes()/PhaseName stay valid until Clear().
#ifndef SRC_OBS_SPAN_PROFILER_H_
#define SRC_OBS_SPAN_PROFILER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/clock.h"

namespace cki {

class SpanProfiler {
 public:
  struct Node {
    std::string name;      // phase name (leaf component of the path)
    int parent = -1;       // node index, -1 for roots
    SimNanos total = 0;    // simulated ns including children
    SimNanos self = 0;     // simulated ns excluding children
    uint64_t count = 0;    // completed spans
    std::vector<int> children{};
  };

  // Maps a phase name to a stable small id (interned on first use).
  int InternPhase(std::string_view name);
  std::string_view PhaseName(int phase_id) const;
  size_t phase_count() const { return phase_names_.size(); }

  // Opens/closes a span; driven by TraceScope. Returns the node index.
  int BeginSpan(int phase_id, SimNanos now);
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
  // Indented human-readable tree (debugging, bench stdout).
  void PrintTree(std::ostream& os) const;

  void Clear();

 private:
  struct Frame {
    int node = -1;
    SimNanos start = 0;
    SimNanos child_ns = 0;  // time consumed by completed child spans
  };

  void WriteNodeJson(std::ostream& os, int node) const;
  void PrintNode(std::ostream& os, int node, int depth) const;

  std::vector<Node> nodes_;
  std::vector<int> roots_;
  std::map<std::pair<int, int>, int> edges_;  // (parent node, phase id) -> node
  std::vector<Frame> stack_;
  std::unordered_map<std::string, int> phase_ids_;
  std::vector<std::string> phase_names_;
};

}  // namespace cki

#endif  // SRC_OBS_SPAN_PROFILER_H_
