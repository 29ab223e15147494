#include "src/obs/span_profiler.h"

namespace cki {

int SpanProfiler::BeginSpan(Phase phase, SimNanos now) {
  int parent = stack_.empty() ? -1 : stack_.back().node;
  std::vector<int>& siblings = parent < 0 ? roots_ : nodes_[static_cast<size_t>(parent)].children;
  int node = -1;
  for (int child : siblings) {
    if (nodes_[static_cast<size_t>(child)].phase == phase) {
      node = child;
      break;
    }
  }
  if (node < 0) {
    node = static_cast<int>(nodes_.size());
    siblings.push_back(node);  // before nodes_ grows: `siblings` may live in it
    nodes_.push_back(Node{.phase = phase, .name = PhaseName(phase), .parent = parent});
  }
  stack_.push_back(Frame{.node = node, .start = now});
  return node;
}

void SpanProfiler::EndSpan(SimNanos now) {
  if (stack_.empty()) {
    return;  // unbalanced end (e.g. observability enabled mid-span)
  }
  Frame frame = stack_.back();
  stack_.pop_back();
  SimNanos elapsed = now - frame.start;
  Node& node = nodes_[static_cast<size_t>(frame.node)];
  node.total += elapsed;
  node.self += elapsed - frame.child_ns;
  node.count++;
  if (!stack_.empty()) {
    stack_.back().child_ns += elapsed;
  }
}

SimNanos SpanProfiler::RootTotal() const {
  SimNanos total = 0;
  for (int root : roots_) {
    total += nodes_[static_cast<size_t>(root)].total;
  }
  return total;
}

int SpanProfiler::FindChild(int parent, std::string_view name) const {
  const std::vector<int>& siblings =
      parent < 0 ? roots_ : nodes_[static_cast<size_t>(parent)].children;
  for (int child : siblings) {
    if (nodes_[static_cast<size_t>(child)].name == name) {
      return child;
    }
  }
  return -1;
}

void SpanProfiler::WriteNodeJson(std::ostream& os, int index) const {
  const Node& node = nodes_[static_cast<size_t>(index)];
  os << "{\"name\":\"" << node.name << "\",\"count\":" << node.count
     << ",\"total_ns\":" << node.total << ",\"self_ns\":" << node.self << ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteNodeJson(os, node.children[i]);
  }
  os << "]}";
}

void SpanProfiler::WriteJson(std::ostream& os) const {
  os << "[";
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteNodeJson(os, roots_[i]);
  }
  os << "]";
}

}  // namespace cki
