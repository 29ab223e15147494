#include "src/span_trace.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <utility>

namespace perfbench {

int SpanRecorder::Begin(std::string_view name, uint64_t op) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = std::string(name);
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (id < 0) {
    return;
  }
  const double now = NowNs();
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    spans_[static_cast<size_t>(top)].end_ns = now;
    if (top == id) {
      break;
    }
  }
}

double SpanRecorder::NowNs() const {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanRecorder::WriteJson(std::ostream& os) const {
  os << "{\"spans\":[";
  os << std::setprecision(15);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  os << "\n]}\n";
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      covered[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& kids = covered[i];
    std::sort(kids.begin(), kids.end());
    double cover = 0;
    double reach = s.start_ns;  // covered up to here
    for (const auto& [begin, end] : kids) {
      double lo = std::max(begin, reach);
      double hi = std::min(end, s.end_ns);
      if (hi > lo) {
        cover += hi - lo;
      }
      reach = std::max(reach, std::min(end, s.end_ns));
    }
    self[i] = s.duration_ns() - cover;
  }
  return self;
}

double TailPercentile(size_t n) {
  if (n < 20) {
    return 50;
  }
  const double highest = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::min(99.0, highest);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  // The epsilon keeps p = 100 * k / n from rounding up past rank k.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()) - 1e-9);
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [&alnum](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
