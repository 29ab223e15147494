// Host-time spans recorded by the benchmark around its calls into the
// simulator's public API, plus the small statistics the report needs.
//
// A span is (name, start, end, parent, op id). Spans are kept in memory
// and written out once at the end of a run. A span's self time is its
// duration minus the part of its interval that its child spans cover;
// children may nest or overlap each other, and each covered instant is
// counted once.
#ifndef PERFBENCH_SRC_SPAN_TRACE_H_
#define PERFBENCH_SRC_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_ns = 0;  // host ns since the recorder was created
  double end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  uint64_t op = 0;  // the workload op (cell, point, container, ...) it served

  double duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  // Spans are recorded only while enabled; Begin returns -1 otherwise.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span whose parent is the innermost span still open.
  int Begin(std::string_view name, uint64_t op);
  // Closes span `id` (and, defensively, any span opened after it).
  void End(int id);

  double NowNs() const;
  const std::vector<Span>& spans() const { return spans_; }
  // Writes every span as one JSON document.
  void WriteJson(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span: records nothing when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string_view name, uint64_t op = 0)
      : rec_(rec), id_(rec.Begin(name, op)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// Self time of every span, index-aligned with `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// The percentile reported as a tail: p99 when at least ten samples lie
// beyond it, otherwise the highest percentile that still has ten samples
// beyond it. Below 20 samples not even the median has ten beyond it, and
// the median is returned.
double TailPercentile(size_t n);

// Nearest-rank percentile of `values` (p in (0, 100]); 0 for no values.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Metric names are 1 to 64 characters from [A-Za-z0-9_.-], starting with
// a letter or digit.
bool ValidMetricName(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_TRACE_H_
