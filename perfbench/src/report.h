// Metric definitions, the aggregation of passes into one result, and the
// result line the benchmark prints last.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/workloads.h"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

// Printed by an untraced run (--trace 0), on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
// Printed by a traced run (--trace 1), on every workload.
const std::vector<MetricDef>& PerLayerMetrics();

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;  // name -> value, in the metric's unit
};

// The passes of one run, in order.
struct RunLog {
  std::vector<PassResult> passes;
  std::vector<bool> traced;        // whether pass i recorded spans
  std::vector<size_t> span_starts;  // index of pass i's first span
  double peak_rss_mb = 0;          // high-water mark after the minimum passes
};

// Checks every pass (digest against the golden and against the first
// pass, simulated results repeating exactly) and folds the passes into the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
RunResult Summarize(const RunLog& log, const std::vector<Span>& spans, uint64_t golden,
                    bool trace_run);

// The process's resident-memory high-water mark so far.
double PeakRssMb();

// The last line of output: {"correct", "attempted", "failed", "metrics"}.
void WriteResultLine(std::ostream& os, const RunResult& result, bool trace_run);

// Host record: source revision, CPU model, cores, build type and LTO.
void WriteHostRecord(std::ostream& os, const std::string& rev);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
