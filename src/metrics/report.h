// Result tables for the benchmark harness: aligned text output plus
// normalization helpers matching how the paper presents each figure
// (latency normalized to the slowest/baseline, throughput normalized to
// the best).
#ifndef SRC_METRICS_REPORT_H_
#define SRC_METRICS_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace cki {

// How MergeRows combines two cells that share a row label. kMean is the
// weighted mean: each row carries a merge weight (how many source rows it
// already aggregates), so merging shard tables of different sizes gives
// the same mean a single flat table would.
enum class MergeOp : uint8_t { kSum, kMin, kMax, kMean };

class ReportTable {
 public:
  ReportTable(std::string title, std::string row_header, std::vector<std::string> columns);

  // `weight` seeds the row's merge weight for MergeOp::kMean (e.g. the
  // number of samples the row's values average over).
  void AddRow(const std::string& label, std::vector<double> values, uint64_t weight = 1);

  // Folds `other` into this table cell-wise: rows whose label already
  // exists are combined value-by-value with `op`; new labels are appended
  // in `other`'s row order. Tables must share the column layout (checked
  // by count). Cluster runs call this once per shard in shard-index
  // order, so the merged table is bit-identical at any thread count.
  // Every merge accumulates row weights; kMean uses them to average.
  void MergeRows(const ReportTable& other, MergeOp op = MergeOp::kSum);

  // Returns a copy whose values are divided column-wise by the values of
  // row `baseline_label`. With `invert`, the ratio is baseline/value
  // (throughput-style: higher is better).
  ReportTable NormalizedTo(const std::string& baseline_label, bool invert = false) const;

  // Prints an aligned table. `precision` controls fractional digits.
  void Print(std::ostream& os, int precision = 1) const;

  // Emits `title.csv`-style lines (comma separated) for plotting.
  void PrintCsv(std::ostream& os) const;

  // Emits the same row/column model as one JSON object:
  //   {"title":..,"row_header":..,"columns":[..],
  //    "rows":[{"label":..,"values":[..]},..]}
  // Values are written in shortest round-trip form (non-finite as null).
  void PrintJson(std::ostream& os) const;

  const std::vector<std::string>& columns() const { return columns_; }
  double ValueAt(const std::string& row_label, size_t col) const;
  // The row's accumulated merge weight (throws like ValueAt on a missing
  // label).
  uint64_t WeightAt(const std::string& row_label) const;
  size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    std::string label;
    std::vector<double> values;
    uint64_t weight = 1;  // source rows aggregated into this one (kMean)
  };

  std::string title_;
  std::string row_header_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace cki

#endif  // SRC_METRICS_REPORT_H_
