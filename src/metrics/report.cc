#include "src/metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "src/obs/json_util.h"

namespace cki {

ReportTable::ReportTable(std::string title, std::string row_header,
                         std::vector<std::string> columns)
    : title_(std::move(title)), row_header_(std::move(row_header)), columns_(std::move(columns)) {}

void ReportTable::AddRow(const std::string& label, std::vector<double> values, uint64_t weight) {
  rows_.push_back(Row{label, std::move(values), weight == 0 ? 1 : weight});
}

void ReportTable::MergeRows(const ReportTable& other, MergeOp op) {
  if (other.columns_.size() != columns_.size()) {
    throw std::invalid_argument("MergeRows: column count mismatch (" +
                                std::to_string(columns_.size()) + " vs " +
                                std::to_string(other.columns_.size()) + ")");
  }
  for (const Row& incoming : other.rows_) {
    Row* mine = nullptr;
    for (Row& row : rows_) {
      if (row.label == incoming.label) {
        mine = &row;
        break;
      }
    }
    if (mine == nullptr) {
      rows_.push_back(incoming);
      continue;
    }
    mine->values.resize(std::max(mine->values.size(), incoming.values.size()), 0.0);
    const double wa = static_cast<double>(mine->weight);
    const double wb = static_cast<double>(incoming.weight);
    for (size_t i = 0; i < incoming.values.size(); ++i) {
      switch (op) {
        case MergeOp::kSum:
          mine->values[i] += incoming.values[i];
          break;
        case MergeOp::kMin:
          mine->values[i] = std::min(mine->values[i], incoming.values[i]);
          break;
        case MergeOp::kMax:
          mine->values[i] = std::max(mine->values[i], incoming.values[i]);
          break;
        case MergeOp::kMean:
          // Weighted by how many source rows each side already
          // aggregates, so merge order cannot change the result beyond
          // float associativity — and shard-index-order merging (the
          // cluster contract) makes even that bit-stable.
          mine->values[i] = (mine->values[i] * wa + incoming.values[i] * wb) / (wa + wb);
          break;
      }
    }
    mine->weight += incoming.weight;
  }
}

uint64_t ReportTable::WeightAt(const std::string& row_label) const {
  for (const Row& row : rows_) {
    if (row.label == row_label) {
      return row.weight;
    }
  }
  throw std::out_of_range("no such row: " + row_label);
}

double ReportTable::ValueAt(const std::string& row_label, size_t col) const {
  for (const Row& row : rows_) {
    if (row.label == row_label) {
      return col < row.values.size() ? row.values[col] : 0.0;
    }
  }
  std::string have;
  for (const Row& row : rows_) {
    if (!have.empty()) {
      have += ", ";
    }
    have += row.label;
  }
  throw std::out_of_range("no such row: " + row_label + " (available rows: " +
                          (have.empty() ? "<none>" : have) + ")");
}

ReportTable ReportTable::NormalizedTo(const std::string& baseline_label, bool invert) const {
  const Row* base = nullptr;
  for (const Row& row : rows_) {
    if (row.label == baseline_label) {
      base = &row;
      break;
    }
  }
  ReportTable out(title_ + (invert ? " (normalized, higher=better)" : " (normalized)"),
                  row_header_, columns_);
  if (base == nullptr) {
    return out;
  }
  for (const Row& row : rows_) {
    std::vector<double> norm(row.values.size(), 0.0);
    for (size_t i = 0; i < row.values.size() && i < base->values.size(); ++i) {
      double b = base->values[i];
      double v = row.values[i];
      if (invert) {
        norm[i] = (b > 0) ? v / b : 0.0;  // throughput relative to baseline
      } else {
        norm[i] = (b > 0) ? v / b : 0.0;  // latency relative to baseline
      }
    }
    out.AddRow(row.label, std::move(norm));
  }
  return out;
}

void ReportTable::Print(std::ostream& os, int precision) const {
  size_t label_width = row_header_.size();
  for (const Row& row : rows_) {
    label_width = std::max(label_width, row.label.size());
  }
  std::vector<size_t> widths(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    widths[i] = std::max<size_t>(columns_[i].size(), 10);
  }

  std::ios_base::fmtflags saved_flags = os.flags();
  std::streamsize saved_precision = os.precision();
  os << "== " << title_ << " ==\n";
  os << std::left << std::setw(static_cast<int>(label_width + 2)) << row_header_;
  for (size_t i = 0; i < columns_.size(); ++i) {
    os << std::right << std::setw(static_cast<int>(widths[i] + 2)) << columns_[i];
  }
  os << "\n";
  os << std::fixed << std::setprecision(precision);
  for (const Row& row : rows_) {
    os << std::left << std::setw(static_cast<int>(label_width + 2)) << row.label;
    for (size_t i = 0; i < columns_.size(); ++i) {
      double v = i < row.values.size() ? row.values[i] : 0.0;
      os << std::right << std::setw(static_cast<int>(widths[i] + 2)) << v;
    }
    os << "\n";
  }
  os.flags(saved_flags);
  os.precision(saved_precision);
  os << "\n";
}

void ReportTable::PrintCsv(std::ostream& os) const {
  os << row_header_;
  for (const std::string& col : columns_) {
    os << "," << col;
  }
  os << "\n";
  for (const Row& row : rows_) {
    os << row.label;
    for (size_t i = 0; i < columns_.size(); ++i) {
      os << "," << (i < row.values.size() ? row.values[i] : 0.0);
    }
    os << "\n";
  }
}

void ReportTable::PrintJson(std::ostream& os) const {
  os << "{\"title\":";
  WriteJsonString(os, title_);
  os << ",\"row_header\":";
  WriteJsonString(os, row_header_);
  os << ",\"columns\":[";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteJsonString(os, columns_[i]);
  }
  os << "],\"rows\":[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) {
      os << ",";
    }
    os << "{\"label\":";
    WriteJsonString(os, rows_[r].label);
    os << ",\"values\":[";
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0) {
        os << ",";
      }
      WriteJsonNumber(os, i < rows_[r].values.size() ? rows_[r].values[i] : 0.0);
    }
    os << "]}";
  }
  os << "]}";
}

}  // namespace cki
