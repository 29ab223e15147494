// Shared helpers for the per-figure/table benchmark binaries: the config
// lists, and the one harness every bench runs through — one flag parser
// (BenchIo::Parse), one entry point (BenchMain), one result writer
// (BenchObsSink) and one thread-invariance check (CheckThreadInvariant).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/metrics/report.h"
#include "src/obs/json_util.h"
#include "src/obs/trace_export.h"
#include "src/runtime/runtime.h"

namespace cki {

struct BenchConfig {
  std::string label;
  RuntimeKind kind;
  Deployment deployment;
};

// Figure 4/5 (motivation): secure containers vs RunC, without CKI.
inline std::vector<BenchConfig> MotivationConfigs() {
  return {
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"PVM-NST", RuntimeKind::kPvm, Deployment::kNested},
      {"RunC-BM", RuntimeKind::kRunc, Deployment::kBareMetal},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM-BM", RuntimeKind::kPvm, Deployment::kBareMetal},
  };
}

// Figure 12 main configurations.
inline std::vector<BenchConfig> Fig12Configs() {
  return {
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal},
  };
}

// Figure 11 / Figure 14 configurations (bare-metal).
inline std::vector<BenchConfig> BareMetalConfigs() {
  return {
      {"RunC", RuntimeKind::kRunc, Deployment::kBareMetal},
      {"HVM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
  };
}

// Figure 16 configurations.
inline std::vector<BenchConfig> Fig16Configs() {
  return {
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"PVM-BM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"PVM-NST", RuntimeKind::kPvm, Deployment::kNested},
      {"CKI-BM", RuntimeKind::kCki, Deployment::kBareMetal},
      {"CKI-NST", RuntimeKind::kCki, Deployment::kNested},
  };
}

// The usage block BenchMain prints on a bad argument: every flag any bench
// takes. BenchIo::Parse is its one implementation.
inline constexpr std::string_view kBenchUsage =
    "usage: <bench> [flags]   (a bad flag or number exits 2)\n"
    "Output, every bench:\n"
    "  --json-out=<file>     printed tables, per-config telemetry and bench records\n"
    "  --trace-out=<file>    merged Chrome trace-event file (Perfetto-loadable;\n"
    "                        includes causal request flows, DESIGN.md §11)\n"
    "  --metrics-csv=<file>  flat CSV of every counter/histogram per config\n"
    "  --sample-every=<n>    keep recorder/span/histogram writes for 1 in n root\n"
    "                        operations (n >= 1, default 1 = full rate; never\n"
    "                        changes simulated time or trace hashes)\n"
    "Cluster scale-out, acted on by the SimCluster and orchestrator benches:\n"
    "  --shards=<n>          independent simulated machines (0: bench default)\n"
    "  --threads=<n>         worker OS threads (0: bench default; results are\n"
    "                        identical at any value)\n"
    "  --root-seed=<n>       root of the deterministic per-shard seed split\n"
    "Modes, only on benches that have them:\n"
    "  --smoke               short CI-sized run\n"
    "  --chaos-kinds=<a,b>   arm only the named fault kinds\n";

// Exit code of a usage error: a bad flag, or an argument the bench itself
// rejects (e.g. an unknown --chaos-kinds name). Nothing is written.
inline constexpr int kBenchUsageError = 2;

// The optional modes a bench has. A mode flag given to a bench without
// that mode is a usage error.
enum BenchMode : uint32_t {
  kNoMode = 0,
  kSmokeMode = 1u << 0,       // --smoke
  kChaosKindsMode = 1u << 1,  // --chaos-kinds=
};

struct BenchIo {
  std::string json_out;
  std::string trace_out;
  std::string metrics_csv;
  uint32_t sample_every = 1;  // 1: full rate
  uint32_t shards = 0;        // 0: bench-specific default
  uint32_t threads = 0;       // 0: bench-specific default
  uint64_t root_seed = 1;
  bool smoke = false;
  std::string chaos_kinds;  // empty: the bench's default fault mix

  bool observing() const {
    return !json_out.empty() || !trace_out.empty() || !metrics_csv.empty();
  }

  // The shard/thread counts to actually run with, given bench defaults.
  uint32_t ShardsOr(uint32_t fallback) const { return shards != 0 ? shards : fallback; }
  uint32_t ThreadsOr(uint32_t fallback) const { return threads != 0 ? threads : fallback; }

  // Parses argv[1..argc) for a bench with `modes` (BenchMode bits) into
  // `io`. Returns "" on success, else one line naming the first bad
  // argument; prints nothing.
  static std::string Parse(int argc, const char* const* argv, uint32_t modes, BenchIo* io) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const size_t eq = arg.find('=');
      const std::string_view flag = arg.substr(0, eq);
      const std::string_view value = eq == std::string_view::npos ? "" : arg.substr(eq + 1);
      std::string error;
      if (arg == "--smoke") {
        io->smoke = true;
        error = (modes & kSmokeMode) != 0 ? "" : "this bench has no smoke mode";
      } else if (eq == std::string_view::npos) {
        error = "unknown flag (value flags take --flag=<value>)";
      } else if (value.empty()) {
        error = "missing value";
      } else if (flag == "--json-out") {
        io->json_out = value;
      } else if (flag == "--trace-out") {
        io->trace_out = value;
      } else if (flag == "--metrics-csv") {
        io->metrics_csv = value;
      } else if (flag == "--sample-every") {
        error = ParseNumber(value, 1u, &io->sample_every);
      } else if (flag == "--shards") {
        error = ParseNumber(value, 0u, &io->shards);
      } else if (flag == "--threads") {
        error = ParseNumber(value, 0u, &io->threads);
      } else if (flag == "--root-seed") {
        error = ParseNumber(value, uint64_t{0}, &io->root_seed);
      } else if (flag == "--chaos-kinds") {
        io->chaos_kinds = value;
        error = (modes & kChaosKindsMode) != 0 ? "" : "this bench has no chaos kinds";
      } else {
        error = "unknown flag";
      }
      if (!error.empty()) {
        return std::string(arg) + ": " + error;
      }
    }
    return "";
  }

 private:
  template <typename T>
  static std::string ParseNumber(std::string_view s, T min, T* out) {
    T v = 0;
    const char* end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      return "not a number in range";
    }
    if (v < min) {
      return "must be at least " + std::to_string(min);
    }
    *out = v;
    return "";
  }
};

// The one result writer of the bench layer. Accumulates what a bench
// measured and writes the requested files on Write():
//   --json-out     {"bench":..,"configs":[..],"tables":[..], <AddJson members>}
//   --trace-out    one trace process track per AddConfig
//   --metrics-csv  one block of rows per AddConfig / AddMetrics
class BenchObsSink {
 public:
  explicit BenchObsSink(BenchIo io) : io_(std::move(io)) {}

  bool active() const { return io_.observing(); }
  const BenchIo& io() const { return io_; }

  // Enables `obs` at the --sample-every rate. Every bench hub that honours
  // the flag is turned on here, so the flag cannot be silently dropped.
  void EnableHub(Observability& obs) const {
    obs.Enable();
    obs.set_sample_every(io_.sample_every);
  }

  // Captures one configuration after its measured region: `total_ns` is the
  // raw end-to-end simulated time of the measured region; `obs` holds the
  // spans/metrics/records collected during it.
  void AddConfig(std::string_view label, SimNanos total_ns, const Observability& obs) {
    if (!active()) {
      return;
    }
    std::ostringstream json;
    json << "{\"label\":";
    WriteJsonString(json, label);
    json << ",\"total_ns\":" << total_ns << ",\"obs\":";
    obs.WriteJson(json);
    json << "}";
    config_json_.push_back(json.str());
    WriteChromeTraceEvents(obs, static_cast<uint32_t>(config_json_.size()), label, &trace_first_,
                           trace_events_);
    if (obs.has_data()) {
      // The CSV gets the registry plus the per-container SLO gauges, so
      // rolling p99/rate/fault columns land next to the raw counters.
      MetricsRegistry with_slo = obs.metrics();
      obs.ExportSloMetrics(with_slo);
      AddMetrics(label, with_slo);
    }
  }

  // Appends `metrics` to the CSV, one row per metric labelled `label`.
  void AddMetrics(std::string_view label, const MetricsRegistry& metrics) {
    metrics.WriteCsvRows(csv_rows_, label);
  }

  // Records `table` in the JSON "tables" array.
  void AddTable(const ReportTable& table) {
    std::ostringstream json;
    table.PrintJson(json);
    table_json_.push_back(json.str());
  }

  // Prints `table` to stdout and records it: every printed table lands in
  // --json-out.
  void Print(const ReportTable& table, int precision) {
    table.Print(std::cout, precision);
    AddTable(table);
  }

  // Adds a bench-specific top-level JSON member; `json` is one JSON value.
  void AddJson(std::string_view key, std::string json) {
    extra_json_.emplace_back(std::string(key), std::move(json));
  }

  // Writes the requested files; call once after the bench ran. Returns
  // false (and reports on stderr) if any requested file could not be written.
  bool Write(std::string_view bench_name) const {
    bool ok = true;
    if (!io_.json_out.empty()) {
      std::ofstream os(io_.json_out);
      os << "{\"bench\":";
      WriteJsonString(os, bench_name);
      WriteArray(os, "configs", config_json_);
      WriteArray(os, "tables", table_json_);
      for (const auto& [key, json] : extra_json_) {
        os << ",\n";
        WriteJsonString(os, key);
        os << ":" << json;
      }
      os << "}\n";
      ok &= ReportWrite(os, io_.json_out);
    }
    if (!io_.trace_out.empty()) {
      std::ofstream os(io_.trace_out);
      os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
         << trace_events_.str() << "\n]}\n";
      ok &= ReportWrite(os, io_.trace_out);
    }
    if (!io_.metrics_csv.empty()) {
      std::ofstream os(io_.metrics_csv);
      MetricsRegistry::WriteCsvHeader(os);
      os << csv_rows_.str();
      ok &= ReportWrite(os, io_.metrics_csv);
    }
    return ok;
  }

 private:
  static void WriteArray(std::ostream& os, std::string_view key,
                         const std::vector<std::string>& items) {
    os << ",\"" << key << "\":[";
    for (size_t i = 0; i < items.size(); ++i) {
      os << (i > 0 ? ",\n" : "\n") << items[i];
    }
    os << "\n]";
  }

  static bool ReportWrite(std::ofstream& os, const std::string& path) {
    os.flush();
    if (!os) {
      std::cerr << "error: could not write " << path << "\n";
      return false;
    }
    std::cerr << "wrote " << path << "\n";
    return true;
  }

  BenchIo io_;
  std::vector<std::string> config_json_;
  std::vector<std::string> table_json_;
  std::vector<std::pair<std::string, std::string>> extra_json_;
  std::ostringstream trace_events_;
  std::ostringstream csv_rows_;
  bool trace_first_ = true;
};

// The one entry point of every bench. Parses argv for a bench with
// `modes`; a bad argument prints the error and the usage block and returns
// kBenchUsageError. Otherwise runs `run(sink)` (returning void or an exit
// code) and writes the requested files. Returns the process exit code.
template <typename Run>
int BenchMain(int argc, const char* const* argv, std::string_view bench_name, uint32_t modes,
              Run run) {
  BenchIo io;
  if (std::string error = BenchIo::Parse(argc, argv, modes, &io); !error.empty()) {
    std::cerr << "error: " << error << "\n" << kBenchUsage;
    return kBenchUsageError;
  }
  BenchObsSink sink(std::move(io));
  int rc = 0;
  if constexpr (std::is_void_v<std::invoke_result_t<Run&, BenchObsSink&>>) {
    run(sink);
  } else {
    rc = run(sink);
  }
  if (rc == kBenchUsageError) {
    return rc;
  }
  return sink.Write(bench_name) ? rc : 1;
}

// The one thread-invariance check: runs `run(threads)`, which returns the
// run's determinism hash, at each count in order. Prints the per-count
// hashes on one line, then an OK line or one FAIL line naming the first
// count whose hash differs from the first count's. Returns true on pass.
template <typename Run>
bool CheckThreadInvariant(std::string_view label, const std::vector<uint32_t>& thread_counts,
                          Run run) {
  std::vector<uint64_t> hashes;
  for (uint32_t threads : thread_counts) {
    hashes.push_back(run(threads));
  }
  std::cout << "determinism: " << label << " hash at --threads";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::cout << (i > 0 ? "/" : " ") << thread_counts[i];
  }
  std::cout << ":" << std::hex;
  for (uint64_t h : hashes) {
    std::cout << " 0x" << h;
  }
  std::cout << std::dec << "\n";
  for (size_t i = 1; i < hashes.size(); ++i) {
    if (hashes[i] != hashes[0]) {
      std::cout << "FAIL: " << label << " hash at --threads=" << thread_counts[i]
                << " differs from --threads=" << thread_counts[0] << "\n";
      return false;
    }
  }
  std::cout << "determinism: OK (" << label << " hash bit-identical at every thread count)\n";
  return true;
}

}  // namespace cki

#endif  // BENCH_BENCH_UTIL_H_
