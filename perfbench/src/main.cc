// perfbench: runs one benchmark workload for a given time and
// prints its metrics as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|tiny] [--rev <source revision>]
//                    [--spans-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced passes and prints the per-layer metrics. The exit code is 0 only
// if every checked unit passed.
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "src/report.h"
#include "src/span_trace.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

// A pass never starts after this much time, so a run stays well inside
// the 180 s a run may take whatever --seconds asks for.
constexpr double kHardLimitS = 120;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string rev = "unknown";
  std::string spans_out;
};

int Usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--rev <rev>] [--spans-out <file>]\n";
  return 2;
}

bool ParseUint(std::string_view s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9' || v > (UINT64_MAX - 9) / 10) {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// Returns 0 on success, else the exit code for a bad command line.
int ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + std::string(flag));
    }
    std::string_view value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args->seed)) {
        return Usage("bad --seed " + std::string(value));
      }
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 60) {
        return Usage("--seconds must be 1..60");
      }
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace must be 0 or 1");
      }
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return Usage("--size must be full or tiny");
      }
      args->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--rev") {
      args->rev = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return Usage("unknown argument " + std::string(flag));
    }
  }
  if (args->workload.empty()) {
    return Usage("--workload is required");
  }
  return 0;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, args.size);
  if (workload == nullptr) {
    return Usage("unknown workload " + args.workload);
  }
  const bool pinned = args.seed == kDefaultSeed && args.size == Size::kFull;
  const uint64_t golden = pinned ? workload->golden_digest() : 0;
  // Traced runs alternate traced and untraced passes and need two of each.
  const size_t min_passes = args.trace ? 4 : 3;

  SpanRecorder spans;
  RunLog log;
  const auto begin = std::chrono::steady_clock::now();
  while (true) {
    const bool traced_pass = args.trace && log.passes.size() % 2 == 0;
    spans.set_enabled(traced_pass);
    log.span_starts.push_back(spans.spans().size());
    log.passes.push_back(workload->RunPass(spans, traced_pass));
    log.traced.push_back(traced_pass);
    if (log.passes.size() == min_passes) {
      // Read after a fixed amount of work, so a slower host running fewer
      // passes does not report less memory.
      log.peak_rss_mb = PeakRssMb();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    if ((elapsed >= args.seconds && log.passes.size() >= min_passes) || elapsed >= kHardLimitS) {
      break;
    }
  }
  spans.set_enabled(false);
  if (log.passes.size() < min_passes) {
    log.peak_rss_mb = PeakRssMb();
  }
  const PassResult& first = log.passes.front();

  RunResult result = Summarize(log, spans.spans(), golden, args.trace);
  for (const std::string& e : result.errors) {
    std::cerr << "FAIL: " << e << "\n";
  }
  std::cout << "host: ";
  WriteHostRecord(std::cout, args.rev);
  std::cout << "\nworkload: " << args.workload << " seed " << args.seed << " passes "
            << log.passes.size() << " latency samples " << first.latency_samples
            << " (tail percentile p" << first.tail_percentile << ")\n"
            << "digest: 0x" << std::hex << first.digest << std::dec
            << (golden != 0 ? (first.digest == golden ? " (matches golden)" : " (GOLDEN MISMATCH)")
                            : "")
            << "\n";
  if (!args.spans_out.empty()) {
    std::ofstream os(args.spans_out);
    spans.WriteJson(os);
    if (!os) {
      std::cerr << "error: could not write " << args.spans_out << "\n";
      return 1;
    }
  }
  WriteResultLine(std::cout, result, args.trace);
  std::cout.flush();
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (int rc = perfbench::ParseArgs(argc, argv, &args); rc != 0) {
    return rc;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
