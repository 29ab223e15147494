// The four benchmark workloads, driven through the simulator's public API.
//
// A workload runs in passes. Each pass sets up from scratch (machines,
// booted engines, templates, images), then runs its measured region. The
// host times of both parts vary from run to run; everything simulated
// (virtual-clock times, TraceLog counts, the determinism digest) is a pure
// function of the seed and must repeat exactly in every pass.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/span_trace.h"

namespace perfbench {

// The seed at which every workload's digest is pinned.
inline constexpr uint64_t kDefaultSeed = 1;

// kTiny shrinks every workload to a few units, for the benchmark's tests.
enum class Size { kTiny, kFull };

struct PassResult {
  // Host time (ns) of the set-up and of the measured region.
  double setup_ns = 0;
  double measured_ns = 0;
  // Host-side per-layer probes: samples per metric, averaged per pass.
  std::map<std::string, std::vector<double>> host_samples;

  uint64_t ops = 0;           // workload ops completed in the measured region
  uint64_t units = 0;         // checked units attempted
  uint64_t failed_units = 0;  // units that threw or broke an invariant
  std::vector<std::string> errors;

  // Simulated results.
  uint64_t digest = 0;
  double sim_ns = 0;
  double sim_p50_ns = 0;
  double sim_p99_ns = 0;
  double tail_percentile = 0;  // which percentile sim_p99_ns is (see TailPercentile)
  uint64_t latency_samples = 0;
  uint64_t events = 0;               // TraceLog events in the measured region
  std::map<std::string, double> sim;  // simulated per-layer counts and ratios

  // Fills the sim latency fields from per-op samples by the tail rule.
  void SetLatencies(const std::vector<double>& samples_ns);
  void Fail(std::string error) {
    failed_units++;
    errors.push_back(std::move(error));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Digest pinned for kDefaultSeed at full size.
  virtual uint64_t golden_digest() const = 0;
  // Runs one pass. `spans` records only while enabled; `traced` also runs
  // the extra probes the per-layer metrics need.
  virtual PassResult RunPass(SpanRecorder& spans, bool traced) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed, Size size);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
