#include "src/report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

// Benchmark-recorded spans whose self time is reported as `<name>.host_ms`.
const char* const kHostSpanLayers[] = {
    "net.chain",   "runtime.boot",      "snap.checkpoint", "snap.restore",
    "snap.clone",  "runtime.cow_dirty", "runtime.kill",    "blkfs.scan",
    "blkfs.wal",   "orch.ctor",         "orch.run",        "workloads.mem",
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

bool SameSim(const PassResult& a, const PassResult& b) {
  return a.digest == b.digest && a.sim_ns == b.sim_ns && a.sim_p50_ns == b.sim_p50_ns &&
         a.sim_p99_ns == b.sim_p99_ns && a.events == b.events && a.sim == b.sim;
}

void WriteNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  std::ostringstream s;
  s << std::setprecision(17) << v;
  os << s.str();
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int* r = regs;
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + leaf * 16, r, 16);
    }
    std::string model(brand);
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "1/s"}, {"setup_s", "s"},     {"peak_rss_mb", "MB"},
      {"sim_ms", "ms"},     {"sim_p50_us", "us"}, {"sim_p99_us", "us"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    auto add = [&d](std::initializer_list<const char*> names, const char* unit) {
      for (const char* n : names) {
        d.push_back({n, unit});
      }
    };
    add({"hw.tlb_hit", "hw.tlb_miss", "hw.page_walk_1d", "hw.page_walk_2d", "guest.syscall",
         "guest.page_fault", "guest.context_switch", "cki.pks_switch", "cki.ksm_call",
         "virt.vm_exit", "virt.nested_vm_exit", "virt.ept_violation", "virt.shadow_pt_update",
         "virt.mode_switch", "host.virtio_kick", "host.hw_interrupt", "host.virq_inject",
         "net.switch_packets", "net.rx_drops", "blkfs.hit", "blkfs.miss", "blkfs.readahead",
         "blkfs.writeback", "blkfs.base_share", "blkfs.cow_break", "blkfs.dev_flush",
         "orch.clone", "orch.template_boot", "orch.migration", "orch.reap",
         "orch.container_kill", "resil.retry", "resil.retry_denied", "resil.hedge",
         "resil.shed", "resil.breaker_open", "fault.gray_episode", "fault.blackholed",
         "sim.latency_samples"},
        "count");
    add({"hw.tlb_hit_ratio", "blkfs.hit_ratio", "resil.hedge_win_ratio", "orch.slo_attainment"},
        "ratio");
    add({"net.nic_kicks_per_req", "net.nic_irqs_per_req"}, "1/req");
    add({"host.frames_peak", "host.frames_leaked", "snap.clone_dirty_frames",
         "snap.clone_shared_frames"},
        "frames");
    add({"snap.image_bytes"}, "bytes");
    add({"span.chain-client.sim_us", "span.chain-proxy.sim_us", "span.chain-backend.sim_us",
         "span.nic-kick.sim_us", "span.nic-irq.sim_us", "span.gate-hypercall.sim_us",
         "span.ksm-roundtrip.sim_us", "span.net-hop.sim_us", "orch.p99_bucket_us"},
        "us");
    add({"sim.tail_percentile"}, "pct");
    for (const char* layer : kHostSpanLayers) {
      d.push_back({std::string(layer) + ".host_ms", "ms"});
    }
    add({"host.owned_frames.host_us"}, "us");
    add({"sim.host_ns_per_event"}, "ns");
    add({"obs.telemetry.host_share", "bench.trace_overhead", "bench.unattributed_share"},
        "share");
    return d;
  }();
  return defs;
}

RunResult Summarize(const RunLog& log, const std::vector<Span>& spans, uint64_t golden,
                    bool trace_run) {
  const std::vector<PassResult>& passes = log.passes;
  const std::vector<bool>& traced = log.traced;
  const std::vector<size_t>& span_starts = log.span_starts;
  RunResult out;
  if (passes.empty()) {
    return out;
  }
  const PassResult& ref = passes.front();
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    out.attempted += p.units;
    uint64_t failed = p.failed_units;
    for (const std::string& e : p.errors) {
      out.errors.push_back("pass " + std::to_string(i) + ": " + e);
    }
    std::ostringstream digest;
    digest << "0x" << std::hex << p.digest;
    if (golden != 0 && p.digest != golden) {
      failed = p.units;  // the digest covers every unit of the pass
      std::ostringstream want;
      want << "0x" << std::hex << golden;
      out.errors.push_back("pass " + std::to_string(i) + ": digest " + digest.str() +
                           " differs from the golden " + want.str());
    } else if (!SameSim(p, ref)) {
      failed = p.units;
      out.errors.push_back("pass " + std::to_string(i) + ": digest " + digest.str() +
                           " or simulated results differ from pass 0");
    }
    out.failed += failed;
  }

  std::vector<double> untraced_ns;
  std::vector<double> traced_ns;
  std::vector<double> setups;
  std::vector<double> ns_per_event;
  uint64_t untraced_ops = 0;
  double untraced_s = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    setups.push_back(p.setup_ns / 1e9);
    if (traced[i]) {
      traced_ns.push_back(p.measured_ns);
      continue;
    }
    untraced_ns.push_back(p.measured_ns);
    untraced_ops += p.ops;
    untraced_s += p.measured_ns / 1e9;
    if (p.events > 0) {
      ns_per_event.push_back(p.measured_ns / static_cast<double>(p.events));
    }
  }

  std::map<std::string, double>& m = out.metrics;
  if (!trace_run) {
    // Ops over the whole measured time of the run: under a neighbour's
    // on/off interference a per-pass median jumps between modes.
    m["ops_per_s"] = untraced_s > 0 ? static_cast<double>(untraced_ops) / untraced_s : 0;
    m["setup_s"] = Median(setups);
    m["peak_rss_mb"] = log.peak_rss_mb;
    m["sim_ms"] = ref.sim_ns / 1e6;
    m["sim_p50_us"] = ref.sim_p50_ns / 1e3;
    m["sim_p99_us"] = ref.sim_p99_ns / 1e3;
    return out;
  }

  for (const MetricDef& def : PerLayerMetrics()) {
    auto it = ref.sim.find(def.name);
    m[def.name] = it != ref.sim.end() ? it->second : 0;
  }
  m["sim.latency_samples"] = static_cast<double>(ref.latency_samples);
  m["sim.tail_percentile"] = ref.tail_percentile;
  m["sim.host_ns_per_event"] = Median(ns_per_event);
  if (!traced_ns.empty() && !untraced_ns.empty()) {
    m["bench.trace_overhead"] = Median(traced_ns) / Median(untraced_ns) - 1.0;
  }

  // Host-side probes: averaged within a pass, median across passes.
  std::map<std::string, std::vector<double>> probes;
  for (const PassResult& p : passes) {
    for (const auto& [name, samples] : p.host_samples) {
      probes[name].push_back(Mean(samples));
    }
  }
  for (const auto& [name, per_pass] : probes) {
    m[name] = Median(per_pass);
  }

  // Span self times per traced pass, median across traced passes.
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> unattributed;
  for (size_t i = 0; i < passes.size(); ++i) {
    if (!traced[i]) {
      continue;
    }
    const size_t end = i + 1 < span_starts.size() ? span_starts[i + 1] : spans.size();
    std::map<std::string, double> by_name;
    double measured_self = 0;
    double measured_total = 0;
    for (size_t s = span_starts[i]; s < end; ++s) {
      by_name[spans[s].name] += self[s];
      if (spans[s].name == "measured") {
        measured_self += self[s];
        measured_total += spans[s].duration_ns();
      }
    }
    for (const char* layer : kHostSpanLayers) {
      layer_ms[layer].push_back(by_name[layer] / 1e6);
    }
    if (measured_total > 0) {
      unattributed.push_back(measured_self / measured_total);
    }
  }
  for (const auto& [layer, values] : layer_ms) {
    m[layer + ".host_ms"] = Median(values);
  }
  m["bench.unattributed_share"] = Median(unattributed);
  return out;
}

void WriteResultLine(std::ostream& os, const RunResult& result, bool trace_run) {
  const std::vector<MetricDef>& defs = trace_run ? PerLayerMetrics() : EndToEndMetrics();
  os << "{\"correct\": " << (result.failed == 0 && result.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = result.metrics.find(defs[i].name);
    os << (i > 0 ? ", " : "") << '"' << defs[i].name << "\": {\"value\": ";
    WriteNumber(os, it != result.metrics.end() ? it->second : 0);
    os << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  os << "}}\n";
}

void WriteHostRecord(std::ostream& os, const std::string& rev) {
  os << "{\"rev\": ";
  WriteJsonString(os, rev);
  os << ", \"cpu\": ";
  WriteJsonString(os, CpuModel());
  os << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"lto\": "
     << (PERFBENCH_LTO ? "true" : "false") << "}";
}

}  // namespace perfbench
