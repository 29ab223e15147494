// Rolling-window time series over simulated time: the always-on SLO view.
//
// A SloWindow is a ring of time buckets, each holding one HDR histogram of
// syscall latencies plus op/fault counters for one bucket-sized slice of
// simulated time. Writes touch exactly one bucket (O(1), no allocation
// after construction); queries fold the live buckets together, answering
// "p99 over the last W ms", "syscall rate", "faults in window" and the
// latest resident-frames gauge per container. Buckets expire by epoch:
// writing into a slot whose epoch moved on clears it first, so a window
// never reports samples older than `window_ns()`.
//
// Percentile queries read a running live histogram instead of merging
// the ring per query (DESIGN.md §11). A bucket is live while its epoch is
// inside the window ending at the latest write's epoch (the anchor). Live
// buckets' latency counts are summed into live_; a bucket leaves the sum
// when the anchor moves past it or when a write reuses its slot, which
// includes a stale write (older than the window) landing on a live slot.
//
// Everything is keyed off the simulated clock — the window is as
// deterministic as the simulation feeding it, and identical at any host
// thread count.
//
// Thread-safety: none — owned by one Observability hub, touched only from
// that shard's thread (the hub's contract).
#ifndef SRC_OBS_SLO_WINDOW_H_
#define SRC_OBS_SLO_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "src/obs/histogram.h"
#include "src/sim/clock.h"

namespace cki {

class SloWindow {
 public:
  struct Config {
    SimNanos bucket_ns = 1'000'000;  // 1 simulated ms per bucket
    uint32_t buckets = 8;            // window = bucket_ns * buckets
  };

  SloWindow() { Init(); }
  explicit SloWindow(Config config) : config_(config) { Init(); }

  SimNanos window_ns() const { return config_.bucket_ns * config_.buckets; }

  void ObserveLatency(SimNanos now, SimNanos latency_ns) {
    Bucket& b = Touch(now);
    b.latency.Add(latency_ns);
    b.ops++;
    total_ops_++;
    if (b.live) {
      live_[Histogram::BucketIndex(latency_ns)]++;
      live_count_++;
    }
  }

  void IncFaults(SimNanos now, uint64_t n = 1) {
    Touch(now).faults += n;
    total_faults_ += n;
  }

  // RX-ring overrun backpressure events (kNicOverload promoted from
  // advisory-only): windowed like faults so shedding decisions and
  // dashboards see *current* backpressure, not lifetime totals.
  void IncOverloads(SimNanos now, uint64_t n = 1) {
    Touch(now).overloads += n;
    total_overloads_ += n;
  }

  // Latest point-in-time gauge (resident frames); last write wins.
  void SetGauge(SimNanos now, uint64_t value) {
    Touch(now);
    gauge_ = value;
  }

  uint64_t gauge() const { return gauge_; }
  uint64_t total_ops() const { return total_ops_; }
  uint64_t total_faults() const { return total_faults_; }
  uint64_t total_overloads() const { return total_overloads_; }
  // Simulated time of the most recent write (queries anchor here).
  SimNanos last_ns() const { return last_ns_; }

  // --- window queries, anchored at the most recent write ------------------

  uint64_t WindowOps() const {
    uint64_t n = 0;
    ForLive([&](const Bucket& b) { n += b.ops; });
    return n;
  }

  uint64_t WindowFaults() const {
    uint64_t n = 0;
    ForLive([&](const Bucket& b) { n += b.faults; });
    return n;
  }

  uint64_t WindowOverloads() const {
    uint64_t n = 0;
    ForLive([&](const Bucket& b) { n += b.overloads; });
    return n;
  }

  // Ops per simulated second over the window span.
  double OpsPerSec() const {
    double secs = static_cast<double>(window_ns()) * 1e-9;
    return secs > 0 ? static_cast<double>(WindowOps()) / secs : 0;
  }

  // Latency percentile over the live buckets (0 with no samples).
  uint64_t Percentile(double p) const { return static_cast<uint64_t>(LivePercentile(p)); }

  // {"window_ns":..,"ops":..,"ops_per_sec":..,"p50":..,"p99":..,
  //  "faults":..,"overloads":..,"gauge":..}
  void WriteJson(std::ostream& os) const {
    os << "{\"window_ns\":" << window_ns() << ",\"ops\":" << WindowOps()
       << ",\"ops_per_sec\":" << OpsPerSec() << ",\"p50\":" << LivePercentile(50)
       << ",\"p99\":" << LivePercentile(99)
       << ",\"faults\":" << WindowFaults() << ",\"overloads\":" << WindowOverloads()
       << ",\"gauge\":" << gauge_ << "}";
  }

 private:
  struct Bucket {
    int64_t epoch = -1;  // now / bucket_ns when last written; -1: never
    bool live = false;   // inside the window; its latencies are in live_
    Histogram latency;
    uint64_t ops = 0;
    uint64_t faults = 0;
    uint64_t overloads = 0;
  };

  void Init() {
    if (config_.bucket_ns < 1) {
      config_.bucket_ns = 1;
    }
    if (config_.buckets < 1) {
      config_.buckets = 1;
    }
    ring_.resize(config_.buckets);
  }

  // Keeps `live` equal to "anchor_ - buckets < epoch <= anchor_" (a
  // bucket's epoch never exceeds the anchor).
  Bucket& Touch(SimNanos now) {
    const int64_t size = static_cast<int64_t>(ring_.size());
    const int64_t epoch = static_cast<int64_t>(now / config_.bucket_ns);
    if (now > last_ns_) {
      last_ns_ = now;
      if (epoch != anchor_) {
        anchor_ = epoch;
        for (Bucket& old : ring_) {
          if (old.live && old.epoch <= anchor_ - size) {
            Unlive(old);
          }
        }
      }
    }
    Bucket& b = ring_[static_cast<size_t>(epoch) % ring_.size()];
    if (b.epoch != epoch) {
      if (b.live) {
        Unlive(b);
      }
      b.latency.Clear();
      b.ops = 0;
      b.faults = 0;
      b.overloads = 0;
      b.epoch = epoch;
      b.live = epoch > anchor_ - size;
    }
    return b;
  }

  // Takes a bucket's latencies out of the live sum (only the bucket's
  // occupied span [BucketIndex(min), BucketIndex(max)]).
  void Unlive(Bucket& b) {
    const Histogram& h = b.latency;
    if (h.count() != 0) {
      const Histogram::Buckets& counts = h.buckets();
      for (size_t i = Histogram::BucketIndex(h.min()); i <= Histogram::BucketIndex(h.max()); ++i) {
        live_[i] -= counts[i];
      }
      live_count_ -= h.count();
    }
    b.live = false;
  }

  // The quantile walk over the live sum, bounded by the live buckets'
  // min and max (0 with no live samples).
  double LivePercentile(double p) const {
    if (live_count_ == 0) {
      return 0;
    }
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    ForLive([&](const Bucket& b) {
      if (b.latency.count() != 0) {
        lo = std::min(lo, b.latency.min());
        hi = std::max(hi, b.latency.max());
      }
    });
    return Histogram::PercentileOf(live_, live_count_, lo, hi, p);
  }

  // Applies `fn` to every bucket still inside the window.
  template <typename Fn>
  void ForLive(Fn&& fn) const {
    for (const Bucket& b : ring_) {
      if (b.live) {
        fn(b);
      }
    }
  }

  // The scalars a write touches sit together; live_ (2.4 KB) comes last
  // so it does not push them onto separate cache lines.
  Config config_;
  std::vector<Bucket> ring_;
  SimNanos last_ns_ = 0;
  int64_t anchor_ = 0;  // last_ns_ / bucket_ns: the window's newest epoch
  uint64_t total_ops_ = 0;
  uint64_t live_count_ = 0;  // samples in live_
  uint64_t gauge_ = 0;
  uint64_t total_faults_ = 0;
  uint64_t total_overloads_ = 0;
  Histogram::Buckets live_{};  // sum of the live buckets' latency counts
};

}  // namespace cki

#endif  // SRC_OBS_SLO_WINDOW_H_
