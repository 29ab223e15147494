// Bounded-memory latency histogram (HDR-style log2 buckets).
//
// Each power-of-two range is split into 2^kSubBits linear sub-buckets, so
// relative quantile error is bounded by ~2^-(kSubBits+1) regardless of how
// many samples are recorded. Unlike Stats (which stores raw samples), a
// Histogram occupies fixed memory, making it safe for always-on recording
// in soak runs and million-op workloads.
//
// Thread-safety: none — a histogram is written by exactly one shard's
// thread. Cross-thread aggregation is merge-by-value after the writers
// stop: Merge() is bucket-wise addition, so merging per-shard histograms
// (in any order) is exactly equivalent to having recorded every sample
// into one histogram — counts, min/max, sum, and every quantile agree
// (tested in tests/cluster_test.cc). This is what makes per-shard
// recording under SimCluster lossless.
// Ownership: plain value type; copy/move freely.
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>

namespace cki {

class Histogram {
 public:
  // 8 linear sub-buckets per octave: worst-case quantile error ~6%.
  static constexpr int kSubBits = 3;
  static constexpr uint64_t kSubCount = 1ULL << kSubBits;
  // Last fully resolved octave is [2^39, 2^40) — about 18 simulated
  // minutes in nanoseconds. Larger values land in the overflow bucket.
  static constexpr int kMaxExp = 39;
  static constexpr size_t kOverflowBucket =
      static_cast<size_t>(kMaxExp - kSubBits + 2) * kSubCount;
  static constexpr size_t kBucketCount = kOverflowBucket + 1;
  using Buckets = std::array<uint64_t, kBucketCount>;

  // Maps a value to its bucket index.
  static constexpr size_t BucketIndex(uint64_t v) {
    if (v < kSubCount) {
      return static_cast<size_t>(v);
    }
    int h = std::bit_width(v) - 1;  // position of the top set bit
    if (h > kMaxExp) {
      return kOverflowBucket;
    }
    uint64_t sub = (v >> (h - kSubBits)) & (kSubCount - 1);
    return static_cast<size_t>(h - kSubBits + 1) * kSubCount + static_cast<size_t>(sub);
  }

  // Smallest value that lands in bucket `idx`.
  static constexpr uint64_t BucketLowerBound(size_t idx) {
    if (idx < kSubCount) {
      return idx;
    }
    if (idx >= kOverflowBucket) {
      return 1ULL << (kMaxExp + 1);
    }
    uint64_t block = idx / kSubCount;  // >= 1
    uint64_t sub = idx % kSubCount;
    int shift = static_cast<int>(block) - 1;
    return (kSubCount + sub) << shift;
  }

  // Width of bucket `idx` (1 for the exact low buckets).
  static constexpr uint64_t BucketWidth(size_t idx) {
    return idx < kSubCount ? 1 : BucketLowerBound(idx + 1) - BucketLowerBound(idx);
  }

  // Records one sample. O(1), no allocation.
  void Add(uint64_t v) {
    buckets_[BucketIndex(v)]++;
    count_++;
    sum_ += static_cast<double>(v);
    min_ = (count_ == 1) ? v : std::min(min_, v);
    max_ = std::max(max_, v);
  }

  // Folds `other` into this histogram bucket-wise; `other` is untouched.
  // Equivalent to replaying every sample of `other` into this histogram.
  void Merge(const Histogram& other) {
    if (other.count_ == 0) {
      return;
    }
    for (size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    min_ = (count_ == 0) ? other.min_ : std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  uint64_t min() const { return min_; }
  uint64_t max() const { return max_; }
  double Sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  uint64_t bucket(size_t idx) const { return buckets_[idx]; }
  const Buckets& buckets() const { return buckets_; }
  uint64_t overflow_count() const { return buckets_[kOverflowBucket]; }

  // Quantile estimate (bucket midpoint, clamped to [min, max]), p in
  // [0, 100]. Error is bounded by the bucket width, not the sample count.
  double Percentile(double p) const { return PercentileOf(buckets_, count_, min_, max_, p); }

  // The one quantile walk, over any bucket array whose `count` samples
  // all lie in [min, max]: Percentile() and SloWindow's running window
  // both answer through it. The walk starts at min's bucket (every
  // bucket below it is empty).
  static double PercentileOf(const Buckets& buckets, uint64_t count, uint64_t min, uint64_t max,
                             double p) {
    if (count == 0) {
      return 0.0;
    }
    double want = std::ceil((p / 100.0) * static_cast<double>(count));
    uint64_t target = static_cast<uint64_t>(std::clamp(want, 1.0, static_cast<double>(count)));
    if (target == count) {
      return static_cast<double>(max);  // the exact max is tracked
    }
    uint64_t cum = 0;
    for (size_t i = BucketIndex(min); i < kBucketCount; ++i) {
      cum += buckets[i];
      if (cum >= target) {
        if (i == kOverflowBucket) {
          return static_cast<double>(max);
        }
        uint64_t rep = BucketLowerBound(i) + BucketWidth(i) / 2;
        return static_cast<double>(std::clamp(rep, min, max));
      }
    }
    return static_cast<double>(max);  // unreachable: cum == count by the end
  }

  // Touches only the occupied span [BucketIndex(min), BucketIndex(max)].
  void Clear() {
    if (count_ != 0) {
      std::fill(buckets_.begin() + BucketIndex(min_), buckets_.begin() + BucketIndex(max_) + 1,
                0);
    }
    count_ = 0;
    min_ = 0;
    max_ = 0;
    sum_ = 0;
  }

  // One-line JSON summary: {"count":..,"min":..,"p50":..,...}
  void WriteJson(std::ostream& os) const {
    os << "{\"count\":" << count_ << ",\"min\":" << min_ << ",\"max\":" << max_
       << ",\"mean\":" << Mean() << ",\"p50\":" << Percentile(50)
       << ",\"p95\":" << Percentile(95) << ",\"p99\":" << Percentile(99)
       << ",\"overflow\":" << overflow_count() << "}";
  }

 private:
  Buckets buckets_{};
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0;
};

}  // namespace cki

#endif  // SRC_OBS_HISTOGRAM_H_
