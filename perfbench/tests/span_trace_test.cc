// Unit tests of the benchmark's own arithmetic: the tail-percentile rule,
// span self time with nested and overlapping children, and the metric-name
// charset.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/report.h"
#include "src/span_trace.h"

namespace perfbench {
namespace {

Span MakeSpan(double start, double end, int parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(TailPercentileTest, P99OnceTenSamplesLieBeyondIt) {
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(TailPercentile(5000), 99);
}

TEST(TailPercentileTest, LowerPercentileWhenFewerSamples) {
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90);
  EXPECT_DOUBLE_EQ(TailPercentile(55), 100.0 * 45 / 55);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 50);
  EXPECT_DOUBLE_EQ(TailPercentile(19), 50);
  EXPECT_DOUBLE_EQ(TailPercentile(0), 50);
}

TEST(TailPercentileTest, LeavesExactlyTenSamplesBeyond) {
  for (size_t n : {20u, 55u, 100u, 576u, 999u, 1000u}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<double>(i));
    }
    double value = Percentile(v, TailPercentile(n));
    size_t beyond = 0;
    for (double x : v) {
      beyond += x > value ? 1 : 0;
    }
    EXPECT_GE(beyond, 10u) << "n=" << n;
    if (n < 1000) {
      EXPECT_EQ(beyond, 10u) << "n=" << n;
    }
  }
}

TEST(PercentileTest, NearestRankAndMedian) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3, 2, 4}, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3, 2, 4}, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
}

TEST(SelfTimeTest, LeafSpanIsAllSelf) {
  std::vector<double> self = SelfTimes({MakeSpan(10, 30, -1)});
  EXPECT_DOUBLE_EQ(self[0], 20);
}

TEST(SelfTimeTest, NestedChildrenSubtractOneLevelOnly) {
  // root [0,100) > child [10,60) > grandchild [20,30)
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 60, 0), MakeSpan(20, 30, 1)};
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 50);
  EXPECT_DOUBLE_EQ(self[1], 40);
  EXPECT_DOUBLE_EQ(self[2], 10);
  double total = self[0] + self[1] + self[2];
  EXPECT_DOUBLE_EQ(total, spans[0].duration_ns());
}

TEST(SelfTimeTest, OverlappingChildrenCountCoveredTimeOnce) {
  // Children [10,40) and [30,50) overlap on [30,40): 40 ns covered.
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 40, 0), MakeSpan(30, 50, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 60);
}

TEST(SelfTimeTest, ContainedAndDisjointChildren) {
  // [10,50) contains [20,30); [70,80) is disjoint: 50 ns covered.
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 50, 0), MakeSpan(20, 30, 0),
                             MakeSpan(70, 80, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 50);
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  std::vector<Span> spans = {MakeSpan(10, 20, -1), MakeSpan(5, 15, 0), MakeSpan(18, 40, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 3);
}

TEST(SpanRecorderTest, ParentsFollowNesting) {
  SpanRecorder rec;
  rec.set_enabled(true);
  int outer = rec.Begin("outer", 1);
  {
    ScopedSpan inner(rec, "inner", 2);
  }
  rec.End(outer);
  ScopedSpan after(rec, "after", 3);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].op, 2u);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
}

TEST(SpanRecorderTest, DisabledRecordsNothing) {
  SpanRecorder rec;
  {
    ScopedSpan s(rec, "x");
  }
  EXPECT_TRUE(rec.spans().empty());
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("ops_per_s"));
  EXPECT_TRUE(ValidMetricName("span.chain-client.sim_us"));
  EXPECT_TRUE(ValidMetricName("0x.A-b_c"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("chain/client"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, EveryDefinedMetricIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(ValidMetricName(def.name)) << def.name;
      EXPECT_FALSE(def.unit.empty()) << def.name;
      EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
    }
  }
}

}  // namespace
}  // namespace perfbench
