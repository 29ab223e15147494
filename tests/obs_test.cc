// Tests for the observability subsystem: histogram bucketing and
// percentiles, flight-recorder overflow accounting, span nesting over a
// real engine, PathEvent name round-trips, and the JSON/Chrome-trace
// exporters (golden output + parse-back).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/histogram.h"
#include "src/obs/slo_window.h"
#include "src/obs/trace_context.h"
#include "src/obs/trace_export.h"
#include "src/obs/trace_scope.h"
#include "src/runtime/runtime.h"
#include "src/sim/seed_split.h"
#include "src/sim/stats.h"
#include "tests/json_parse.h"

namespace cki {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, SmallValuesAreExactBuckets) {
  // Values below kSubCount each get their own unit-width bucket.
  for (uint64_t v = 0; v < Histogram::kSubCount; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketWidth(v), 1u);
  }
}

TEST(HistogramTest, BucketBoundariesAreMonotoneAndCovering) {
  // Every bucket's lower bound must map back to that bucket, and the
  // value one below it to the previous bucket.
  for (size_t idx = 1; idx < Histogram::kOverflowBucket; ++idx) {
    uint64_t lo = Histogram::BucketLowerBound(idx);
    EXPECT_EQ(Histogram::BucketIndex(lo), idx) << "lo=" << lo;
    EXPECT_EQ(Histogram::BucketIndex(lo - 1), idx - 1) << "lo=" << lo;
  }
}

TEST(HistogramTest, PowerOfTwoBoundaries) {
  // 2^h starts a fresh octave: sub-bucket 0 of block h-kSubBits+1.
  for (int h = Histogram::kSubBits; h <= Histogram::kMaxExp; ++h) {
    uint64_t v = 1ULL << h;
    size_t idx = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(idx), v);
  }
}

TEST(HistogramTest, OverflowBucketCatchesHugeValues) {
  Histogram h;
  uint64_t huge = 1ULL << 45;  // beyond kMaxExp = 39
  h.Add(huge);
  h.Add(huge + 12345);
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), huge + 12345);
  // Percentiles of overflow-only data report the true max, not a bucket
  // midpoint.
  EXPECT_DOUBLE_EQ(h.Percentile(50), static_cast<double>(huge + 12345));
}

TEST(HistogramTest, PercentilesOnKnownDistribution) {
  // 1..1000: p50 ~ 500, p99 ~ 990, within the ~6% relative bucket error.
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.Percentile(50), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(h.Percentile(95), 950.0, 950.0 * 0.07);
  EXPECT_NEAR(h.Percentile(99), 990.0, 990.0 * 0.07);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
}

TEST(HistogramTest, ConstantDistributionIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Add(777);
  }
  // min == max == 777 clamps every percentile to the exact value.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 777.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 777.0);
}

TEST(HistogramTest, MergeAddsCountsAndExtremes) {
  Histogram a;
  Histogram b;
  a.Add(10);
  a.Add(20);
  b.Add(5);
  b.Add(40);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 40u);
  EXPECT_DOUBLE_EQ(a.Sum(), 75.0);
}

TEST(HistogramTest, JsonSummaryParses) {
  Histogram h;
  h.Add(100);
  h.Add(200);
  std::ostringstream os;
  h.WriteJson(os);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* count = parsed->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number, 2.0);
}

// ---------------------------------------------------------- FlightRecorder

TEST(FlightRecorderTest, OverflowKeepsNewestAndCountsDropped) {
  FlightRecorder rec(4);
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Record(TraceRecord{.ts = i * 100, .arg = i});
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);  // never silent
  std::vector<TraceRecord> chron = rec.Chronological();
  ASSERT_EQ(chron.size(), 4u);
  // The four newest records, oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chron[i].arg, 6 + i);
    EXPECT_EQ(chron[i].ts, (6 + i) * 100);
  }
}

TEST(FlightRecorderTest, NoOverflowBeforeCapacity) {
  FlightRecorder rec(8);
  rec.Record(TraceRecord{.ts = 1});
  rec.Record(TraceRecord{.ts = 2});
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
  std::vector<TraceRecord> chron = rec.Chronological();
  ASSERT_EQ(chron.size(), 2u);
  EXPECT_EQ(chron[0].ts, 1u);
  EXPECT_EQ(chron[1].ts, 2u);
}

// ------------------------------------------------------- PathEvent naming

TEST(PathEventTest, EveryEventNameRoundTrips) {
  for (size_t i = 0; i < static_cast<size_t>(PathEvent::kCount); ++i) {
    PathEvent e = static_cast<PathEvent>(i);
    std::string_view name = PathEventName(e);
    EXPECT_NE(name, "unknown");
    std::optional<PathEvent> back = PathEventFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, e) << name;
  }
  EXPECT_FALSE(PathEventFromName("not_an_event").has_value());
  EXPECT_EQ(PathEventName(PathEvent::kCount), "unknown");
}

// ------------------------------------------------------------ Phase table

TEST(PhaseTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> seen;
  for (size_t i = 0; i < static_cast<size_t>(Phase::kCount); ++i) {
    std::string_view name = PhaseName(static_cast<Phase>(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_NE(name, "unknown") << i;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  EXPECT_EQ(PhaseName(Phase::kCount), "unknown");
}

TEST(PhaseTest, SyscallPhasesAreTheSyscallNames) {
  for (size_t i = 0; i < static_cast<size_t>(Sys::kCount); ++i) {
    Sys s = static_cast<Sys>(i);
    EXPECT_EQ(PhaseName(SysPhase(s)), SysName(s));
  }
  EXPECT_EQ(PhaseName(SysPhase(Sys::kCount)), "unknown");
}

// ------------------------------------------------------------- Disabled path

TEST(ObservabilityTest, AccessorsOnNeverEnabledHubAreEmptyNotFatal) {
  {
    Observability obs;
    EXPECT_EQ(obs.recorder().size(), 0u);
    EXPECT_TRUE(obs.profiler().nodes().empty());
    EXPECT_EQ(obs.metrics().FindHist("syscall/getpid"), nullptr);
    EXPECT_FALSE(obs.enabled());  // allocating the stores does not enable them
    EXPECT_EQ(obs.Slo(7).WindowOps(), 0u);
  }
  {
    const Observability obs;
    EXPECT_EQ(obs.profiler().nodes().size(), 0u);
    EXPECT_EQ(obs.metrics().FindHist("x"), nullptr);
    EXPECT_EQ(obs.recorder().dropped(), 0u);
    EXPECT_FALSE(obs.enabled());
  }
  // A never-enabled context still records nothing through the gate.
  SimContext ctx;
  ctx.ChargeWork(10);
  EXPECT_TRUE(ctx.obs().profiler().nodes().empty());
  EXPECT_FALSE(ctx.obs().enabled());
}

TEST(ObservabilityTest, DisabledContextRecordsNothing) {
  SimContext ctx;
  EXPECT_FALSE(ctx.obs().enabled());
  ctx.Charge(100, PathEvent::kSyscallEntry);
  ctx.RecordEvent(PathEvent::kTlbHit);
  {
    TraceScope scope(ctx, Phase::kTouch);
    ctx.ChargeWork(50);
  }
  // The TraceLog still counts (it is always on); obs stores stay
  // unallocated.
  EXPECT_EQ(ctx.trace().Count(PathEvent::kSyscallEntry), 1u);
  EXPECT_FALSE(ctx.obs().has_data());
  std::ostringstream os;
  ctx.obs().WriteJson(os);
  EXPECT_EQ(os.str(), "{\"enabled\":false}");
}

// -------------------------------------------------- Span nesting on engines

TEST(ObservabilityTest, SpanTreeCoversMeasuredTimeOnCki) {
  Testbed bed(RuntimeKind::kCki, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(4 * kPageSize, false);
  bed.engine().UserTouch(base, true);  // warm intermediate tables

  bed.ctx().obs().Enable();
  bed.ctx().obs().set_owner(bed.engine().id());
  SimNanos total = bed.Measure([&] {
    bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
    bed.engine().UserTouch(base + kPageSize, true);
    bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  });
  bed.ctx().obs().Disable();

  const SpanProfiler& prof = bed.ctx().obs().profiler();
  // All spans closed, and the root spans account for exactly the measured
  // simulated time: the breakdown sums to the end-to-end latency.
  EXPECT_EQ(prof.depth(), 0u);
  EXPECT_EQ(prof.RootTotal(), total);

  int syscall_node = prof.FindChild(-1, "syscall");
  int touch_node = prof.FindChild(-1, "touch");
  ASSERT_NE(syscall_node, -1);
  ASSERT_NE(touch_node, -1);
  EXPECT_EQ(prof.nodes()[static_cast<size_t>(syscall_node)].count, 2u);
  EXPECT_EQ(prof.nodes()[static_cast<size_t>(touch_node)].count, 1u);

  // The guest kernel's handler span nests under the engine's root span.
  int getpid_node = prof.FindChild(syscall_node, "getpid");
  ASSERT_NE(getpid_node, -1);
  EXPECT_EQ(prof.nodes()[static_cast<size_t>(getpid_node)].count, 2u);

  // The touch path shows the CKI mechanism: fault -> mm/fault_in -> KSM
  // PTE store, each nested inside its parent.
  int fault_node = prof.FindChild(touch_node, "fault");
  ASSERT_NE(fault_node, -1);
  int fault_in_node = prof.FindChild(fault_node, "mm/fault_in");
  ASSERT_NE(fault_in_node, -1);
  EXPECT_NE(prof.FindChild(fault_in_node, "ksm/store_pte"), -1);

  // total >= self everywhere; parent total covers child total.
  const SpanProfiler::Node& touch = prof.nodes()[static_cast<size_t>(touch_node)];
  const SpanProfiler::Node& fault = prof.nodes()[static_cast<size_t>(fault_node)];
  EXPECT_GE(touch.total, touch.self);
  EXPECT_GE(touch.total, fault.total);

  // The per-syscall latency histogram recorded both getpid calls.
  const Histogram* hist = bed.ctx().obs().metrics().FindHist("syscall/getpid");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
}

TEST(ObservabilityTest, RootTotalMatchesMeasureAcrossEngines) {
  for (RuntimeKind kind :
       {RuntimeKind::kRunc, RuntimeKind::kHvm, RuntimeKind::kPvm, RuntimeKind::kCki}) {
    Testbed bed(kind, Deployment::kBareMetal);
    uint64_t base = bed.engine().MmapAnon(8 * kPageSize, false);
    bed.engine().UserTouch(base, true);
    bed.ctx().obs().Enable();
    SimNanos total = bed.Measure([&] {
      for (int i = 1; i < 8; ++i) {
        bed.engine().UserTouch(base + static_cast<uint64_t>(i) * kPageSize, true);
      }
      bed.engine().UserSyscall(SyscallRequest{.no = Sys::kWrite});
    });
    EXPECT_EQ(bed.ctx().obs().profiler().depth(), 0u);
    EXPECT_EQ(bed.ctx().obs().profiler().RootTotal(), total)
        << "engine " << static_cast<int>(kind);
    EXPECT_GT(bed.ctx().obs().recorder().total_recorded(), 0u);
  }
}

// ------------------------------------------------------------ JSON exports

TEST(ObservabilityTest, WriteJsonParsesAndReportsRecorder) {
  SimContext ctx;
  ctx.obs().Enable(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ctx.Charge(10, PathEvent::kTlbMiss);
  }
  {
    TraceScope scope(ctx, Phase::kTouch);
    ctx.ChargeWork(100);
  }
  ctx.obs().metrics().Inc("boots");
  std::ostringstream os;
  ctx.obs().WriteJson(os);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* recorder = parsed->Find("recorder");
  ASSERT_NE(recorder, nullptr);
  const JsonValue* dropped = recorder->Find("dropped");
  ASSERT_NE(dropped, nullptr);
  // 10 instants + span begin/end = 12 records into a 4-slot ring.
  EXPECT_DOUBLE_EQ(dropped->number, 8.0);
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items.size(), 1u);
  const JsonValue* name = spans->items[0].Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string_value, "touch");
  const JsonValue* total_ns = spans->items[0].Find("total_ns");
  ASSERT_NE(total_ns, nullptr);
  EXPECT_DOUBLE_EQ(total_ns->number, 100.0);
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* boots = counters->Find("boots");
  ASSERT_NE(boots, nullptr);
  EXPECT_DOUBLE_EQ(boots->number, 1.0);
}

TEST(TraceExportTest, GoldenChromeTrace) {
  SimContext ctx;
  ctx.obs().Enable(/*ring_capacity=*/8);
  ctx.obs().set_owner(3);
  {
    TraceScope span(ctx, Phase::kTouch);
    ctx.ChargeWork(1000);
    ctx.RecordEvent(PathEvent::kSyscallEntry, 7);
    ctx.ChargeWork(500);
  }
  std::ostringstream os;
  WriteChromeTrace(ctx.obs(), os);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"cki-sim\"}},\n"
      "{\"name\":\"touch\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":0.000,\"pid\":1,\"tid\":3},\n"
      "{\"name\":\"syscall_entry\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.000,"
      "\"pid\":1,\"tid\":3,\"args\":{\"arg\":7}},\n"
      "{\"name\":\"touch\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":1.500,\"pid\":1,\"tid\":3}\n"
      "]}\n");

  // And it is well-formed JSON with balanced B/E events.
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 4u);
  int begins = 0;
  int ends = 0;
  for (const JsonValue& e : events->items) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    begins += (ph->string_value == "B");
    ends += (ph->string_value == "E");
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST(TraceExportTest, OutOfRangeSpanCodeExportsAsUnknown) {
  SimContext ctx;
  ctx.obs().Enable(/*ring_capacity=*/8);
  constexpr uint16_t kBadCode = static_cast<uint16_t>(Phase::kCount) + 5;
  ctx.obs().RecordRing(
      TraceRecord{.ts = 0, .owner = 2, .code = kBadCode, .kind = TraceRecordKind::kSpanBegin});
  ctx.obs().RecordRing(
      TraceRecord{.ts = 1000, .owner = 2, .code = kBadCode, .kind = TraceRecordKind::kSpanEnd});
  std::ostringstream os;
  WriteChromeTrace(ctx.obs(), os);
  EXPECT_NE(os.str().find("{\"name\":\"unknown\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":0.000,"
                          "\"pid\":1,\"tid\":2}"),
            std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("{\"name\":\"unknown\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":1.000,"
                          "\"pid\":1,\"tid\":2}"),
            std::string::npos)
      << os.str();
}

TEST(TraceExportTest, TraceFromRealEngineParses) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  uint64_t base = bed.engine().MmapAnon(2 * kPageSize, false);
  bed.ctx().obs().Enable();
  bed.ctx().obs().set_owner(bed.engine().id());
  bed.engine().UserTouch(base, true);
  bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  std::ostringstream os;
  WriteChromeTrace(bed.ctx().obs(), os);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->items.size(), 4u);
}

// ------------------------------------------------------------ TraceContext

TEST(TraceContextTest, MintIsDeterministicNonZeroAndDistinct) {
  TraceContext a = MakeTraceContext(42, 1);
  TraceContext b = MakeTraceContext(42, 1);
  EXPECT_TRUE(a.active());
  EXPECT_EQ(a.trace_id, b.trace_id);  // pure function of (seed, sequence)
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_NE(MakeTraceContext(42, 2).trace_id, a.trace_id);
  EXPECT_NE(MakeTraceContext(43, 1).trace_id, a.trace_id);
}

TEST(TraceContextTest, DeriveSpanIdSaltsAndRespectsInactive) {
  TraceContext tc = MakeTraceContext(7, 7);
  EXPECT_NE(DeriveSpanId(tc, 1), DeriveSpanId(tc, 2));
  EXPECT_NE(DeriveSpanId(tc, 1), 0u);
  EXPECT_EQ(DeriveSpanId(TraceContext{}, 1), 0u);  // inactive stays inactive
}

// ----------------------------------------------------------- Sampling gate

TEST(ObservabilityTest, SamplingGateKeepsOneInNRootsWithPairedMarkers) {
  SimContext ctx;
  ctx.obs().Enable();
  ctx.obs().set_sample_every(4);
  for (int i = 0; i < 8; ++i) {
    TraceScope scope(ctx, Phase::kTouch);
    ctx.RecordEvent(PathEvent::kTlbHit);
    ctx.ChargeWork(10);
  }
  const ObsSelfStats& self = ctx.obs().self_stats();
  EXPECT_EQ(self.root_ops, 8u);
  EXPECT_EQ(self.sampled_ops, 2u);  // roots 0 and 4
  EXPECT_GT(self.suppressed_writes, 0u);

  // A sampled root records its whole subtree, an unsampled one records
  // nothing — begin/end markers stay paired either way.
  size_t begins = 0;
  size_t ends = 0;
  for (const TraceRecord& r : ctx.obs().recorder().Chronological()) {
    begins += r.kind == TraceRecordKind::kSpanBegin;
    ends += r.kind == TraceRecordKind::kSpanEnd;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);

  // The span tree only saw the sampled roots, and every span is closed.
  const SpanProfiler& prof = ctx.obs().profiler();
  EXPECT_EQ(prof.depth(), 0u);
  int op_node = prof.FindChild(-1, "touch");
  ASSERT_NE(op_node, -1);
  EXPECT_EQ(prof.nodes()[static_cast<size_t>(op_node)].count, 2u);
}

TEST(ObservabilityTest, WritesOutsideAnyScopeBypassTheGate) {
  SimContext ctx;
  ctx.obs().Enable();
  ctx.obs().set_sample_every(1000);
  ctx.RecordEvent(PathEvent::kTlbHit);  // setup/teardown writes always keep
  EXPECT_EQ(ctx.obs().self_stats().ring_writes, 1u);
  EXPECT_EQ(ctx.obs().self_stats().suppressed_writes, 0u);
}

TEST(ObservabilityTest, SloWindowsAndSelfStatsStayFullRateUnderSampling) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  bed.ctx().obs().Enable();
  bed.ctx().obs().set_sample_every(1u << 30);  // effectively sample nothing
  for (int i = 0; i < 10; ++i) {
    bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  }
  // Only the first root op recorded spans/histograms...
  const Histogram* hist = bed.ctx().obs().metrics().FindHist("syscall/getpid");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  // ...but the SLO window saw every syscall (always-on telemetry).
  EXPECT_EQ(bed.ctx().obs().self_stats().slo_samples, 10u);
  const SloWindow* slo = bed.ctx().obs().FindSlo(bed.engine().id());
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->total_ops(), 10u);
  EXPECT_GT(slo->Percentile(99), 0u);

  // Self-accounting exports as obs/self/* counters.
  MetricsRegistry out;
  bed.ctx().obs().ExportSelfMetrics(out);
  EXPECT_EQ(out.CounterValue("obs/self/root_ops"),
            bed.ctx().obs().self_stats().root_ops);
  EXPECT_EQ(out.CounterValue("obs/self/slo_samples"), 10u);
}

TEST(ObservabilityTest, ExportSloMetricsDumpsEveryWindowAsGauges) {
  Testbed bed(RuntimeKind::kRunc, Deployment::kBareMetal);
  bed.ctx().obs().Enable();
  for (int i = 0; i < 10; ++i) {
    bed.engine().UserSyscall(SyscallRequest{.no = Sys::kGetpid});
  }
  const uint32_t owner = bed.engine().id();
  bed.ctx().obs().SloSetGauge(owner, bed.ctx().clock().now(), 42);

  MetricsRegistry out;
  bed.ctx().obs().ExportSloMetrics(out);
  const std::string prefix = "slo/" + std::to_string(owner) + "/";
  const SloWindow* slo = bed.ctx().obs().FindSlo(owner);
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(out.CounterValue(prefix + "window_ops"), slo->WindowOps());
  EXPECT_EQ(out.CounterValue(prefix + "p99_ns"), slo->Percentile(99));
  EXPECT_GT(out.CounterValue(prefix + "p99_ns"), 0u);
  EXPECT_EQ(out.CounterValue(prefix + "ops_per_sec"),
            static_cast<uint64_t>(slo->OpsPerSec() + 0.5));
  EXPECT_EQ(out.CounterValue(prefix + "gauge"), 42u);
  EXPECT_EQ(out.CounterValue(prefix + "faults"), 0u);

  // Exporting from a never-enabled hub is a harmless no-op.
  Observability empty;
  MetricsRegistry none;
  empty.ExportSloMetrics(none);
  EXPECT_EQ(none.CounterValue(prefix + "window_ops"), 0u);
}

// -------------------------------------------------------------- SloWindow

// The ring before it kept a running live histogram: raw samples per slot,
// slots reset when a write lands on another epoch, and every query merges
// the live slots into a fresh Histogram.
class SloOracle {
 public:
  SloOracle(SimNanos bucket_ns, uint32_t buckets) : bucket_ns_(bucket_ns), ring_(buckets) {}

  void ObserveLatency(SimNanos now, SimNanos latency) {
    Slot& s = Touch(now);
    s.samples.push_back(latency);
    s.ops++;
  }
  void IncFaults(SimNanos now) { Touch(now).faults++; }
  void SetGauge(SimNanos now) { Touch(now); }

  double Percentile(double p) const {
    Histogram merged;
    uint64_t anchor = last_ns_ / bucket_ns_;
    for (const Slot& s : ring_) {
      if (Live(s, anchor)) {
        for (SimNanos v : s.samples) {
          merged.Add(v);
        }
      }
    }
    return merged.count() == 0 ? 0 : merged.Percentile(p);
  }
  uint64_t WindowOps() const { return Sum(&Slot::ops); }
  uint64_t WindowFaults() const { return Sum(&Slot::faults); }

 private:
  struct Slot {
    int64_t epoch = -1;
    std::vector<SimNanos> samples;
    uint64_t ops = 0;
    uint64_t faults = 0;
  };

  bool Live(const Slot& s, uint64_t anchor) const {
    int64_t a = static_cast<int64_t>(anchor);
    return s.epoch >= 0 && s.epoch > a - static_cast<int64_t>(ring_.size()) && s.epoch <= a;
  }
  uint64_t Sum(uint64_t Slot::*field) const {
    uint64_t n = 0;
    for (const Slot& s : ring_) {
      n += Live(s, last_ns_ / bucket_ns_) ? s.*field : 0;
    }
    return n;
  }
  Slot& Touch(SimNanos now) {
    last_ns_ = std::max(last_ns_, now);
    int64_t epoch = static_cast<int64_t>(now / bucket_ns_);
    Slot& s = ring_[static_cast<size_t>(epoch) % ring_.size()];
    if (s.epoch != epoch) {
      s = Slot();
      s.epoch = epoch;
    }
    return s;
  }

  SimNanos bucket_ns_;
  std::vector<Slot> ring_;
  SimNanos last_ns_ = 0;
};

TEST(SloWindowTest, RunningWindowMatchesMergeOracleUnderRandomWrites) {
  struct Geometry {
    SimNanos bucket_ns;
    uint32_t buckets;
  };
  for (Geometry g : {Geometry{100, 4}, Geometry{1'000'000, 8}}) {
    SCOPED_TRACE("bucket_ns " + std::to_string(g.bucket_ns));
    SloWindow w(SloWindow::Config{.bucket_ns = g.bucket_ns, .buckets = g.buckets});
    SloOracle oracle(g.bucket_ns, g.buckets);
    const SimNanos window = g.bucket_ns * g.buckets;
    XorShift64Star rng(g.bucket_ns);
    for (int step = 0; step < 12'000; ++step) {
      const SimNanos last = w.last_ns();
      uint64_t r = rng.Next();
      SimNanos now = 0;
      switch (r % 8) {
        case 0:  // backward within the window
          now = last - std::min<SimNanos>(last, (r >> 8) % window);
          break;
        case 1:  // backward past the window: a stale write
          now = last - std::min<SimNanos>(last, window + (r >> 8) % (2 * window));
          break;
        case 2:  // a long quiet gap
          now = last + window * (2 + (r >> 8) % 20);
          break;
        default:  // forward by up to a bucket
          now = last + (r >> 8) % g.bucket_ns;
          break;
      }
      uint64_t op = rng.Next();
      if (op % 4 == 0) {
        w.IncFaults(now);
        oracle.IncFaults(now);
      } else if (op % 4 == 1) {
        w.SetGauge(now, op >> 32);
        oracle.SetGauge(now);
      } else {
        // Latencies from every octave, small exact buckets to overflow.
        SimNanos latency = (op >> 16) >> ((op >> 2) % 64);
        w.ObserveLatency(now, latency);
        oracle.ObserveLatency(now, latency);
      }
      ASSERT_EQ(w.WindowOps(), oracle.WindowOps()) << "step " << step;
      ASSERT_EQ(w.WindowFaults(), oracle.WindowFaults()) << "step " << step;
      for (double p : {0.0, 1.0, 50.0, 97.0, 99.0, 100.0}) {
        ASSERT_EQ(w.Percentile(p), static_cast<uint64_t>(oracle.Percentile(p)))
            << "step " << step << " p" << p;
      }
    }
  }
}

TEST(SloWindowTest, StaleWriteEvictingALiveSlotLeavesTheWindow) {
  SloWindow w(SloWindow::Config{.bucket_ns = 100, .buckets = 4});
  w.ObserveLatency(550, 1000);  // epoch 5, slot 1
  w.ObserveLatency(650, 10);    // epoch 6: the window is epochs 3..6
  EXPECT_EQ(w.Percentile(100), 1000u);
  EXPECT_EQ(w.WindowOps(), 2u);
  // Epoch 1 is older than the window but maps to slot 1: the write clears
  // epoch 5's live bucket and lands outside the window.
  w.ObserveLatency(150, 5000);
  EXPECT_EQ(w.WindowOps(), 1u);
  EXPECT_EQ(w.Percentile(100), 10u);
  EXPECT_EQ(w.Percentile(0), 10u);
  EXPECT_EQ(w.last_ns(), 650u);
}

TEST(SloWindowTest, BucketsExpireByEpoch) {
  SloWindow w(SloWindow::Config{.bucket_ns = 100, .buckets = 4});
  EXPECT_EQ(w.window_ns(), 400u);
  w.ObserveLatency(50, 10);    // epoch 0
  w.ObserveLatency(150, 20);   // epoch 1
  w.ObserveLatency(250, 30);   // epoch 2
  EXPECT_EQ(w.WindowOps(), 3u);
  EXPECT_EQ(w.Percentile(100), 30u);
  // Epoch 4 reuses epoch 0's slot; epoch 0 also falls out of the window.
  w.ObserveLatency(450, 40);
  EXPECT_EQ(w.WindowOps(), 3u);     // epochs 1, 2, 4
  EXPECT_EQ(w.total_ops(), 4u);     // lifetime counter never expires
  // A long quiet gap: only the newest bucket is live afterwards.
  w.ObserveLatency(10'000, 99);
  EXPECT_EQ(w.WindowOps(), 1u);
  EXPECT_EQ(w.Percentile(99), 99u);
  EXPECT_EQ(w.last_ns(), 10'000u);
}

TEST(SloWindowTest, FaultsGaugeAndRate) {
  SloWindow w(SloWindow::Config{.bucket_ns = 100, .buckets = 2});
  w.IncFaults(10);    // epoch 0
  w.IncFaults(110);   // epoch 1
  EXPECT_EQ(w.WindowFaults(), 2u);
  w.SetGauge(120, 77);
  EXPECT_EQ(w.gauge(), 77u);
  w.IncFaults(350);   // epoch 3 evicts epoch 1's slot; epoch 0 expires too
  EXPECT_EQ(w.WindowFaults(), 1u);
  EXPECT_EQ(w.total_faults(), 3u);

  SloWindow rate;  // default geometry: 8 x 1ms
  for (int i = 0; i < 8; ++i) {
    rate.ObserveLatency(static_cast<SimNanos>(i) * 1'000'000, 5);
  }
  EXPECT_DOUBLE_EQ(rate.OpsPerSec(), 1000.0);  // 8 ops over 8 simulated ms
}

TEST(SloWindowTest, JsonParses) {
  SloWindow w;
  w.ObserveLatency(10, 123);
  w.SetGauge(20, 4);
  std::ostringstream os;
  w.WriteJson(os);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_DOUBLE_EQ(parsed->Find("ops")->number, 1.0);
  EXPECT_DOUBLE_EQ(parsed->Find("gauge")->number, 4.0);
}

// ------------------------------------------------------------ Flow export

TEST(TraceExportTest, FlowPointsRenderAsPerfettoFlowEvents) {
  SimContext ctx;
  ctx.obs().Enable();
  ctx.obs().RecordFlowPoint(10, TraceRecordKind::kFlowStart, 0xABCD);
  ctx.obs().RecordFlowPoint(20, TraceRecordKind::kFlowStep, 0xABCD);
  ctx.obs().RecordFlowPoint(30, TraceRecordKind::kFlowEnd, 0xABCD);
  ctx.obs().RecordFlowPoint(40, TraceRecordKind::kFlowStart, 0);  // inactive: dropped
  EXPECT_EQ(ctx.obs().self_stats().flow_points, 3u);

  std::ostringstream os;
  WriteChromeTrace(ctx.obs(), os);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::vector<std::string> phases;
  std::string id;
  bool binding_on_end = false;
  for (const JsonValue& e : events->items) {
    const JsonValue* cat = e.Find("cat");
    if (cat == nullptr || cat->string_value != "flow") {
      continue;
    }
    phases.push_back(e.Find("ph")->string_value);
    const JsonValue* ev_id = e.Find("id");
    ASSERT_NE(ev_id, nullptr);
    if (id.empty()) {
      id = ev_id->string_value;
    }
    EXPECT_EQ(ev_id->string_value, id);  // one request = one flow id
    if (phases.back() == "f") {
      const JsonValue* bp = e.Find("bp");
      binding_on_end = bp != nullptr && bp->string_value == "e";
    }
  }
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0], "s");
  EXPECT_EQ(phases[1], "t");
  EXPECT_EQ(phases[2], "f");
  EXPECT_TRUE(binding_on_end);
}

// -------------------------------------------------- Merge edge cases

// Bucket arrays, extremes and a sweep of quantiles agree.
void ExpectSameHistogram(const Histogram& got, const Histogram& want) {
  EXPECT_EQ(got.buckets(), want.buckets());
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 97.0, 99.0, 100.0}) {
    EXPECT_EQ(got.Percentile(p), want.Percentile(p)) << "p" << p;
  }
}

TEST(HistogramTest, ClearThenReuseMatchesAFreshHistogram) {
  Histogram reused;
  for (uint64_t v : {3ull, 900ull, 1ull << 30, 1ull << 45, 77'777ull}) {
    reused.Add(v);  // spans exact, mid, high and overflow buckets
  }
  reused.Clear();
  ExpectSameHistogram(reused, Histogram{});
  Histogram fresh;
  for (uint64_t v : {5ull, 6ull, 12'345ull}) {
    reused.Add(v);
    fresh.Add(v);
  }
  ExpectSameHistogram(reused, fresh);
}

TEST(HistogramTest, PercentileWithOnlyHighBucketsMatchesAFreshHistogram) {
  // Samples only in high buckets: the quantile walk starts at min's
  // bucket, and a histogram cleared after low samples must not see them.
  Histogram reused;
  for (uint64_t v = 0; v < 64; ++v) {
    reused.Add(v);
  }
  reused.Clear();
  Histogram fresh;
  for (uint64_t v : {1ull << 33, (1ull << 33) + 12'345, 1ull << 38, (1ull << 39) + 7,
                     1ull << 41}) {
    reused.Add(v);
    fresh.Add(v);
  }
  ExpectSameHistogram(reused, fresh);
}

TEST(HistogramTest, MergeEmptyIntoEmptyStaysEmptyAndUsable) {
  Histogram a;
  Histogram b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_DOUBLE_EQ(a.Percentile(99), 0.0);
  a.Add(5);  // still usable after the no-op merge
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 5u);
}

TEST(HistogramTest, MergeEmptyIntoFilledLeavesItUntouched) {
  Histogram a;
  a.Add(10);
  a.Add(30);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.Sum(), 40.0);
}

TEST(HistogramTest, MergeCombinesSaturatedOverflowBuckets) {
  Histogram a;
  Histogram b;
  uint64_t huge = 1ULL << 44;  // beyond kMaxExp: overflow bucket
  a.Add(huge);
  b.Add(huge + 5);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.overflow_count(), 2u);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), huge + 5);  // true max survives, not a bucket bound
  EXPECT_DOUBLE_EQ(a.Percentile(100), static_cast<double>(huge + 5));
}

TEST(HistogramTest, MergeOrderInvariance) {
  Histogram parts[3];
  Histogram replay;  // every sample recorded directly
  uint64_t v = 1;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 50; ++i) {
      v = v * 2862933555777941757ULL + 3037000493ULL;  // fixed LCG
      uint64_t sample = v % 100000;
      parts[p].Add(sample);
      replay.Add(sample);
    }
  }
  Histogram ab;
  ab.Merge(parts[0]);
  ab.Merge(parts[1]);
  ab.Merge(parts[2]);
  Histogram cb;
  cb.Merge(parts[2]);
  cb.Merge(parts[1]);
  cb.Merge(parts[0]);
  for (const Histogram* m : {&ab, &cb}) {
    EXPECT_EQ(m->count(), replay.count());
    EXPECT_EQ(m->min(), replay.min());
    EXPECT_EQ(m->max(), replay.max());
    EXPECT_DOUBLE_EQ(m->Sum(), replay.Sum());
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      ASSERT_EQ(m->bucket(i), replay.bucket(i)) << "bucket " << i;
    }
    EXPECT_DOUBLE_EQ(m->Percentile(50), replay.Percentile(50));
    EXPECT_DOUBLE_EQ(m->Percentile(99), replay.Percentile(99));
  }
}

TEST(MetricsRegistryTest, MergeEdgeCases) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.Merge(b);  // empty into empty
  EXPECT_EQ(a.CounterValue("x"), 0u);
  EXPECT_EQ(a.hist_count(), 0u);
  b.Inc("x", 3);
  b.Hist("lat").Add(10);
  a.Merge(b);  // creates missing entries
  EXPECT_EQ(a.CounterValue("x"), 3u);
  ASSERT_NE(a.FindHist("lat"), nullptr);
  EXPECT_EQ(a.FindHist("lat")->count(), 1u);
  a.Merge(b);  // accumulates into existing ones
  EXPECT_EQ(a.CounterValue("x"), 6u);
  EXPECT_EQ(a.FindHist("lat")->count(), 2u);
  MetricsRegistry empty;
  a.Merge(empty);  // no-op
  EXPECT_EQ(a.CounterValue("x"), 6u);
  EXPECT_EQ(a.FindHist("lat")->count(), 2u);
}

TEST(MetricsRegistryTest, MergeOrderInvariance) {
  MetricsRegistry b;
  b.Inc("x", 1);
  b.Hist("lat").Add(5);
  MetricsRegistry c;
  c.Inc("x", 2);
  c.Inc("y", 7);
  c.Hist("lat").Add(500);
  MetricsRegistry bc;
  bc.Merge(b);
  bc.Merge(c);
  MetricsRegistry cb;
  cb.Merge(c);
  cb.Merge(b);
  std::ostringstream os_bc;
  bc.WriteJson(os_bc);
  std::ostringstream os_cb;
  cb.WriteJson(os_cb);
  EXPECT_EQ(os_bc.str(), os_cb.str());
}

TEST(MetricsRegistryTest, CsvCounterRowsMatchGolden) {
  MetricsRegistry m;
  m.Inc("boots", 2);
  std::ostringstream os;
  MetricsRegistry::WriteCsvHeader(os);
  m.WriteCsvRows(os, "cfg");
  EXPECT_EQ(os.str(),
            "config,type,name,value,count,min,max,mean,p50,p95,p99\n"
            "cfg,counter,boots,2,,,,,,,\n");
}

// --------------------------------------------------------- Stats (const)

TEST(StatsTest, PercentileIsConstCallable) {
  Stats s;
  s.Add(3.0);
  s.Add(1.0);
  s.Add(2.0);
  const Stats& cs = s;  // Percentile must work through a const ref
  EXPECT_DOUBLE_EQ(cs.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(cs.Percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(cs.Percentile(100), 3.0);
}

}  // namespace
}  // namespace cki
