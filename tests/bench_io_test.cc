// The bench harness (bench/bench_util.h): the strict flag parser, the
// BenchMain entry point's exit-2 rule, the thread-invariance check and the
// BenchObsSink result writer. A misspelled or malformed flag must fail
// loudly, never run a default.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "tests/json_parse.h"

namespace cki {
namespace {

// Parses `args` (argv[0] is supplied) for a bench with `modes`.
std::string ParseArgs(std::vector<const char*> args, uint32_t modes, BenchIo* io) {
  args.insert(args.begin(), "bench_test");
  return BenchIo::Parse(static_cast<int>(args.size()), args.data(), modes, io);
}

TEST(BenchIoTest, UnknownFlagIsAnError) {
  BenchIo io;
  std::string error = ParseArgs({"--bogus-flag"}, kNoMode, &io);
  EXPECT_NE(error.find("--bogus-flag"), std::string::npos) << error;
  EXPECT_FALSE(ParseArgs({"--json-out"}, kNoMode, &io).empty());  // no '=value'
  EXPECT_FALSE(ParseArgs({"--jsonout=x.json"}, kNoMode, &io).empty());
  EXPECT_FALSE(ParseArgs({"positional"}, kNoMode, &io).empty());
}

TEST(BenchIoTest, NonNumericAndEmptyNumbersAreErrors) {
  for (const char* arg : {"--threads=abc", "--threads=", "--shards=12x", "--shards=-1",
                          "--root-seed=0x10", "--threads=4294967296", "--sample-every= 2"}) {
    BenchIo io;
    std::string error = ParseArgs({arg}, kNoMode, &io);
    EXPECT_NE(error.find(arg), std::string::npos) << arg << " -> '" << error << "'";
  }
}

TEST(BenchIoTest, EmptyPathIsAnError) {
  BenchIo io;
  EXPECT_FALSE(ParseArgs({"--json-out="}, kNoMode, &io).empty());
  EXPECT_FALSE(ParseArgs({"--chaos-kinds="}, kChaosKindsMode, &io).empty());
}

TEST(BenchIoTest, SampleEveryZeroIsAnError) {
  BenchIo io;
  EXPECT_FALSE(ParseArgs({"--sample-every=0"}, kNoMode, &io).empty());
  EXPECT_EQ(io.sample_every, 1u);
}

TEST(BenchIoTest, ModeFlagsNeedTheMode) {
  BenchIo io;
  EXPECT_FALSE(ParseArgs({"--smoke"}, kNoMode, &io).empty());
  EXPECT_FALSE(ParseArgs({"--smoke"}, kChaosKindsMode, &io).empty());
  EXPECT_FALSE(ParseArgs({"--chaos-kinds=packet_blackhole"}, kSmokeMode, &io).empty());
  EXPECT_FALSE(ParseArgs({"--smoke=1"}, kSmokeMode, &io).empty());

  BenchIo ok;
  EXPECT_EQ(ParseArgs({"--smoke", "--chaos-kinds=packet_blackhole"},
                      kSmokeMode | kChaosKindsMode, &ok),
            "");
  EXPECT_TRUE(ok.smoke);
  EXPECT_EQ(ok.chaos_kinds, "packet_blackhole");
}

TEST(BenchIoTest, WellFormedFullFlagSet) {
  BenchIo io;
  ASSERT_EQ(ParseArgs({"--json-out=a.json", "--trace-out=a.trace.json", "--metrics-csv=a.csv",
                       "--sample-every=8", "--shards=6", "--threads=2",
                       "--root-seed=18446744073709551615", "--smoke", "--chaos-kinds=a,b"},
                      kSmokeMode | kChaosKindsMode, &io),
            "");
  EXPECT_EQ(io.json_out, "a.json");
  EXPECT_EQ(io.trace_out, "a.trace.json");
  EXPECT_EQ(io.metrics_csv, "a.csv");
  EXPECT_EQ(io.sample_every, 8u);
  EXPECT_EQ(io.shards, 6u);
  EXPECT_EQ(io.threads, 2u);
  EXPECT_EQ(io.root_seed, 18446744073709551615ULL);
  EXPECT_TRUE(io.smoke);
  EXPECT_EQ(io.chaos_kinds, "a,b");
  EXPECT_TRUE(io.observing());

  BenchIo defaults;
  ASSERT_EQ(ParseArgs({}, kNoMode, &defaults), "");
  EXPECT_FALSE(defaults.observing());
  EXPECT_EQ(defaults.ShardsOr(4), 4u);
  EXPECT_EQ(defaults.ThreadsOr(1), 1u);
  EXPECT_EQ(defaults.root_seed, 1u);
}

TEST(BenchIoTest, BenchMainExitsTwoWithoutRunning) {
  const char* argv[] = {"bench_test", "--threads=abc"};
  bool ran = false;
  testing::internal::CaptureStderr();
  int rc = BenchMain(2, argv, "bench_test", kNoMode, [&ran](BenchObsSink&) { ran = true; });
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, kBenchUsageError);
  EXPECT_FALSE(ran);
  EXPECT_NE(err.find("--threads=abc"), std::string::npos) << err;
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(BenchIoTest, BenchMainPassesTheRunExitCode) {
  const char* argv[] = {"bench_test", "--smoke"};
  EXPECT_EQ(BenchMain(2, argv, "bench_test", kSmokeMode,
                      [](BenchObsSink& sink) { return sink.io().smoke ? 1 : 0; }),
            1);
}

TEST(BenchIoTest, ThreadInvarianceCheckNamesTheFirstDifferingCount) {
  testing::internal::CaptureStdout();
  EXPECT_TRUE(CheckThreadInvariant("same", {1, 2, 8}, [](uint32_t) { return uint64_t{7}; }));
  EXPECT_FALSE(CheckThreadInvariant("split", {1, 2, 4, 8},
                                    [](uint32_t t) { return uint64_t{t >= 4 ? 9u : 7u}; }));
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("determinism: same hash at --threads 1/2/8: 0x7 0x7 0x7"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("FAIL: split hash at --threads=4 differs from --threads=1"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("--threads=8 differs"), std::string::npos) << out;
}

TEST(BenchObsSinkTest, TablesRoundTripThroughJsonOut) {
  ReportTable a("first", "config", {"ns", "ratio"});
  a.AddRow("RunC", {1000, 1.0});
  a.AddRow("CKI", {1067, 1.0 / 3.0});
  ReportTable b("second \"quoted\"", "threads", {"wall_ms"});
  b.AddRow("1", {123.456789012345});
  b.AddRow("16", {0.1});

  const std::string path = testing::TempDir() + "bench_io_test_sink.json";
  BenchIo io;
  io.json_out = path;
  BenchObsSink sink(io);
  sink.AddTable(a);
  sink.AddTable(b);
  sink.AddJson("extra", "[1,2]");
  testing::internal::CaptureStderr();
  ASSERT_TRUE(sink.Write("bench_test"));
  testing::internal::GetCapturedStderr();

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<JsonValue> doc = ParseJson(text.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->Find("bench"), nullptr);
  EXPECT_EQ(doc->Find("bench")->string_value, "bench_test");
  ASSERT_NE(doc->Find("configs"), nullptr);
  EXPECT_TRUE(doc->Find("configs")->items.empty());
  ASSERT_NE(doc->Find("extra"), nullptr);
  EXPECT_EQ(doc->Find("extra")->items.size(), 2u);

  const JsonValue* tables = doc->Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->items.size(), 2u);
  const ReportTable* want[] = {&a, &b};
  for (size_t t = 0; t < 2; ++t) {
    const JsonValue& got = tables->items[t];
    const JsonValue* rows = got.Find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), want[t]->row_count());
    ASSERT_EQ(got.Find("columns")->items.size(), want[t]->columns().size());
    for (const JsonValue& row : rows->items) {
      const std::string& label = row.Find("label")->string_value;
      const JsonValue* values = row.Find("values");
      ASSERT_EQ(values->items.size(), want[t]->columns().size());
      for (size_t c = 0; c < values->items.size(); ++c) {
        EXPECT_EQ(values->items[c].number, want[t]->ValueAt(label, c)) << label << " col " << c;
      }
    }
  }
  EXPECT_EQ(tables->items[1].Find("title")->string_value, "second \"quoted\"");
}

}  // namespace
}  // namespace cki
