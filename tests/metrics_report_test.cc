// Tests for the benchmark reporting tables.
#include <gtest/gtest.h>

#include <sstream>

#include "src/metrics/report.h"
#include "tests/json_parse.h"

namespace cki {
namespace {

ReportTable SampleTable() {
  ReportTable t("sample", "config", {"a", "b"});
  t.AddRow("base", {10.0, 40.0});
  t.AddRow("fast", {5.0, 20.0});
  t.AddRow("slow", {20.0, 80.0});
  return t;
}

TEST(ReportTableTest, ValueLookup) {
  ReportTable t = SampleTable();
  EXPECT_DOUBLE_EQ(t.ValueAt("base", 0), 10.0);
  EXPECT_DOUBLE_EQ(t.ValueAt("slow", 1), 80.0);
  EXPECT_THROW(t.ValueAt("missing", 0), std::out_of_range);
}

TEST(ReportTableTest, NormalizationDividesByBaselineRow) {
  ReportTable norm = SampleTable().NormalizedTo("base");
  EXPECT_DOUBLE_EQ(norm.ValueAt("base", 0), 1.0);
  EXPECT_DOUBLE_EQ(norm.ValueAt("fast", 0), 0.5);
  EXPECT_DOUBLE_EQ(norm.ValueAt("slow", 1), 2.0);
}

TEST(ReportTableTest, PrintIsAlignedAndRestoresStream) {
  ReportTable t = SampleTable();
  std::ostringstream os;
  os << 3.14159;  // default formatting before
  t.Print(os, 2);
  os << 3.14159;  // must print identically after
  std::string s = os.str();
  EXPECT_NE(s.find("== sample =="), std::string::npos);
  EXPECT_NE(s.find("config"), std::string::npos);
  EXPECT_NE(s.find("10.00"), std::string::npos);
  // Stream state restored: both bare prints identical.
  size_t first = s.find("3.14159");
  size_t last = s.rfind("3.14159");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(first, last);
}

TEST(ReportTableTest, CsvOutput) {
  ReportTable t = SampleTable();
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(),
            "config,a,b\n"
            "base,10,40\n"
            "fast,5,20\n"
            "slow,20,80\n");
}

TEST(ReportTableTest, MissingValuesPrintAsZero) {
  ReportTable t("partial", "row", {"x", "y", "z"});
  t.AddRow("short", {1.0});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "row,x,y,z\nshort,1,0,0\n");
}

TEST(ReportTableTest, JsonOutputMirrorsRowColumnModel) {
  ReportTable t = SampleTable();
  std::ostringstream os;
  t.PrintJson(os);
  EXPECT_EQ(os.str(),
            "{\"title\":\"sample\",\"row_header\":\"config\",\"columns\":[\"a\",\"b\"],"
            "\"rows\":[{\"label\":\"base\",\"values\":[10,40]},"
            "{\"label\":\"fast\",\"values\":[5,20]},"
            "{\"label\":\"slow\",\"values\":[20,80]}]}");

  // The emitted text is real JSON: parse it back and check the model.
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->kind, JsonValue::Kind::kObject);
  const JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), 3u);
  const JsonValue* label = rows->items[2].Find("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string_value, "slow");
}

TEST(ReportTableTest, MergeRowsMeanIsWeightedByRowCount) {
  // A shard that averaged 4 samples and one that averaged 1 must merge to
  // the flat mean of all 5 samples, not the midpoint of the two means.
  ReportTable a("t", "config", {"lat"});
  a.AddRow("CKI", {10.0}, /*weight=*/4);
  ReportTable b("t", "config", {"lat"});
  b.AddRow("CKI", {20.0}, /*weight=*/1);
  a.MergeRows(b, MergeOp::kMean);
  EXPECT_DOUBLE_EQ(a.ValueAt("CKI", 0), 12.0);  // (10*4 + 20*1) / 5
  EXPECT_EQ(a.WeightAt("CKI"), 5u);

  // Merging a third table keeps weighting by total source rows.
  ReportTable c("t", "config", {"lat"});
  c.AddRow("CKI", {0.0}, /*weight=*/5);
  a.MergeRows(c, MergeOp::kMean);
  EXPECT_DOUBLE_EQ(a.ValueAt("CKI", 0), 6.0);  // (12*5 + 0*5) / 10
  EXPECT_EQ(a.WeightAt("CKI"), 10u);
}

TEST(ReportTableTest, MergeRowsMeanAppendsNewLabelsWithTheirWeight) {
  ReportTable a("t", "config", {"lat"});
  a.AddRow("CKI", {10.0});
  ReportTable b("t", "config", {"lat"});
  b.AddRow("PVM", {30.0}, /*weight=*/3);
  a.MergeRows(b, MergeOp::kMean);
  EXPECT_DOUBLE_EQ(a.ValueAt("PVM", 0), 30.0);
  EXPECT_EQ(a.WeightAt("PVM"), 3u);
  // Default-weight rows still average 1:1.
  ReportTable c("t", "config", {"lat"});
  c.AddRow("CKI", {30.0});
  a.MergeRows(c, MergeOp::kMean);
  EXPECT_DOUBLE_EQ(a.ValueAt("CKI", 0), 20.0);
}

TEST(ReportTableTest, MergeRowsSumStillAccumulatesWeights) {
  // Non-mean ops ignore weights for values but keep the row-count
  // bookkeeping, so a later kMean merge stays correctly weighted.
  ReportTable a("t", "config", {"ops"});
  a.AddRow("CKI", {100.0}, /*weight=*/2);
  ReportTable b("t", "config", {"ops"});
  b.AddRow("CKI", {50.0}, /*weight=*/3);
  a.MergeRows(b, MergeOp::kSum);
  EXPECT_DOUBLE_EQ(a.ValueAt("CKI", 0), 150.0);
  EXPECT_EQ(a.WeightAt("CKI"), 5u);
}

TEST(ReportTableTest, JsonEscapesSpecialCharacters) {
  ReportTable t("ti\"tle\\", "row", {"c1"});
  t.AddRow("a\nb", {1.5});
  std::ostringstream os;
  t.PrintJson(os);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* title = parsed->Find("title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->string_value, "ti\"tle\\");
}

}  // namespace
}  // namespace cki
