// Unit tests for the report writers (src/report/*).

#include "report/report.h"

#include <gtest/gtest.h>

#include <fstream>

#include "support/temp_store.h"

namespace nbtisim::report {
namespace {

TEST(ReportTest, CsvBasicTable) {
  Table t{{"a", "b"}, {}};
  t.add_row({"1", "2"});
  t.add_row({"x", "y"});
  EXPECT_EQ(to_csv(t), "a,b\n1,2\nx,y\n");
}

TEST(ReportTest, CsvEscapesSpecials) {
  Table t{{"name", "value"}, {}};
  t.add_row({"with,comma", "with\"quote"});
  EXPECT_EQ(to_csv(t), "name,value\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(ReportTest, CsvEscapesNewlinesInsideCells) {
  Table t{{"name", "note"}, {}};
  t.add_row({"multi\nline", "plain"});
  // RFC 4180: a cell containing a line break is quoted, break kept verbatim.
  EXPECT_EQ(to_csv(t), "name,note\n\"multi\nline\",plain\n");
}

TEST(ReportTest, CsvEmptyCellsStayUnquoted) {
  Table t{{"a", "b", "c"}, {}};
  t.add_row({"", "x", ""});
  t.add_row({"", "", ""});
  EXPECT_EQ(to_csv(t), "a,b,c\n,x,\n,,\n");
}

TEST(ReportTest, CsvQuoteOnlyCellDoubled) {
  Table t{{"v"}, {}};
  t.add_row({"\""});
  t.add_row({"\"\""});
  EXPECT_EQ(to_csv(t), "v\n\"\"\"\"\n\"\"\"\"\"\"\n");
}

TEST(ReportTest, CsvHeadersAreEscapedToo) {
  Table t{{"plain", "with,comma"}, {}};
  EXPECT_EQ(to_csv(t), "plain,\"with,comma\"\n");
}

TEST(ReportTest, AddRowWidthChecked) {
  Table t{{"a", "b"}, {}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(ReportTest, DoubleRowFormatting) {
  Table t{{"label", "v1", "v2"}, {}};
  const std::vector<double> vals{1.5, 2.25};
  t.add_row("row", vals, 3);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][0], "row");
  EXPECT_EQ(t.rows[0][1], "1.5");
  EXPECT_EQ(t.rows[0][2], "2.25");
}

TEST(ReportTest, MarkdownShape) {
  Table t{{"h1", "h2"}, {}};
  t.add_row({"a", "b"});
  const std::string md = to_markdown(t);
  EXPECT_NE(md.find("| h1 | h2 |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
}

TEST(ReportTest, SeriesCsv) {
  const std::vector<std::pair<double, double>> series{{1.0, 2.0}, {3.0, 4.0}};
  const std::string csv = series_csv(series, "t", "y");
  EXPECT_EQ(csv, "t,y\n1,2\n3,4\n");
}

TEST(ReportTest, WriteFileRoundTrip) {
  const std::string path = testsupport::temp_path("nbtisim_report_test.csv");
  write_file(path, "a,b\n1,2\n");
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
}

TEST(ReportTest, WriteFileFailureThrows) {
  EXPECT_THROW(write_file("/nonexistent-dir/x.csv", "data"),
               std::runtime_error);
}


}  // namespace
}  // namespace nbtisim::report

#include "report/derate.h"

#include "netlist/generators.h"

namespace nbtisim::report {
namespace {

class DerateTest : public ::testing::Test {
 protected:
  DerateTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 400.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(DerateTest, FactorsAreMonotoneInLifetime) {
  const DerateTable t = aging_derate_table(*analyzer_, {1.0, 3.0, 10.0});
  ASSERT_EQ(t.factors.size(), 3u);
  for (const std::vector<double>& col : t.factors) {
    ASSERT_EQ(col.size(), 3u);
    EXPECT_GT(col[0], 1.0);
    EXPECT_LT(col[0], col[1]);
    EXPECT_LT(col[1], col[2]);
  }
}

TEST_F(DerateTest, WorstCaseDominatesBestCase) {
  const DerateTable t = aging_derate_table(*analyzer_, {10.0});
  EXPECT_GT(t.factors[0][0], t.factors[2][0]);       // worst > best
  EXPECT_GE(t.factors[1][0], t.factors[2][0] - 1e-12); // vector >= best
  EXPECT_LE(t.factors[1][0], t.factors[0][0] + 1e-12); // vector <= worst
}

TEST_F(DerateTest, FactorsInPhysicalBand) {
  const DerateTable t = aging_derate_table(*analyzer_, {10.0});
  for (const std::vector<double>& col : t.factors) {
    EXPECT_GT(col[0], 1.01);
    EXPECT_LT(col[0], 1.15);
  }
}

TEST_F(DerateTest, RendersAsTable) {
  const DerateTable t = aging_derate_table(*analyzer_, {1.0, 10.0});
  const Table rendered = t.to_table();
  EXPECT_EQ(rendered.headers.size(), 4u);  // years + 3 policies
  EXPECT_EQ(rendered.rows.size(), 2u);
  const std::string csv = to_csv(rendered);
  EXPECT_NE(csv.find("worst_case"), std::string::npos);
}

TEST_F(DerateTest, SingleYearTableHasOneRow) {
  const DerateTable t = aging_derate_table(*analyzer_, {10.0});
  EXPECT_EQ(t.years, std::vector<double>{10.0});
  ASSERT_EQ(t.factors.size(), 3u);
  for (const std::vector<double>& col : t.factors) {
    ASSERT_EQ(col.size(), 1u);
    EXPECT_GT(col[0], 1.0);
  }
  const Table rendered = t.to_table();
  EXPECT_EQ(rendered.headers.size(), 4u);
  ASSERT_EQ(rendered.rows.size(), 1u);
  EXPECT_EQ(rendered.rows[0][0], "10");
}

TEST_F(DerateTest, UnsortedAndDuplicateYearsKeepCallerOrder) {
  // The year list is a caller-facing axis, not a set: order is preserved,
  // duplicates are evaluated (to identical factors), nothing is sorted.
  const DerateTable t =
      aging_derate_table(*analyzer_, {7.0, 1.0, 3.0, 3.0, 10.0});
  EXPECT_EQ(t.years, (std::vector<double>{7.0, 1.0, 3.0, 3.0, 10.0}));
  for (const std::vector<double>& col : t.factors) {
    ASSERT_EQ(col.size(), 5u);
    EXPECT_EQ(col[2], col[3]);   // duplicate years: identical cells
    EXPECT_LT(col[1], col[2]);   // 1y < 3y
    EXPECT_LT(col[3], col[0]);   // 3y < 7y
    EXPECT_LT(col[0], col[4]);   // 7y < 10y
  }
}

TEST(DerateTableTest, ToTableAlignsHeadersAndCells) {
  // Struct-level rendering check: headers follow policy order, each row is
  // one year, and cell (row y, column p) must be factors[p][y] — this is
  // what catches an accidental [y][p] transposition.
  DerateTable d;
  d.years = {1.0, 2.0};
  d.policy_names = {"p", "q"};
  d.factors = {{1.5, 2.5}, {3.5, 4.5}};  // [policy][year]
  const Table t = d.to_table();
  ASSERT_EQ(t.headers, (std::vector<std::string>{"years", "p", "q"}));
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0], (std::vector<std::string>{"1", "1.5", "3.5"}));
  EXPECT_EQ(t.rows[1], (std::vector<std::string>{"2", "2.5", "4.5"}));
}

TEST_F(DerateTest, GoldenTenYearIscasRow) {
  // The 10-year c432 derate row under the fixture's conditions, pinned
  // against current output.  A tight tolerance (not exact equality) keeps
  // the pin robust to sanitizer/optimization build flags while still
  // flagging any real modeling change.
  const DerateTable t = aging_derate_table(*analyzer_, {10.0});
  EXPECT_NEAR(t.factors[0][0], 1.0814776701030913, 1e-9);  // worst_case
  EXPECT_NEAR(t.factors[1][0], 1.0783156343396023, 1e-9);  // inputs_all_zero
  EXPECT_NEAR(t.factors[2][0], 1.0391448438934840, 1e-9);  // best_case
}

TEST_F(DerateTest, RejectsBadLifetimes) {
  EXPECT_THROW(aging_derate_table(*analyzer_, {}), std::invalid_argument);
  EXPECT_THROW(aging_derate_table(*analyzer_, {1.0, -2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::report

