// The public facade (src/netsample/): version constants, the unified
// Table / emit() / csv_line() / json_line() presentation layer, and the
// as_result() adapter from exper::RunReport.
#include "netsample/netsample.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace netsample {
namespace {

TEST(FacadeVersion, ConstantsAgree) {
  // v1.2: MINOR steps by 100 per minor release, so "1.2" encodes as 1200.
  EXPECT_EQ(NETSAMPLE_API_VERSION, 1200);
  EXPECT_EQ(kApiVersionMajor, NETSAMPLE_API_VERSION_MAJOR);
  EXPECT_EQ(kApiVersionMinor, NETSAMPLE_API_VERSION_MINOR);
  EXPECT_EQ(std::string(kApiVersionString),
            std::to_string(kApiVersionMajor) + "." +
                std::to_string(kApiVersionMinor / 100));
}

TEST(RowEmitter, CsvLineQuotesOnlyWhenNeeded) {
  const std::vector<std::string> fields = {"a,b", "q\"x", "plain"};
  EXPECT_EQ(csv_line(fields), "\"a,b\",\"q\"\"x\",plain");
  EXPECT_EQ(csv_line(fields, "CSV"), "CSV,\"a,b\",\"q\"\"x\",plain");
}

TEST(RowEmitter, JsonLineDetectsNumbers) {
  const std::vector<std::string> columns = {"k", "phi", "label", "bad"};
  const std::vector<std::string> cells = {"64", "0.125", "size/r0", "nan"};
  // Numeric cells stay bare; text and JSON-invalid numerics get quoted.
  EXPECT_EQ(json_line(columns, cells),
            R"({"k":64,"phi":0.125,"label":"size/r0","bad":"nan"})");
}

TEST(RowEmitter, JsonLineEscapesControlCharacters) {
  const std::vector<std::string> columns = {"c"};
  const std::vector<std::string> cells = {"a\"b\\c\nd"};
  EXPECT_EQ(json_line(columns, cells), R"({"c":"a\"b\\c\nd"})");
}

TEST(RowEmitter, JsonLineRejectsMismatchedWidths) {
  const std::vector<std::string> columns = {"a", "b"};
  const std::vector<std::string> cells = {"1"};
  EXPECT_THROW((void)json_line(columns, cells), std::invalid_argument);
}

TEST(RowEmitter, TableRejectsWrongWidthRows) {
  Table t;
  t.columns = {"a", "b"};
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows.size(), 1u);
}

TEST(RowEmitter, EmitRendersAllThreeFormats) {
  Table t;
  t.columns = {"name", "value"};
  t.add_row({"alpha", "1"});
  t.add_row({"beta, the second", "2"});

  std::ostringstream csv;
  emit(t, RowFormat::kCsv, csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\n\"beta, the second\",2\n");

  std::ostringstream csv_prefixed;
  EmitOptions options;
  options.csv_header = false;
  options.csv_prefix = "CSV";
  emit(t, RowFormat::kCsv, csv_prefixed, options);
  EXPECT_EQ(csv_prefixed.str(), "CSV,alpha,1\nCSV,\"beta, the second\",2\n");

  std::ostringstream jsonl;
  emit(t, RowFormat::kJsonLines, jsonl);
  EXPECT_EQ(jsonl.str(),
            "{\"name\":\"alpha\",\"value\":1}\n"
            "{\"name\":\"beta, the second\",\"value\":2}\n");

  std::ostringstream aligned;
  emit(t, RowFormat::kAligned, aligned);
  EXPECT_NE(aligned.str().find("alpha"), std::string::npos);
  EXPECT_NE(aligned.str().find("beta, the second"), std::string::npos);
}

exper::CellOutcome ok_outcome(std::uint64_t k, double phi) {
  exper::CellOutcome cell;
  cell.status = Status::ok();
  cell.attempts = 1;
  cell.result.config.method = core::Method::kSystematicCount;
  cell.result.config.target = core::Target::kPacketSize;
  cell.result.config.granularity = k;
  core::DisparityMetrics m{};
  m.phi = phi;
  m.sample_n = 100;
  m.population_n = 100 * k;
  cell.result.replications.push_back(m);
  return cell;
}

TEST(AsResult, AllOkReportIsOkAndFullyPopulated) {
  exper::RunReport report;
  report.cells.push_back(ok_outcome(16, 0.125));
  report.cells.push_back(ok_outcome(64, 0.25));

  const auto result = as_result(report);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(static_cast<bool>(result));
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(result->cells.size(), 2u);
  EXPECT_TRUE(result->quarantined().empty());

  ASSERT_EQ(result.rows.rows.size(), 2u);
  const auto& row = result.rows.rows[0];
  ASSERT_EQ(row.size(), result.rows.columns.size());
  EXPECT_EQ(row[0], "0");
  EXPECT_EQ(row[3], "16");           // k
  EXPECT_EQ(row[4], "ok");           // status
  EXPECT_EQ(row[6], fmt_double(0.125, 4));  // phi mean
  EXPECT_EQ(result.rows.rows[1][3], "64");
}

TEST(AsResult, QuarantinedCellPadsMetricsAndCarriesFirstFailure) {
  exper::RunReport report;
  report.cells.push_back(ok_outcome(16, 0.125));
  exper::CellOutcome bad;
  bad.status = Status(StatusCode::kInternal, "injected fault");
  bad.attempts = 3;
  bad.result.config.method = core::Method::kSimpleRandom;
  bad.result.config.target = core::Target::kInterarrivalTime;
  bad.result.config.granularity = 256;
  report.cells.push_back(bad);

  const auto result = as_result(report);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  // Partial value still present: the sweep quarantines, it does not lose.
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(result->quarantined(), std::vector<std::size_t>{1});

  const auto& bad_row = result.rows.rows[1];
  EXPECT_EQ(bad_row[5], "3");  // attempts
  EXPECT_EQ(bad_row[6], "-");  // phi columns padded, not garbage
  EXPECT_EQ(bad_row[9], "-");
  // operator* still yields the partial report rather than throwing.
  EXPECT_EQ((*result).cells.size(), 2u);
}

TEST(AsResult, EmptyValueDereferenceThrows) {
  Result<int> result;
  result.status = Status(StatusCode::kInternal, "no value");
  EXPECT_THROW((void)*result, StatusError);
}

}  // namespace
}  // namespace netsample
