#include "robustness/chaos.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dataframe/csv.h"
#include "robustness/error_sink.h"

namespace culinary::robustness {
namespace {

std::string MakeCsv(size_t rows) {
  std::string text = "id,name,score\n";
  for (size_t i = 0; i < rows; ++i) {
    text += std::to_string(i) + ",item" + std::to_string(i) + "," +
            std::to_string(i * 10) + "\n";
  }
  return text;
}

TEST(ChaosTest, RateZeroIsIdentity) {
  std::string text = MakeCsv(50);
  ChaosOptions options;
  options.corruption_rate = 0.0;
  ChaosStats stats;
  EXPECT_EQ(CorruptCsvText(text, options, &stats), text);
  EXPECT_EQ(stats.lines_corrupted, 0u);
}

TEST(ChaosTest, DeterministicInSeed) {
  std::string text = MakeCsv(200);
  ChaosOptions options;
  options.corruption_rate = 0.2;
  options.seed = 99;
  std::string a = CorruptCsvText(text, options);
  std::string b = CorruptCsvText(text, options);
  EXPECT_EQ(a, b);
  options.seed = 100;
  EXPECT_NE(CorruptCsvText(text, options), a);
}

TEST(ChaosTest, CorruptsRoughlyTheRequestedFraction) {
  std::string text = MakeCsv(1000);
  ChaosOptions options;
  options.corruption_rate = 0.1;
  ChaosStats stats;
  CorruptCsvText(text, options, &stats);
  EXPECT_EQ(stats.lines_total, 1000u);
  EXPECT_GT(stats.lines_corrupted, 50u);
  EXPECT_LT(stats.lines_corrupted, 200u);
}

TEST(ChaosTest, HeaderPreservedByDefault) {
  std::string text = MakeCsv(100);
  ChaosOptions options;
  options.corruption_rate = 1.0;
  std::string corrupted = CorruptCsvText(text, options);
  EXPECT_EQ(corrupted.substr(0, corrupted.find('\n')), "id,name,score");
}

TEST(ChaosTest, StrictReaderFailsSkipPolicyRecovers) {
  std::string text = MakeCsv(400);
  ChaosOptions options;
  options.corruption_rate = 0.05;
  ChaosStats stats;
  std::string corrupted = CorruptCsvText(text, options, &stats);
  ASSERT_GT(stats.lines_corrupted, 0u);

  // Strict mode refuses the damaged corpus outright.
  auto ignore = [](size_t, std::span<const df::CsvField>) {
    return culinary::Status::OK();
  };
  EXPECT_FALSE(df::ForEachCsvRecord(corrupted, {}, ignore).ok());

  // Skip-and-report survives it and accounts for the losses.
  ErrorSink sink;
  IngestStats ingest;
  df::CsvReadOptions read;
  read.error_policy = ErrorPolicy::kSkipAndReport;
  read.error_sink = &sink;
  read.stats = &ingest;
  culinary::Status degraded = df::ForEachCsvRecord(corrupted, read, ignore);
  ASSERT_TRUE(degraded.ok()) << degraded.ToString();
  EXPECT_GT(ingest.records_quarantined, 0u);
  EXPECT_GT(ingest.coverage(), 0.8);
  EXPECT_FALSE(sink.empty());
}

TEST(ChaosTest, FileRoundTrip) {
  std::string in_path = ::testing::TempDir() + "/culinary_chaos_in.csv";
  std::string out_path = ::testing::TempDir() + "/culinary_chaos_out.csv";
  {
    std::ofstream out(in_path, std::ios::binary);
    out << MakeCsv(100);
    ASSERT_TRUE(out.good());
  }
  ChaosOptions options;
  options.corruption_rate = 0.3;
  ChaosStats stats;
  ASSERT_TRUE(CorruptCsvFile(in_path, out_path, options, &stats).ok());
  EXPECT_GT(stats.lines_corrupted, 0u);
  std::ifstream in(out_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream read_back;
  read_back << in.rdbuf();
  EXPECT_NE(read_back.str(), MakeCsv(100));
}

TEST(ChaosTest, MissingInputIsIOError) {
  ChaosOptions options;
  culinary::Status status = CorruptCsvFile(
      ::testing::TempDir() + "/culinary_chaos_missing.csv",
      ::testing::TempDir() + "/culinary_chaos_never.csv", options);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace culinary::robustness
