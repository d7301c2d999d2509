#include "dataframe/csv.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "robustness/fault_injector.h"

namespace culinary::df {
namespace {

TEST(CsvReadTest, BasicWithHeader) {
  auto t = ReadCsvString("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->num_columns(), 2u);
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(1).type, DataType::kString);
  EXPECT_EQ(t->GetValue(1, 0), Value::Int(2));
  EXPECT_EQ(t->GetValue(0, 1), Value::Str("x"));
}

TEST(CsvReadTest, NoHeaderNamesColumns) {
  CsvReadOptions options;
  options.has_header = false;
  auto t = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).name, "c0");
  EXPECT_EQ(t->schema().field(1).name, "c1");
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvReadTest, TypeInferenceDoubleAndFallback) {
  auto t = ReadCsvString("a,b,c\n1.5,2,x1\n2,3,7\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kDouble);
  EXPECT_EQ(t->schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(2).type, DataType::kString);
  EXPECT_EQ(t->GetValue(0, 0), Value::Real(1.5));
}

TEST(CsvReadTest, InferTypesDisabled) {
  CsvReadOptions options;
  options.infer_types = false;
  auto t = ReadCsvString("a\n1\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
}

TEST(CsvReadTest, QuotedFieldsWithCommasAndNewlines) {
  auto t = ReadCsvString("a,b\n\"x, y\",\"line1\nline2\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 0), Value::Str("x, y"));
  EXPECT_EQ(t->GetValue(0, 1), Value::Str("line1\nline2"));
}

TEST(CsvReadTest, EscapedQuotes) {
  auto t = ReadCsvString("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 0), Value::Str("he said \"hi\""));
}

TEST(CsvReadTest, CrlfLineEndings) {
  auto t = ReadCsvString("a,b\r\n1,x\r\n2,y\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(1, 1), Value::Str("y"));
}

TEST(CsvReadTest, MissingFinalNewline) {
  auto t = ReadCsvString("a\n1\n2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvReadTest, EmptyFieldsBecomeNulls) {
  auto t = ReadCsvString("a,b\n1,\n,x\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 1), Value::Null());
  EXPECT_EQ(t->GetValue(1, 0), Value::Null());
}

TEST(CsvReadTest, QuotedEmptyIsEmptyStringNotNull) {
  auto t = ReadCsvString("a\n\"\"\nx\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 0), Value::Str(""));
}

TEST(CsvReadTest, EmptyAsNullDisabled) {
  CsvReadOptions options;
  options.empty_as_null = false;
  auto t = ReadCsvString("a\nx\n\n", options);
  // Note: a blank line is still one empty field, which becomes "".
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(1, 0), Value::Str(""));
}

TEST(CsvReadTest, RaggedRowIsParseError) {
  auto t = ReadCsvString("a,b\n1,2\n3\n");
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsParseError());
}

TEST(CsvReadTest, UnterminatedQuoteIsParseError) {
  auto t = ReadCsvString("a\n\"open\n");
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsParseError());
}

TEST(CsvReadTest, GarbageAfterClosingQuote) {
  auto t = ReadCsvString("a\n\"x\"y\n");
  EXPECT_FALSE(t.ok());
}

TEST(CsvReadTest, EmptyInputIsParseError) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvReadTest, CustomDelimiter) {
  CsvReadOptions options;
  options.delimiter = ';';
  auto t = ReadCsvString("a;b\n1;2\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_columns(), 2u);
  EXPECT_EQ(t->GetValue(0, 1), Value::Int(2));
}

TEST(CsvWriteTest, QuotesSpecialFields) {
  Schema schema({{"a", DataType::kString}});
  auto t = Table::Make(schema);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AppendRow({Value::Str("x, y")}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Str("quote\"inside")}).ok());
  std::string csv = WriteCsvString(*t);
  EXPECT_EQ(csv, "a\n\"x, y\"\n\"quote\"\"inside\"\n");
}

TEST(CsvWriteTest, HeaderToggle) {
  Schema schema({{"a", DataType::kInt64}});
  auto t = Table::Make(schema);
  ASSERT_TRUE(t->AppendRow({Value::Int(1)}).ok());
  CsvWriteOptions options;
  options.write_header = false;
  EXPECT_EQ(WriteCsvString(*t, options), "1\n");
}

TEST(CsvRoundTripTest, PreservesValuesAndTypes) {
  Schema schema({{"s", DataType::kString},
                 {"i", DataType::kInt64},
                 {"d", DataType::kDouble}});
  auto t = Table::Make(schema);
  ASSERT_TRUE(t->AppendRow({Value::Str("hello, world"), Value::Int(-42),
                            Value::Real(0.1)})
                  .ok());
  ASSERT_TRUE(t->AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  std::string csv = WriteCsvString(*t);
  auto back = ReadCsvString(csv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetValue(0, 0), Value::Str("hello, world"));
  EXPECT_EQ(back->GetValue(0, 1), Value::Int(-42));
  EXPECT_EQ(back->GetValue(0, 2), Value::Real(0.1));  // %.17g round-trips
  EXPECT_EQ(back->GetValue(1, 0), Value::Null());
  EXPECT_EQ(back->GetValue(1, 1), Value::Null());
}

TEST(CsvFileTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/culinary_csv_test.csv";
  Schema schema({{"a", DataType::kInt64}});
  auto t = Table::Make(schema);
  ASSERT_TRUE(t->AppendRow({Value::Int(5)}).ok());
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetValue(0, 0), Value::Int(5));
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  auto r = ReadCsvFile("/nonexistent/path/data.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(CsvFileTest, UnwritablePathIsIOError) {
  Schema schema({{"a", DataType::kInt64}});
  auto t = Table::Make(schema);
  EXPECT_TRUE(
      WriteCsvFile(*t, "/nonexistent/dir/out.csv").IsIOError());
}

// --- Tokenizer edge-case locations -----------------------------------------

TEST(CsvTokenizerTest, UnterminatedQuoteAtEofHasLineAndColumn) {
  auto t = ReadCsvString("a,b\n1,x\n2,\"open");
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsParseError());
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos)
      << t.status().ToString();
  EXPECT_NE(t.status().message().find("column 3"), std::string::npos)
      << t.status().ToString();
}

TEST(CsvTokenizerTest, GarbageAfterClosingQuoteHasLineAndColumn) {
  auto t = ReadCsvString("a\n\"x\"y\n");
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 2"), std::string::npos)
      << t.status().ToString();
  EXPECT_NE(t.status().message().find("column"), std::string::npos)
      << t.status().ToString();
}

TEST(CsvTokenizerTest, NoTrailingNewlineStillEmitsFinalRecord) {
  auto t = ReadCsvString("a,b\n1,x\n2,y");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(1, 1), Value::Str("y"));
}

TEST(CsvTokenizerTest, NoTrailingNewlineWithCarriageReturnTail) {
  // A final record terminated by a bare \r (no \n) must not keep the \r.
  auto t = ReadCsvString("a,b\n1,x\n2,y\r");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(1, 1), Value::Str("y"));
}

TEST(CsvTokenizerTest, QuotedFinalFieldWithoutNewline) {
  auto t = ReadCsvString("a\n\"x, y\"");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0), Value::Str("x, y"));
}

// --- Degraded-mode policies -------------------------------------------------

TEST(CsvDegradedTest, SkipAndReportQuarantinesRaggedRows) {
  robustness::ErrorSink sink;
  robustness::IngestStats stats;
  CsvReadOptions options;
  options.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  options.error_sink = &sink;
  options.stats = &stats;
  auto t = ReadCsvString("a,b\n1,2\n3\n4,5,6\n7,8\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);  // 1,2 and 7,8
  EXPECT_EQ(stats.records_total, 4u);
  EXPECT_EQ(stats.records_ok, 2u);
  EXPECT_EQ(stats.records_quarantined, 2u);
  EXPECT_DOUBLE_EQ(stats.coverage(), 0.5);
  EXPECT_EQ(sink.total(), 2u);
}

TEST(CsvDegradedTest, SkipAndReportRecoversFromBrokenQuoting) {
  robustness::ErrorSink sink;
  CsvReadOptions options;
  options.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  options.error_sink = &sink;
  auto t = ReadCsvString("a,b\n1,\"broken\n2,ok\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_FALSE(sink.empty());
  // The quarantined diagnostic carries a location.
  ASSERT_FALSE(sink.diagnostics().empty());
  EXPECT_GT(sink.diagnostics()[0].line, 0u);
}

TEST(CsvDegradedTest, BestEffortPadsAndTruncatesRaggedRows) {
  robustness::IngestStats stats;
  CsvReadOptions options;
  options.error_policy = robustness::ErrorPolicy::kBestEffort;
  options.stats = &stats;
  options.infer_types = false;
  auto t = ReadCsvString("a,b\n1\n1,2,3\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0), Value::Str("1"));
  EXPECT_EQ(t->GetValue(0, 1), Value::Null());  // padded
  EXPECT_EQ(t->GetValue(1, 1), Value::Str("2"));  // truncated to width 2
  EXPECT_EQ(stats.records_ok, 2u);
}

TEST(CsvDegradedTest, StrictIsUnchangedByDefault) {
  CsvReadOptions options;  // default policy is strict
  EXPECT_FALSE(ReadCsvString("a,b\n1\n", options).ok());
}

// --- Fault injection --------------------------------------------------------

class CsvFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own concurrent process; keep the path
    // per-process so parallel cases don't race on it.
    path_ = ::testing::TempDir() + "/culinary_csv_fault_" +
            std::to_string(getpid()) + ".csv";
    std::ofstream out(path_);
    out << "a\n1\n";
  }
  void TearDown() override {
    robustness::FaultInjector::Global().Reset();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(CsvFaultTest, FailNthOpenMakesReadFail) {
  robustness::ScopedFault fault(robustness::kFaultCsvOpen,
                                robustness::FaultInjector::Plan::Nth(1));
  auto first = ReadCsvFile(path_);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIOError());
  // The injected status names both the file and the site.
  EXPECT_NE(first.status().message().find(path_), std::string::npos);
  EXPECT_NE(first.status().message().find("csv.open"), std::string::npos);
  EXPECT_TRUE(ReadCsvFile(path_).ok());
}

TEST_F(CsvFaultTest, FailNthReadPathIsDistinctFromOpen) {
  robustness::ScopedFault fault(robustness::kFaultCsvRead,
                                robustness::FaultInjector::Plan::Nth(1));
  auto first = ReadCsvFile(path_);
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.status().message().find("csv.read"), std::string::npos);
}

// --- Crash-safe writes -------------------------------------------------------

class AtomicWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/culinary_csv_atomic_" +
            std::to_string(getpid()) + ".csv";
    Schema schema({{"a", DataType::kInt64}});
    table_ = std::make_unique<Table>(Table::Make(schema).value());
    ASSERT_TRUE(table_->AppendRow({Value::Int(1)}).ok());
  }
  void TearDown() override {
    robustness::FaultInjector::Global().Reset();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
  std::unique_ptr<Table> table_;
};

TEST_F(AtomicWriteTest, AtomicWriteProducesReadableFileWithoutResidue) {
  CsvWriteOptions options;
  options.atomic_write = true;
  ASSERT_TRUE(WriteCsvFile(*table_, path_, options).ok());
  EXPECT_TRUE(ReadCsvFile(path_).ok());
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());  // temp renamed away
}

TEST_F(AtomicWriteTest, CrashMidWriteLeavesOriginalIntact) {
  // Seed the destination with known-good content.
  ASSERT_TRUE(WriteCsvFile(*table_, path_).ok());

  // Crash after the temp file's bytes are written but before the rename.
  Table bigger = Table::Make(Schema({{"a", DataType::kInt64}})).value();
  ASSERT_TRUE(bigger.AppendRow({Value::Int(2)}).ok());
  CsvWriteOptions options;
  options.atomic_write = true;
  {
    robustness::ScopedFault fault(robustness::kFaultCsvWrite,
                                  robustness::FaultInjector::Plan::Nth(1));
    EXPECT_FALSE(WriteCsvFile(bigger, path_, options).ok());
  }

  // Original content survives and the aborted temp file is cleaned up —
  // the shared atomic-write helper removes it on failure, leaving no
  // residue at all.
  auto back = ReadCsvFile(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetValue(0, 0), Value::Int(1));
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());
}

TEST_F(AtomicWriteTest, RenameFailureLeavesOriginalIntact) {
  ASSERT_TRUE(WriteCsvFile(*table_, path_).ok());
  CsvWriteOptions options;
  options.atomic_write = true;
  {
    robustness::ScopedFault fault(robustness::kFaultCsvRename,
                                  robustness::FaultInjector::Plan::Nth(1));
    EXPECT_FALSE(WriteCsvFile(*table_, path_, options).ok());
  }
  EXPECT_TRUE(ReadCsvFile(path_).ok());
}

}  // namespace
}  // namespace culinary::df
