#include "dataframe/csv.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "robustness/fault_injector.h"

namespace culinary::df {
namespace {

using Record = std::vector<std::optional<std::string>>;

/// Every record `ForEachCsvRecord` hands over, header first; a missing cell
/// is nullopt.
culinary::Result<std::vector<Record>> Read(std::string_view text,
                                           const CsvReadOptions& options = {}) {
  std::vector<Record> records;
  CULINARY_RETURN_IF_ERROR(ForEachCsvRecord(
      text, options, [&](size_t, std::span<const CsvField> fields) {
        records.emplace_back(fields.begin(), fields.end());
        return culinary::Status::OK();
      }));
  return records;
}

/// `ForEachCsvFileRecord`'s records, as `Read` returns them.
culinary::Result<std::vector<Record>> ReadFile(const std::string& path) {
  std::vector<Record> records;
  CULINARY_RETURN_IF_ERROR(ForEachCsvFileRecord(
      path, {}, [&](size_t, std::span<const CsvField> fields) {
        records.emplace_back(fields.begin(), fields.end());
        return culinary::Status::OK();
      }));
  return records;
}

TEST(CsvReadTest, BasicWithHeader) {
  auto t = Read("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 3u);  // the header and two records
  EXPECT_EQ((*t)[0], (Record{"a", "b"}));
  EXPECT_EQ((*t)[2][0], "2");
  EXPECT_EQ((*t)[1][1], "x");
}

TEST(CsvReadTest, RecordsCarryTheLineTheyStartOn) {
  std::vector<size_t> lines;
  ASSERT_TRUE(ForEachCsvRecord("a\n\"x\ny\"\nz\n", {},
                               [&](size_t line, std::span<const CsvField>) {
                                 lines.push_back(line);
                                 return culinary::Status::OK();
                               })
                  .ok());
  EXPECT_EQ(lines, (std::vector<size_t>{1, 2, 4}));

  // Long quoted records spanning lines, a CRLF record and a lone \r opening
  // a field: each record still carries the line its first byte is on.
  const std::string p(3000, 'p'), q(2000, 'q'), r(1000, 'r'), s(500, 's'),
      t(4000, 't');
  lines.clear();
  std::vector<Record> records;
  ASSERT_TRUE(ForEachCsvRecord("a,b\n\"" + p + "\n" + q + "\n\n\",1\r\n\rx,\"" +
                                   r + "\r\n" + s + "\"\r\nlast," + t +
                                   "\n\"u\nv\",w",
                               {},
                               [&](size_t line,
                                   std::span<const CsvField> fields) {
                                 lines.push_back(line);
                                 records.emplace_back(fields.begin(),
                                                      fields.end());
                                 return culinary::Status::OK();
                               })
                  .ok());
  EXPECT_EQ(lines, (std::vector<size_t>{1, 2, 6, 8, 9}));
  EXPECT_EQ(records, (std::vector<Record>{{"a", "b"},
                                          {p + "\n" + q + "\n\n", "1"},
                                          {"x", r + "\r\n" + s},
                                          {"last", t},
                                          {"u\nv", "w"}}));
}

TEST(CsvReadTest, VisitorErrorStopsTheRead) {
  size_t seen = 0;
  culinary::Status status = ForEachCsvRecord(
      "a\n1\n2\n3\n", {}, [&](size_t line, std::span<const CsvField>) {
        ++seen;
        return line == 2 ? culinary::Status::NotFound("stop")
                         : culinary::Status::OK();
      });
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(seen, 2u);
}

TEST(CsvReadTest, FindCsvColumnsTakesTheFirstMatch) {
  const std::vector<CsvField> header = {"id", std::nullopt, "name", "id"};
  auto columns = FindCsvColumns(header, {"name", "id"});
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ(*columns, (std::vector<size_t>{2, 0}));
  auto missing = FindCsvColumns(header, {"id", "region"});
  ASSERT_TRUE(missing.status().IsParseError());
  EXPECT_EQ(missing.status().message(), "missing column 'region'");
}

TEST(CsvReadTest, QuotedFieldsWithCommasAndNewlines) {
  auto t = Read("a,b\n\"x, y\",\"line1\nline2\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1][0], "x, y");
  EXPECT_EQ((*t)[1][1], "line1\nline2");
}

TEST(CsvReadTest, EscapedQuotes) {
  auto t = Read("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1][0], "he said \"hi\"");
}

TEST(CsvReadTest, CrlfLineEndings) {
  auto t = Read("a,b\r\n1,x\r\n2,y\r\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 3u);
  EXPECT_EQ((*t)[2][1], "y");
  // A CRLF record holding a long multi-line quoted field, and a lone \r
  // opening a field (dropped) beside one inside a field (kept).
  const std::string m(2000, 'm');
  auto mixed = Read("a,b\r\n\"" + m + "\r\nn\",\rx\r\ny\rz,\r\r\n");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(*mixed, (std::vector<Record>{{"a", "b"},
                                         {m + "\r\nn", "x"},
                                         {"y\rz", std::nullopt}}));
}

TEST(CsvReadTest, MissingFinalNewline) {
  auto t = Read("a\n1\n2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 3u);
}

TEST(CsvReadTest, EmptyFieldsBecomeNulls) {
  auto t = Read("a,b\n1,\n,x\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1][1], std::nullopt);
  EXPECT_EQ((*t)[2][0], std::nullopt);
}

TEST(CsvReadTest, QuotedEmptyIsEmptyStringNotNull) {
  auto t = Read("a\n\"\"\nx\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1][0], "");
}

TEST(CsvReadTest, RaggedRowIsParseError) {
  auto t = Read("a,b\n1,2\n3\n");
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsParseError());
}

TEST(CsvReadTest, StrictWidthErrorNamesLineAndColumn) {
  // Too wide: field 3 starts after the delimiter at line 3, column 4.
  auto wide = Read("a,b\n1,2\n1,2,3,4\n");
  ASSERT_TRUE(wide.status().IsParseError());
  EXPECT_EQ(wide.status().message(),
            "record at line 3 has 4 fields, expected 2; field 3 starts at "
            "line 3, column 5");
  // Too narrow: the record ends at its newline, or one past its last
  // character at the end of input.
  auto narrow = Read("a,b\n1,2\n3\n");
  EXPECT_EQ(narrow.status().message(),
            "record at line 3 has 1 fields, expected 2; the record ends at "
            "line 3, column 2");
  auto tail = Read("a,b\n\"x\ny\"");
  EXPECT_EQ(tail.status().message(),
            "record at line 2 has 1 fields, expected 2; the record ends at "
            "line 3, column 3");
  // The same positions after long runs: a 5,000-byte unquoted field, and a
  // quoted field spanning three lines.
  auto long_wide = Read("a,b\n1," + std::string(5000, 'x') + ",3\n");
  EXPECT_EQ(long_wide.status().message(),
            "record at line 2 has 3 fields, expected 2; field 3 starts at "
            "line 2, column 5004");
  auto quoted_wide =
      Read("a,b\n1,\"" + std::string(300, 'p') + "\n" + std::string(200, 'q') +
           "\n" + std::string(100, 'r') + "\",3\n");
  EXPECT_EQ(quoted_wide.status().message(),
            "record at line 2 has 3 fields, expected 2; field 3 starts at "
            "line 4, column 103");
  auto long_narrow =
      Read("a,b,c\n" + std::string(5000, 'x') + ",\"y\n" +
           std::string(700, 'z') + "\"\n");
  EXPECT_EQ(long_narrow.status().message(),
            "record at line 2 has 2 fields, expected 3; the record ends at "
            "line 3, column 702");
}

TEST(CsvReadTest, StrictReportsTheFirstDamagedRecordInFileOrder) {
  // The too-wide record precedes the garbage after a closing quote.
  auto t = Read("a,b\n1,2,3\n\"x\"y,1\n");
  ASSERT_TRUE(t.status().IsParseError());
  EXPECT_NE(t.status().message().find("record at line 2 has 3 fields"),
            std::string::npos)
      << t.status().ToString();
}

TEST(CsvReadTest, UnterminatedQuoteIsParseError) {
  auto t = Read("a\n\"open\n");
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsParseError());
}

TEST(CsvReadTest, GarbageAfterClosingQuote) {
  auto t = Read("a\n\"x\"y\n");
  EXPECT_FALSE(t.ok());
}

TEST(CsvReadTest, EmptyInputIsParseError) {
  EXPECT_FALSE(Read("").ok());
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
  auto back = Read(csv);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[1][0], "hello, world");
  EXPECT_EQ((*back)[1][1], "-42");
  ASSERT_TRUE((*back)[1][2].has_value());
  EXPECT_EQ(std::stod(*(*back)[1][2]), 0.1);  // %.17g round-trips
  EXPECT_EQ((*back)[2], (Record{std::nullopt, std::nullopt, std::nullopt}));
}

TEST(CsvFileTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/culinary_csv_test.csv";
  Schema schema({{"a", DataType::kInt64}});
  auto t = Table::Make(schema);
  ASSERT_TRUE(t->AppendRow({Value::Int(5)}).ok());
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, (std::vector<Record>{{"a"}, {"5"}}));
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  auto r = ReadFile("/nonexistent/path/data.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(CsvFileTest, ReadsAPipeToItsEnd) {
  // A pipe has no size, so it is read to its end. The text fits in the
  // pipe's buffer, so it is written in full before the read.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string text = "a,b\n1,x\n2,\"y\nz\"\n";
  ASSERT_EQ(write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  close(fds[1]);
  auto back = ReadFile("/dev/fd/" + std::to_string(fds[0]));
  close(fds[0]);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back,
            (std::vector<Record>{{"a", "b"}, {"1", "x"}, {"2", "y\nz"}}));
}

TEST(CsvFileTest, DirectoryIsIOError) {
  auto r = ReadFile(::testing::TempDir());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

TEST(CsvFileTest, UnwritablePathIsIOError) {
  Schema schema({{"a", DataType::kInt64}});
  auto t = Table::Make(schema);
  EXPECT_TRUE(
      WriteCsvFile(*t, "/nonexistent/dir/out.csv").IsIOError());
}

// --- Tokenizer edge-case locations -----------------------------------------

TEST(CsvTokenizerTest, UnterminatedQuoteAtEofHasLineAndColumn) {
  auto t = Read("a,b\n1,x\n2,\"open");
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsParseError());
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos)
      << t.status().ToString();
  EXPECT_NE(t.status().message().find("column 3"), std::string::npos)
      << t.status().ToString();
  // After a long run, holding an escaped quote, \r and \n.
  auto open = Read("a,b\n" + std::string(4500, 'x') + ",\"say \"\"hi\"\"\r\n" +
                   std::string(100, 'z'));
  EXPECT_EQ(open.status().message(),
            "unterminated quoted field starting at line 2, column 4502");
}

TEST(CsvTokenizerTest, GarbageAfterClosingQuoteHasLineAndColumn) {
  auto t = Read("a\n\"x\"y\n");
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 2"), std::string::npos)
      << t.status().ToString();
  EXPECT_NE(t.status().message().find("column"), std::string::npos)
      << t.status().ToString();
  // A stray byte past column 4,096, after a long unquoted and a long quoted
  // run.
  auto far = Read("a,b\n" + std::string(3000, 'x') + ",\"" +
                  std::string(2000, 'q') + "\"!\n");
  EXPECT_EQ(far.status().message(),
            "unexpected character after closing quote at line 2, column 5004");
}

TEST(CsvTokenizerTest, NoTrailingNewlineStillEmitsFinalRecord) {
  auto t = Read("a,b\n1,x\n2,y");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 3u);
  EXPECT_EQ((*t)[2][1], "y");
}

TEST(CsvTokenizerTest, NoTrailingNewlineWithCarriageReturnTail) {
  // A final record terminated by a bare \r (no \n) must not keep the \r.
  auto t = Read("a,b\n1,x\n2,y\r");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 3u);
  EXPECT_EQ((*t)[2][1], "y");
}

TEST(CsvTokenizerTest, QuotedFinalFieldWithoutNewline) {
  auto t = Read("a\n\"x, y\"");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ((*t)[1][0], "x, y");
}

// --- Degraded-mode policies -------------------------------------------------

TEST(CsvDegradedTest, SkipAndReportQuarantinesRaggedRows) {
  robustness::ErrorSink sink;
  robustness::IngestStats stats;
  CsvReadOptions options;
  options.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  options.error_sink = &sink;
  options.stats = &stats;
  auto t = Read("a,b\n1,2\n3\n4,5,6\n7,8\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->size(), 3u);  // the header, 1,2 and 7,8
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
  auto t = Read("a,b\n1,\"broken\n2,ok\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_FALSE(sink.empty());
  // The quarantined diagnostic carries a location.
  ASSERT_FALSE(sink.diagnostics().empty());
  EXPECT_GT(sink.diagnostics()[0].line, 0u);
  // An unterminated field holding an escaped quote, \r and \n after a long
  // run: the diagnostic points at its opening quote, and its snippet is the
  // field's first bytes with the quotes undone.
  robustness::ErrorSink open_sink;
  options.error_sink = &open_sink;
  auto open = Read("a,b\n1,x\n" + std::string(4500, 'x') +
                       ",\"say \"\"hi\"\"\r\n" + std::string(100, 'z'),
                   options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(*open, (std::vector<Record>{{"a", "b"}, {"1", "x"}}));
  ASSERT_EQ(open_sink.diagnostics().size(), 1u);
  const robustness::Diagnostic& d = open_sink.diagnostics()[0];
  EXPECT_EQ(d.line, 3u);
  EXPECT_EQ(d.column, 4502u);
  EXPECT_EQ(d.message,
            "unterminated quoted field starting at line 3, column 4502");
  EXPECT_EQ(d.snippet, "say \"hi\"\r\n" + std::string(38, 'z'));
}

TEST(CsvDegradedTest, BestEffortPadsAndTruncatesRaggedRows) {
  robustness::IngestStats stats;
  CsvReadOptions options;
  options.error_policy = robustness::ErrorPolicy::kBestEffort;
  options.stats = &stats;
  auto t = Read("a,b\n1\n1,2,3\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 3u);
  EXPECT_EQ((*t)[1], (Record{"1", std::nullopt}));  // padded
  EXPECT_EQ((*t)[2], (Record{"1", "2"}));           // truncated to width 2
  EXPECT_EQ(stats.records_ok, 2u);
}

TEST(CsvDegradedTest, StrictIsUnchangedByDefault) {
  CsvReadOptions options;  // default policy is strict
  EXPECT_FALSE(Read("a,b\n1\n", options).ok());
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
  auto first = ReadFile(path_);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIOError());
  // The injected status names both the file and the site.
  EXPECT_NE(first.status().message().find(path_), std::string::npos);
  EXPECT_NE(first.status().message().find("csv.open"), std::string::npos);
  EXPECT_TRUE(ReadFile(path_).ok());
}

TEST_F(CsvFaultTest, FailNthReadPathIsDistinctFromOpen) {
  robustness::ScopedFault fault(robustness::kFaultCsvRead,
                                robustness::FaultInjector::Plan::Nth(1));
  auto first = ReadFile(path_);
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
  EXPECT_TRUE(ReadFile(path_).ok());
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
  auto back = ReadFile(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[1][0], "1");
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
  EXPECT_TRUE(ReadFile(path_).ok());
}

}  // namespace
}  // namespace culinary::df
