#include "dataframe/csv.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/atomic_file.h"
#include "robustness/fault_injector.h"

namespace culinary::df {

namespace {

using robustness::ErrorPolicy;
using robustness::ErrorSink;
using robustness::FaultInjector;

void ReportOrCount(ErrorSink* sink, size_t line, size_t column,
                   std::string message, std::string_view snippet) {
  if (sink != nullptr) {
    sink->Report(line, column, StatusCode::kParseError, std::move(message),
                 std::string(snippet));
  }
}

/// A field of the in-flight record: its bytes in the record buffer (quotes
/// undone) and whether it was quoted.
struct FieldSpan {
  size_t begin = 0;
  size_t end = 0;
  bool quoted = false;
};

}  // namespace

culinary::Status ForEachCsvRecord(std::string_view text,
                                  const CsvReadOptions& options,
                                  const CsvRecordFn& fn) {
  const ErrorPolicy policy = options.error_policy;
  ErrorSink* const sink = options.error_sink;
  robustness::IngestStats stats;
  size_t width = 0;  // the header's field count; 0 until it is read

  std::string buffer;  // the in-flight record's field bytes
  std::vector<FieldSpan> spans;
  std::vector<CsvField> fields;
  FieldSpan field;
  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteInQuoted };
  State state = State::kFieldStart;
  const size_t n = text.size();
  size_t i = 0;              // offset of the current character
  size_t line = 1;
  size_t line_start = 0;     // offset of the current line's first byte
  size_t record_line = 1;    // line the in-flight record started on
  size_t quote_line = 0;     // position of the last opening quote
  size_t quote_column = 0;
  size_t excess_line = 0;    // where the first field past the header's
  size_t excess_column = 0;  // width starts

  // The 1-based column of the current character.
  auto column = [&]() { return i - line_start + 1; };
  auto end_field = [&]() {
    field.end = buffer.size();
    spans.push_back(field);
    field = FieldSpan{buffer.size(), buffer.size(), false};
  };
  // A delimiter ends a field; the one that opens a field past the header's
  // width marks where a too-wide record goes wrong.
  auto end_delimited_field = [&]() {
    end_field();
    if (spans.size() == width) {
      excess_line = line;
      excess_column = column() + 1;
    }
  };
  auto clear_record = [&]() {
    buffer.clear();
    spans.clear();
    field = FieldSpan{};
  };
  auto drop_record = [&]() {
    clear_record();
    ++stats.records_total;
    ++stats.records_quarantined;
  };
  // Checks the finished record's width and hands it to `fn`; the current
  // character is where the record ends.
  auto end_record = [&]() -> culinary::Status {
    end_field();
    if (width == 0) {
      width = spans.size();
    } else {
      ++stats.records_total;
      if (spans.size() != width) {
        std::string message = "record at line " + std::to_string(record_line) +
                              " has " + std::to_string(spans.size()) +
                              " fields, expected " + std::to_string(width);
        if (policy == ErrorPolicy::kStrict) {
          const bool wide = spans.size() > width;
          return culinary::Status::ParseError(
              message + "; " +
              (wide ? "field " + std::to_string(width + 1) + " starts"
                    : std::string("the record ends")) +
              " at line " + std::to_string(wide ? excess_line : line) +
              ", column " + std::to_string(wide ? excess_column : column()));
        }
        ReportOrCount(sink, record_line, 0, std::move(message),
                      std::string_view(buffer).substr(
                          spans[0].begin, spans[0].end - spans[0].begin));
        if (policy == ErrorPolicy::kSkipAndReport) {
          ++stats.records_quarantined;
          clear_record();
          return culinary::Status::OK();
        }
        spans.resize(width, FieldSpan{buffer.size(), buffer.size(), false});
      }
      ++stats.records_ok;
    }
    fields.clear();
    for (const FieldSpan& f : spans) {
      if (f.quoted || f.end > f.begin) {
        fields.emplace_back(
            std::string_view(buffer).substr(f.begin, f.end - f.begin));
      } else {
        fields.emplace_back(std::nullopt);
      }
    }
    culinary::Status status = fn(record_line, fields);
    clear_record();
    return status;
  };
  auto end_line = [&]() {
    ++line;
    line_start = i + 1;
    record_line = line;
  };

  for (; i < n; ++i) {
    const char c = text[i];
    switch (state) {
      case State::kFieldStart:
        if (c == '"') {
          field.quoted = true;
          quote_line = line;
          quote_column = column();
          state = State::kQuoted;
          break;
        }
        if (c == '\r') break;  // swallowed at the start of a field
        // Anything else reads as in an unquoted field, which is empty so far.
        [[fallthrough]];
      case State::kUnquoted:
        if (c == ',') {
          end_delimited_field();
          state = State::kFieldStart;
        } else if (c == '\n') {
          // Strip a trailing \r from \r\n records.
          if (buffer.size() > field.begin && buffer.back() == '\r') {
            buffer.pop_back();
          }
          CULINARY_RETURN_IF_ERROR(end_record());
          end_line();
          state = State::kFieldStart;
        } else {
          // Copy the run up to the next delimiter or newline in one append;
          // the loop goes on at that byte.
          size_t end = i + 1;
          while (end < n && text[end] != ',' && text[end] != '\n') ++end;
          buffer.append(text.substr(i, end - i));
          i = end - 1;
          state = State::kUnquoted;
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          state = State::kQuoteInQuoted;
        } else {
          // Copy the run up to the next quote in one append, counting the
          // lines it spans; the loop goes on at that quote.
          const std::string_view run = text.substr(i, text.find('"', i) - i);
          line += std::count(run.begin(), run.end(), '\n');
          const size_t last_newline = run.rfind('\n');
          if (last_newline != run.npos) line_start = i + last_newline + 1;
          buffer.append(run);
          i += run.size() - 1;
        }
        break;
      case State::kQuoteInQuoted:
        if (c == '"') {
          buffer.push_back('"');  // escaped quote
          state = State::kQuoted;
        } else if (c == ',') {
          end_delimited_field();
          state = State::kFieldStart;
        } else if (c == '\n') {
          CULINARY_RETURN_IF_ERROR(end_record());
          end_line();
          state = State::kFieldStart;
        } else if (c != '\r') {  // \r of a \r\n after the closing quote
          std::string message =
              "unexpected character after closing quote at line " +
              std::to_string(line) + ", column " + std::to_string(column());
          if (policy == ErrorPolicy::kStrict) {
            return culinary::Status::ParseError(std::move(message));
          }
          ReportOrCount(sink, line, column(), std::move(message),
                        std::string_view(&c, 1));
          // Resync: drop the damaged record and skip to the next newline.
          drop_record();
          while (i < n && text[i] != '\n') ++i;
          if (i < n) end_line();
          state = State::kFieldStart;
        }
        break;
    }
  }

  if (state == State::kQuoted) {
    std::string message = "unterminated quoted field starting at line " +
                          std::to_string(quote_line) + ", column " +
                          std::to_string(quote_column);
    if (policy == ErrorPolicy::kStrict) {
      return culinary::Status::ParseError(std::move(message));
    }
    ReportOrCount(sink, quote_line, quote_column, std::move(message),
                  std::string_view(buffer).substr(
                      field.begin, ErrorSink::kMaxSnippetBytes));
    drop_record();
  } else if (state != State::kFieldStart || !spans.empty()) {
    // A final record without trailing newline (a \r straggler from an
    // unterminated \r\n is stripped); it ends one past its last character,
    // where the loop left `i`.
    if (state == State::kUnquoted && buffer.size() > field.begin &&
        buffer.back() == '\r') {
      buffer.pop_back();
    }
    CULINARY_RETURN_IF_ERROR(end_record());
  }
  if (width == 0) return culinary::Status::ParseError("empty CSV input");
  if (options.stats != nullptr) *options.stats = stats;
  return culinary::Status::OK();
}

culinary::Result<std::vector<size_t>> FindCsvColumns(
    std::span<const CsvField> header,
    std::initializer_list<std::string_view> names) {
  std::vector<size_t> columns;
  for (std::string_view name : names) {
    const auto it = std::find(header.begin(), header.end(), CsvField(name));
    if (it == header.end()) {
      return culinary::Status::ParseError("missing column '" +
                                          std::string(name) + "'");
    }
    columns.push_back(static_cast<size_t>(it - header.begin()));
  }
  return columns;
}

culinary::Status ForEachCsvFileRecord(const std::string& path,
                                      const CsvReadOptions& options,
                                      const CsvRecordFn& fn) {
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvOpen)
                               .WithContext("opening " + path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return culinary::Status::IOError("cannot open file: " + path);
  }
  // Read to the end, so a pipe (which has no size) reads like a file: the
  // last read comes up short, and only a read error (badbit) fails. A
  // file's size, when it has one, is reserved up front: left to grow by
  // doubling, the paper-scale recipes file (5.2 MB) raised the peak RSS of
  // its load by about 5 MB.
  std::string text;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return culinary::Status::IOError("error reading file: " + path);
  }
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvRead)
                               .WithContext("reading " + path));
  return ForEachCsvRecord(text, options, fn);
}

namespace {

void WriteField(std::string& out, std::string_view text) {
  bool needs_quotes = false;
  for (char c : text) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out.append(text);
    return;
  }
  out.push_back('"');
  for (char c : text) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

/// Streams `table` as CSV into `path` verbatim (no temp file).
culinary::Status WriteCsvFileDirect(const Table& table,
                                    const std::string& path) {
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvOpenWrite)
                               .WithContext("opening for write " + path));
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return culinary::Status::IOError("cannot open file for write: " + path);
  }
  out << WriteCsvString(table);
  out.flush();
  if (!out) {
    return culinary::Status::IOError("error writing file: " + path);
  }
  // Fires after bytes hit the temp/destination file — the "crash
  // mid-write" injection point.
  return FaultInjector::Global()
      .Check(robustness::kFaultCsvWrite)
      .WithContext("writing " + path);
}

}  // namespace

std::string WriteCsvString(const Table& table) {
  std::string out;
  const size_t cols = table.num_columns();
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) out.push_back(',');
    WriteField(out, table.schema().field(c).name);
  }
  out.push_back('\n');
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back(',');
      Value v = table.GetValue(r, c);
      if (v.is_null()) continue;
      if (v.is_double()) {
        // Round-trippable formatting (Value::ToString truncates for display).
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
        WriteField(out, buf);
      } else {
        WriteField(out, v.ToString());
      }
    }
    out.push_back('\n');
  }
  return out;
}

culinary::Status WriteCsvFile(const Table& table, const std::string& path,
                              const CsvWriteOptions& options) {
  if (!options.atomic_write) {
    return WriteCsvFileDirect(table, path);
  }
  // Crash-safe via the shared helper: temp + fsync + rename + directory
  // fsync. The fault hook maps the helper's step boundaries onto the
  // long-standing CSV injection sites so chaos schedules keep working.
  culinary::AtomicWriteOptions atomic;
  atomic.fault_hook =
      [&path](std::string_view step) -> culinary::Status {
    if (step == culinary::kAtomicStepOpen) {
      return FaultInjector::Global()
          .Check(robustness::kFaultCsvOpenWrite)
          .WithContext("opening for write " + path);
    }
    if (step == culinary::kAtomicStepWrite) {
      return FaultInjector::Global()
          .Check(robustness::kFaultCsvWrite)
          .WithContext("writing " + path);
    }
    if (step == culinary::kAtomicStepRename) {
      return FaultInjector::Global()
          .Check(robustness::kFaultCsvRename)
          .WithContext("renaming " + path + ".tmp");
    }
    return culinary::Status::OK();
  };
  return WriteFileAtomic(path, WriteCsvString(table), atomic);
}

}  // namespace culinary::df
