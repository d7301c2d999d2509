#include "dataframe/csv.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/string_util.h"
#include "robustness/fault_injector.h"

namespace culinary::df {

namespace {

using robustness::ErrorPolicy;
using robustness::ErrorSink;
using robustness::FaultInjector;

struct RawField {
  std::string text;
  bool quoted = false;
};

using RawRecord = std::vector<RawField>;

/// Tokenizer output: the records plus, per record, the 1-based source line
/// it starts on (for diagnostics), and the count of records the degraded
/// policies had to drop at the tokenizer level.
struct TokenizeOutput {
  std::vector<RawRecord> records;
  std::vector<size_t> record_lines;
  size_t dropped_records = 0;
};

void ReportOrCount(ErrorSink* sink, size_t line, size_t column,
                   std::string message, std::string snippet) {
  if (sink != nullptr) {
    sink->Report(line, column, StatusCode::kParseError, std::move(message),
                 std::move(snippet));
  }
}

/// Splits `text` into records of fields per RFC 4180, tracking line and
/// column. Under `kStrict` the first structural error (garbage after a
/// closing quote, unterminated quote at EOF) returns a ParseError naming
/// line and column; under the degraded policies the damaged record is
/// dropped with a diagnostic and scanning resumes at the next newline.
culinary::Result<TokenizeOutput> Tokenize(std::string_view text,
                                          char delimiter, ErrorPolicy policy,
                                          ErrorSink* sink) {
  TokenizeOutput out;
  RawRecord record;
  RawField field;
  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteInQuoted };
  State state = State::kFieldStart;
  size_t line = 1;
  size_t column = 0;         // 1-based column of the current character
  size_t record_line = 1;    // line the in-flight record started on
  size_t quote_line = 0;     // position of the last opening quote
  size_t quote_column = 0;

  auto end_field = [&]() {
    record.push_back(std::move(field));
    field = RawField{};
  };
  auto end_record = [&]() {
    end_field();
    out.records.push_back(std::move(record));
    out.record_lines.push_back(record_line);
    record = RawRecord{};
  };
  auto drop_record = [&]() {
    record.clear();
    field = RawField{};
    ++out.dropped_records;
  };

  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    ++column;
    switch (state) {
      case State::kFieldStart:
        if (c == '"') {
          field.quoted = true;
          quote_line = line;
          quote_column = column;
          state = State::kQuoted;
        } else if (c == delimiter) {
          end_field();
        } else if (c == '\n') {
          end_record();
          ++line;
          column = 0;
          record_line = line;
        } else if (c == '\r') {
          // swallow; newline handled next iteration
        } else {
          field.text.push_back(c);
          state = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (c == delimiter) {
          end_field();
          state = State::kFieldStart;
        } else if (c == '\n') {
          // Strip a trailing \r from \r\n records.
          if (!field.text.empty() && field.text.back() == '\r') {
            field.text.pop_back();
          }
          end_record();
          ++line;
          column = 0;
          record_line = line;
          state = State::kFieldStart;
        } else {
          field.text.push_back(c);
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          state = State::kQuoteInQuoted;
        } else {
          if (c == '\n') {
            ++line;
            column = 0;
          }
          field.text.push_back(c);
        }
        break;
      case State::kQuoteInQuoted:
        if (c == '"') {
          field.text.push_back('"');  // escaped quote
          state = State::kQuoted;
        } else if (c == delimiter) {
          end_field();
          state = State::kFieldStart;
        } else if (c == '\n') {
          end_record();
          ++line;
          column = 0;
          record_line = line;
          state = State::kFieldStart;
        } else if (c == '\r') {
          // part of \r\n after closing quote; swallow
        } else {
          std::string message =
              "unexpected character after closing quote at line " +
              std::to_string(line) + ", column " + std::to_string(column);
          if (policy == ErrorPolicy::kStrict) {
            return culinary::Status::ParseError(std::move(message));
          }
          ReportOrCount(sink, line, column, std::move(message),
                        std::string(1, c));
          // Resync: drop the damaged record and skip to the next newline.
          drop_record();
          while (i < text.size() && text[i] != '\n') ++i;
          if (i < text.size()) {
            ++line;
            column = 0;
            record_line = line;
          }
          state = State::kFieldStart;
        }
        break;
    }
    ++i;
  }

  if (state == State::kQuoted) {
    std::string message = "unterminated quoted field starting at line " +
                          std::to_string(quote_line) + ", column " +
                          std::to_string(quote_column);
    if (policy == ErrorPolicy::kStrict) {
      return culinary::Status::ParseError(std::move(message));
    }
    std::string snippet = field.text.substr(0, ErrorSink::kMaxSnippetBytes);
    ReportOrCount(sink, quote_line, quote_column, std::move(message),
                  std::move(snippet));
    drop_record();
    return out;
  }
  // Flush a final record without trailing newline (a \r straggler from an
  // unterminated \r\n is stripped).
  if (state == State::kUnquoted && !field.text.empty() &&
      field.text.back() == '\r') {
    field.text.pop_back();
  }
  if (state != State::kFieldStart || !field.text.empty() || field.quoted ||
      !record.empty()) {
    end_record();
  }
  return out;
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

culinary::Result<Table> ReadCsvString(std::string_view text,
                                      const CsvReadOptions& options) {
  CULINARY_ASSIGN_OR_RETURN(
      TokenizeOutput tokenized,
      Tokenize(text, options.delimiter, options.error_policy,
               options.error_sink));
  std::vector<RawRecord>& records = tokenized.records;
  if (records.empty()) {
    return culinary::Status::ParseError("empty CSV input");
  }

  const size_t num_cols = records[0].size();
  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.has_header) {
    for (const RawField& f : records[0]) names.push_back(f.text);
    first_data = 1;
  } else {
    for (size_t c = 0; c < num_cols; ++c) names.push_back("c" + std::to_string(c));
  }

  // Width-check every data record. Strict fails fast; skip-and-report
  // quarantines; best-effort pads short rows with nulls and truncates long
  // ones, keeping the record.
  std::vector<size_t> kept;
  kept.reserve(records.size() - first_data);
  size_t quarantined = tokenized.dropped_records;
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() == num_cols) {
      kept.push_back(r);
      continue;
    }
    const size_t record_line = tokenized.record_lines[r];
    std::string message = "record at line " + std::to_string(record_line) +
                          " has " + std::to_string(records[r].size()) +
                          " fields, expected " + std::to_string(num_cols);
    if (options.error_policy == ErrorPolicy::kStrict) {
      return culinary::Status::ParseError(std::move(message));
    }
    std::string snippet =
        records[r].empty() ? std::string() : records[r][0].text;
    ReportOrCount(options.error_sink, record_line, 0, std::move(message),
                  std::move(snippet));
    if (options.error_policy == ErrorPolicy::kBestEffort) {
      records[r].resize(num_cols);  // pads with unquoted empty fields
      kept.push_back(r);
    } else {
      ++quarantined;
    }
  }

  if (options.stats != nullptr) {
    options.stats->records_total =
        (records.size() - first_data) + tokenized.dropped_records;
    options.stats->records_ok = kept.size();
    options.stats->records_quarantined = quarantined;
  }

  auto is_null = [&](const RawField& f) {
    return options.empty_as_null && !f.quoted && f.text.empty();
  };

  // Infer per-column types over non-null fields of kept records.
  std::vector<DataType> types(num_cols, DataType::kString);
  if (options.infer_types) {
    for (size_t c = 0; c < num_cols; ++c) {
      bool all_int = true, all_double = true, any_value = false;
      for (size_t r : kept) {
        const RawField& f = records[r][c];
        if (is_null(f)) continue;
        any_value = true;
        int64_t iv;
        double dv;
        if (all_int && !ParseInt64(f.text, &iv)) all_int = false;
        if (all_double && !ParseDouble(f.text, &dv)) all_double = false;
        if (!all_double) break;
      }
      if (any_value && all_int) {
        types[c] = DataType::kInt64;
      } else if (any_value && all_double) {
        types[c] = DataType::kDouble;
      }
    }
  }

  std::vector<Field> fields;
  for (size_t c = 0; c < num_cols; ++c) fields.push_back({names[c], types[c]});
  CULINARY_ASSIGN_OR_RETURN(Table table, Table::Make(Schema(std::move(fields))));
  table.Reserve(kept.size());

  for (size_t r : kept) {
    std::vector<Value> row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      const RawField& f = records[r][c];
      if (is_null(f)) {
        row.push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case DataType::kInt64: {
          int64_t v = 0;
          ParseInt64(f.text, &v);
          row.push_back(Value::Int(v));
          break;
        }
        case DataType::kDouble: {
          double v = 0;
          ParseDouble(f.text, &v);
          row.push_back(Value::Real(v));
          break;
        }
        case DataType::kString:
          row.push_back(Value::Str(f.text));
          break;
      }
    }
    CULINARY_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

culinary::Result<Table> ReadCsvFile(const std::string& path,
                                    const CsvReadOptions& options) {
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvOpen)
                               .WithContext("opening " + path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return culinary::Status::IOError("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return culinary::Status::IOError("error reading file: " + path);
  }
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvRead)
                               .WithContext("reading " + path));
  return ReadCsvString(buf.str(), options);
}

namespace {

void WriteField(std::string& out, std::string_view text, char delimiter) {
  bool needs_quotes = false;
  for (char c : text) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
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
                                    const std::string& path,
                                    const CsvWriteOptions& options) {
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvOpenWrite)
                               .WithContext("opening for write " + path));
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return culinary::Status::IOError("cannot open file for write: " + path);
  }
  out << WriteCsvString(table, options);
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

std::string WriteCsvString(const Table& table, const CsvWriteOptions& options) {
  std::string out;
  const size_t cols = table.num_columns();
  if (options.write_header) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back(options.delimiter);
      WriteField(out, table.schema().field(c).name, options.delimiter);
    }
    out.push_back('\n');
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back(options.delimiter);
      Value v = table.GetValue(r, c);
      if (v.is_null()) {
        out.append(options.null_literal);
      } else if (v.is_double()) {
        // Round-trippable formatting (Value::ToString truncates for display).
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
        WriteField(out, buf, options.delimiter);
      } else {
        WriteField(out, v.ToString(), options.delimiter);
      }
    }
    out.push_back('\n');
  }
  return out;
}

culinary::Status WriteCsvFile(const Table& table, const std::string& path,
                              const CsvWriteOptions& options) {
  if (!options.atomic_write) {
    return WriteCsvFileDirect(table, path, options);
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
  return WriteFileAtomic(path, WriteCsvString(table, options), atomic);
}

}  // namespace culinary::df
