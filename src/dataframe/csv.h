#ifndef CULINARYLAB_DATAFRAME_CSV_H_
#define CULINARYLAB_DATAFRAME_CSV_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "dataframe/table.h"
#include "robustness/error_sink.h"

namespace culinary::df {

/// Options controlling CSV parsing.
struct CsvReadOptions {
  /// Field delimiter.
  char delimiter = ',';
  /// When true the first record supplies column names; otherwise columns are
  /// named "c0", "c1", ...
  bool has_header = true;
  /// When true column types are inferred (all-int64 → int64, otherwise
  /// all-double → double, otherwise string). When false every column is
  /// string.
  bool infer_types = true;
  /// Empty unquoted fields become nulls when true, empty strings otherwise.
  bool empty_as_null = true;

  /// How malformed records are handled (see robustness/error_sink.h):
  ///   * kStrict — the first malformed record fails the whole read with a
  ///     line/column-bearing ParseError (seed behaviour);
  ///   * kSkipAndReport — malformed records are quarantined (dropped) with
  ///     a diagnostic in `error_sink`, parsing continues;
  ///   * kBestEffort — additionally, ragged rows are padded with nulls /
  ///     truncated to the header width instead of dropped.
  robustness::ErrorPolicy error_policy = robustness::ErrorPolicy::kStrict;
  /// Receives per-record diagnostics under non-strict policies (may be
  /// null, in which case errors are counted only through `stats`).
  robustness::ErrorSink* error_sink = nullptr;
  /// Receives record-level accounting: total / kept / quarantined data
  /// records (may be null).
  robustness::IngestStats* stats = nullptr;
};

/// Options controlling CSV serialization.
struct CsvWriteOptions {
  char delimiter = ',';
  bool write_header = true;
  /// Rendering for null cells.
  std::string null_literal;
  /// When true `WriteCsvFile` is crash-safe: it writes `<path>.tmp` and
  /// renames it over `path` only after a successful flush, so a crash
  /// mid-write leaves the previous file intact (the orphan temp file is
  /// the crash's only residue).
  bool atomic_write = false;
};

/// Parses RFC-4180 CSV text (quoted fields, doubled-quote escapes, embedded
/// newlines inside quotes; accepts both \n and \r\n record separators; a
/// final record without a trailing newline is still emitted).
/// Under `ErrorPolicy::kStrict`, ragged rows, garbage after a closing quote
/// and an unterminated quote at EOF are ParseErrors carrying line and
/// column; under the degraded policies such records are quarantined or
/// salvaged per `options` instead.
culinary::Result<Table> ReadCsvString(std::string_view text,
                                      const CsvReadOptions& options = {});

/// Reads and parses a CSV file. IOError when the file cannot be read.
/// Checks the `csv.open` / `csv.read` fault-injection sites (see
/// robustness/fault_injector.h), making every IO failure path testable.
culinary::Result<Table> ReadCsvFile(const std::string& path,
                                    const CsvReadOptions& options = {});

/// Serializes `table` as CSV text. Fields containing the delimiter, quotes
/// or newlines are quoted; quotes are doubled.
std::string WriteCsvString(const Table& table,
                           const CsvWriteOptions& options = {});

/// Writes `table` to `path`. IOError when the file cannot be written. With
/// `options.atomic_write` the write is crash-safe (temp file + rename).
/// Checks the `csv.open_write` / `csv.write` / `csv.rename` fault-injection
/// sites.
culinary::Status WriteCsvFile(const Table& table, const std::string& path,
                              const CsvWriteOptions& options = {});

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_CSV_H_
