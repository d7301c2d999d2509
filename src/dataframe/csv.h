#ifndef CULINARYLAB_DATAFRAME_CSV_H_
#define CULINARYLAB_DATAFRAME_CSV_H_

#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dataframe/table.h"
#include "robustness/error_sink.h"

namespace culinary::df {

/// Options controlling CSV parsing.
struct CsvReadOptions {
  /// How malformed records are handled (see robustness/error_sink.h):
  ///   * kStrict — the first damaged record in file order fails the read
  ///     with a line/column-bearing ParseError;
  ///   * kSkipAndReport — malformed records are quarantined (dropped) with
  ///     a diagnostic in `error_sink`, parsing continues;
  ///   * kBestEffort — additionally, ragged rows are padded with missing
  ///     fields / truncated to the header width instead of dropped.
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
  /// When true `WriteCsvFile` is crash-safe: it writes `<path>.tmp` and
  /// renames it over `path` only after a successful flush, so a crash
  /// mid-write leaves the previous file intact (the orphan temp file is
  /// the crash's only residue).
  bool atomic_write = false;
};

/// One cell of a record: its text, or nullopt when the cell is missing (an
/// empty unquoted field). A quoted empty field `""` is an empty string.
using CsvField = std::optional<std::string_view>;

/// Receives one kept record: the 1-based line it starts on and its fields.
/// The views live only until the call returns. A non-OK status stops the
/// read and is returned as is.
using CsvRecordFn =
    std::function<culinary::Status(size_t line, std::span<const CsvField>)>;

/// Tokenizes RFC-4180 CSV text (quoted fields, doubled-quote escapes,
/// embedded newlines inside quotes; \n or \r\n record separators; a final
/// record without a trailing newline still counts) and hands `fn` each kept
/// record in file order. The first record is the header; every later
/// record holds as many fields as it does.
/// Under `ErrorPolicy::kStrict` the first damaged record — garbage after a
/// closing quote, an unterminated quote at EOF, or a width that differs
/// from the header's — is a ParseError carrying line and column; under the
/// degraded policies such records are quarantined or salvaged per
/// `options` instead. ParseError for input without any record.
culinary::Status ForEachCsvRecord(std::string_view text,
                                  const CsvReadOptions& options,
                                  const CsvRecordFn& fn);

/// The position in `header` of each of `names` (its first match), in
/// order. ParseError naming the first name the header lacks.
culinary::Result<std::vector<size_t>> FindCsvColumns(
    std::span<const CsvField> header,
    std::initializer_list<std::string_view> names);

/// Reads `path` to its end (a regular file, a pipe or /dev/stdin alike) and
/// runs `ForEachCsvRecord` over it. IOError when the file cannot be opened
/// or read (a directory). Checks the `csv.open` / `csv.read`
/// fault-injection sites (see robustness/fault_injector.h), making every
/// IO failure path testable.
culinary::Status ForEachCsvFileRecord(const std::string& path,
                                      const CsvReadOptions& options,
                                      const CsvRecordFn& fn);

/// Serializes `table` as CSV text, header first; a null cell is an empty
/// field. Fields containing a comma, quotes or newlines are quoted; quotes
/// are doubled.
std::string WriteCsvString(const Table& table);

/// Writes `table` to `path`. IOError when the file cannot be written. With
/// `options.atomic_write` the write is crash-safe (temp file + rename).
/// Checks the `csv.open_write` / `csv.write` / `csv.rename` fault-injection
/// sites.
culinary::Status WriteCsvFile(const Table& table, const std::string& path,
                              const CsvWriteOptions& options = {});

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_CSV_H_
