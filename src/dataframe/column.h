#ifndef CULINARYLAB_DATAFRAME_COLUMN_H_
#define CULINARYLAB_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "dataframe/types.h"

namespace culinary::df {

class Column;
using ColumnPtr = std::shared_ptr<Column>;

/// Abstract typed column with a packed validity bitmap.
///
/// Columns are append-only during construction and immutable once shared
/// inside a `Table`. Null handling: every column tracks per-row validity;
/// `GetValue` returns `Value::Null()` for invalid rows. Validity is stored
/// one bit per row (`culinary::Bitmap`), which the aggregates in
/// aggregate.h test word by word to skip null cells.
class Column {
 public:
  virtual ~Column() = default;

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  /// The physical type of the column.
  virtual DataType type() const = 0;

  /// Number of rows.
  size_t size() const { return valid_.num_bits(); }

  /// Number of null rows.
  size_t null_count() const { return null_count_; }

  /// True iff row `i` is null.
  bool IsNull(size_t i) const { return !valid_.Test(i); }

  /// Packed validity: bit `i` set iff row `i` is non-null.
  const culinary::Bitmap& validity() const { return valid_; }

  /// Dynamically typed accessor for row `i`.
  virtual Value GetValue(size_t i) const = 0;

  /// Appends a dynamically typed value. Returns InvalidArgument when the
  /// value's type does not match the column (nulls always match). Integers
  /// widen implicitly into double columns.
  virtual culinary::Status AppendValue(const Value& value) = 0;

  /// Appends a null row.
  void AppendNull() {
    valid_.PushBack(false);
    ++null_count_;
    GrowStorage();
  }

  /// Pre-allocates capacity for `rows` total rows (validity + values).
  void Reserve(size_t rows) {
    valid_.Reserve(rows);
    ReserveStorage(rows);
  }

 protected:
  Column() = default;

  void MarkValid() { valid_.PushBack(true); }

  /// Hook for derived classes to keep their value storage aligned with the
  /// validity bitmap when a null is appended.
  virtual void GrowStorage() = 0;

  /// Hook for derived classes to pre-allocate value storage.
  virtual void ReserveStorage(size_t rows) = 0;

  culinary::Bitmap valid_;
  size_t null_count_ = 0;
};

/// Column of 64-bit integers.
class Int64Column final : public Column {
 public:
  Int64Column() = default;

  DataType type() const override { return DataType::kInt64; }
  Value GetValue(size_t i) const override;
  culinary::Status AppendValue(const Value& value) override;

  /// Appends a non-null element.
  void Append(int64_t v) {
    data_.push_back(v);
    MarkValid();
  }

  /// Raw accessor; undefined for null rows.
  int64_t at(size_t i) const { return data_[i]; }

  /// Contiguous value storage (null rows hold 0).
  const int64_t* data() const { return data_.data(); }

 private:
  void GrowStorage() override { data_.push_back(0); }
  void ReserveStorage(size_t rows) override { data_.reserve(rows); }

  std::vector<int64_t> data_;
};

/// Column of doubles.
class DoubleColumn final : public Column {
 public:
  DoubleColumn() = default;

  DataType type() const override { return DataType::kDouble; }
  Value GetValue(size_t i) const override;
  culinary::Status AppendValue(const Value& value) override;

  void Append(double v) {
    data_.push_back(v);
    MarkValid();
  }

  double at(size_t i) const { return data_[i]; }

  /// Contiguous value storage (null rows hold 0.0).
  const double* data() const { return data_.data(); }

 private:
  void GrowStorage() override { data_.push_back(0.0); }
  void ReserveStorage(size_t rows) override { data_.reserve(rows); }

  std::vector<double> data_;
};

/// Dictionary-encoded string column.
///
/// Stores one int32 code per row plus a shared dictionary of distinct
/// strings, which keeps memory linear in distinct values for the highly
/// repetitive columns in recipe data (region codes, ingredient names,
/// category labels).
class StringColumn final : public Column {
 public:
  StringColumn() = default;

  DataType type() const override { return DataType::kString; }
  Value GetValue(size_t i) const override;
  culinary::Status AppendValue(const Value& value) override;

  void Append(std::string_view v);

  /// View of row `i` (undefined for null rows). Valid while the column lives.
  std::string_view at(size_t i) const { return dict_[static_cast<size_t>(codes_[i])]; }

  /// Dictionary code of row `i` (undefined for null rows). Equal codes imply
  /// equal strings within one column.
  int32_t code_at(size_t i) const { return codes_[i]; }

  /// Number of distinct strings seen.
  size_t dictionary_size() const { return dict_.size(); }

  /// Contiguous per-row codes (null rows hold -1). A filter resolves its
  /// value to a code once via `FindCode` and then compares int32s, never
  /// per-row strings.
  const int32_t* codes() const { return codes_.data(); }

  /// Dictionary string for `code` (must be < dictionary_size()).
  std::string_view dict_at(int32_t code) const {
    return dict_[static_cast<size_t>(code)];
  }

  /// Code of `v` in the dictionary, or -1 when absent. Allocation-free.
  int32_t FindCode(std::string_view v) const {
    auto it = index_.find(v);
    return it == index_.end() ? -1 : it->second;
  }

 private:
  /// Transparent hash so `index_.find(string_view)` probes without
  /// materializing a temporary std::string per lookup.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view v) const {
      return std::hash<std::string_view>{}(v);
    }
    size_t operator()(const std::string& s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  void GrowStorage() override { codes_.push_back(-1); }
  void ReserveStorage(size_t rows) override { codes_.reserve(rows); }

  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>> index_;
};

/// Creates an empty column of the given type.
ColumnPtr MakeColumn(DataType type);

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_COLUMN_H_
