#ifndef CULINARYLAB_DATAFRAME_KERNELS_H_
#define CULINARYLAB_DATAFRAME_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitmap.h"

namespace culinary::df::kernels {

/// Comparison operators understood by the mask kernels.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Rows per evaluation block: 64 words of mask, so concurrent blocks write
/// disjoint uint64 words and parallel evaluation is race-free and bit-exact
/// without any merge step.
constexpr size_t kRowsPerBlock = 4096;
static_assert(kRowsPerBlock % culinary::Bitmap::kBitsPerWord == 0,
              "blocks must cover whole mask words");

// ---------------------------------------------------------------------------
// Mask kernels. Each fills bits [begin, end) of `out`, a word array indexed
// from row 0. `begin` must be a multiple of 64 (block alignment); bits at
// positions >= `end` in the last touched word are written as zero, so the
// whole-word consumers (popcount, AND/OR) never see garbage.
// ---------------------------------------------------------------------------

/// data[i] <op> lit over an int64 column, exact integer comparison.
void CompareInt64Lit(const int64_t* data, CmpOp op, int64_t lit, size_t begin,
                     size_t end, uint64_t* out);

/// data[i] <op> lit over a double column (IEEE semantics: NaN compares
/// false for everything except Ne).
void CompareDoubleLit(const double* data, CmpOp op, double lit, size_t begin,
                      size_t end, uint64_t* out);

/// static_cast<double>(data[i]) <op> lit — an int64 column against a real
/// literal, matching `Value::AsNumeric` widening.
void CompareInt64AsDoubleLit(const int64_t* data, CmpOp op, double lit,
                             size_t begin, size_t end, uint64_t* out);

/// lhs[i] <op> rhs[i] over two double runs (the generic numeric path).
void CompareDoubleDouble(const double* lhs, const double* rhs, CmpOp op,
                         size_t begin, size_t end, uint64_t* out);

/// codes[i] == code (or != when `negate`) over a dictionary column. The
/// string literal is resolved to `code` once by the caller; rows compare as
/// int32, never as strings. Null rows hold code -1 and the caller ANDs
/// validity afterwards.
void CompareCodeEq(const int32_t* codes, int32_t code, bool negate,
                   size_t begin, size_t end, uint64_t* out);

/// Every bit in [begin, end) set to `value` (constant-true / constant-false
/// predicates, e.g. a dictionary literal absent from the dictionary).
void FillConstant(bool value, size_t begin, size_t end, uint64_t* out);

/// out &= src over the words covering [begin, end) — e.g. ANDing a
/// column's validity into a freshly computed comparison mask.
void AndWords(const uint64_t* src, size_t begin, size_t end, uint64_t* out);

/// out |= src over the words covering [begin, end).
void OrWords(const uint64_t* src, size_t begin, size_t end, uint64_t* out);

/// Copies src's words covering [begin, end) into out, zeroing tail bits.
void CopyWords(const uint64_t* src, size_t begin, size_t end, uint64_t* out);

/// out = ~out over [begin, end), re-zeroing bits past `end`.
void NotWords(size_t begin, size_t end, uint64_t* out);

/// Null mask from a validity run: bit set iff the row is null (or non-null
/// when `negate`, i.e. IS NOT NULL).
void IsNullMask(const uint64_t* valid, bool negate, size_t begin, size_t end,
                uint64_t* out);

// ---------------------------------------------------------------------------
// Terminal kernels. These consume a finished selection mask serially in row
// order, which keeps floating-point accumulation bit-identical to the eager
// row loop and independent of how many threads built the mask.
// ---------------------------------------------------------------------------

/// Row-order numeric accumulator mirroring the eager aggregation loop in
/// ops.cc exactly (same operation order, same min/max idiom).
struct NumericAggState {
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  int64_t n = 0;

  void Accumulate(double v) {
    // std::min/std::max, not hand-rolled ternaries: the eager loop uses
    // them, and their NaN behavior (keep the first argument) must carry
    // over bit-for-bit.
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    ++n;
  }
};

/// Accumulates `data[row]` for every row selected in `sel` whose validity
/// bit is set, ascending row order. `sel` and `valid` are word runs covering
/// `num_rows` rows.
void AccumulateSelectedDouble(const uint64_t* sel, const uint64_t* valid,
                              const double* data, size_t num_rows,
                              NumericAggState* state);
void AccumulateSelectedInt64(const uint64_t* sel, const uint64_t* valid,
                             const int64_t* data, size_t num_rows,
                             NumericAggState* state);

/// Appends every non-null value as double in row order (the ToDoubleVector
/// hot loop: one word test per 64 rows instead of a boxed Value per cell).
void GatherNonNullAsDouble(const uint64_t* valid, const double* data,
                           size_t num_rows, std::vector<double>* out);
void GatherNonNullAsDouble(const uint64_t* valid, const int64_t* data,
                           size_t num_rows, std::vector<double>* out);

// ---------------------------------------------------------------------------
// Group index.
// ---------------------------------------------------------------------------

/// Flat open-addressing map from int64 key to a dense group id assigned in
/// first-insertion order. Power-of-two capacity, linear probing, splitmix64
/// finalizer — no per-node allocation, no std::string keys, built for the
/// group-by inner loop.
class FlatGroupIndex {
 public:
  /// `expected_keys` pre-sizes the table (grows automatically regardless).
  explicit FlatGroupIndex(size_t expected_keys = 0);

  /// Dense id of `key`, inserting it with the next id when unseen.
  int32_t GetOrAdd(int64_t key);

  /// Dense id of `key`, or -1 when unseen.
  int32_t Find(int64_t key) const;

  /// Number of distinct keys.
  size_t size() const { return keys_.size(); }

  /// Key of group `gid` (ids are dense: 0 <= gid < size()).
  int64_t key(int32_t gid) const { return keys_[static_cast<size_t>(gid)]; }

 private:
  static uint64_t HashKey(uint64_t x) {
    // splitmix64 finalizer: full avalanche in three shift-xor-multiplies.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void Rehash(size_t new_capacity);

  std::vector<int64_t> slot_keys_;
  std::vector<int32_t> slot_gids_;  // -1 = empty slot
  std::vector<int64_t> keys_;       // gid -> key
  size_t capacity_mask_ = 0;
};

}  // namespace culinary::df::kernels

#endif  // CULINARYLAB_DATAFRAME_KERNELS_H_
