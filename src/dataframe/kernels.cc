#include "dataframe/kernels.h"

#include <algorithm>

namespace culinary::df::kernels {

namespace {

/// Fills the mask words covering [begin, end) from `pred(row)`, one packed
/// word per 64 rows. The full-word inner loop has a fixed trip count of 64
/// with no cross-iteration dependency except the OR-accumulate, which is the
/// shape compilers turn into a SIMD compare + movemask.
template <typename Pred>
inline void FillMask(size_t begin, size_t end, uint64_t* out, Pred pred) {
  size_t w = begin >> 6;
  size_t base = begin;
  for (; base + 64 <= end; base += 64, ++w) {
    uint64_t bits = 0;
    for (size_t b = 0; b < 64; ++b) {
      bits |= static_cast<uint64_t>(pred(base + b)) << b;
    }
    out[w] = bits;
  }
  if (base < end) {
    uint64_t bits = 0;
    for (size_t b = 0; base + b < end; ++b) {
      bits |= static_cast<uint64_t>(pred(base + b)) << b;
    }
    out[w] = bits;  // bits past `end` stay zero
  }
}

/// Dispatches `op` once, outside the row loop, so each instantiation is a
/// branch-free kernel.
template <typename Lhs>
inline void CompareDispatch(Lhs lhs, CmpOp op, size_t begin, size_t end,
                            uint64_t* out) {
  switch (op) {
    case CmpOp::kEq:
      FillMask(begin, end, out, [&](size_t i) { return lhs.a(i) == lhs.b(i); });
      return;
    case CmpOp::kNe:
      FillMask(begin, end, out, [&](size_t i) { return lhs.a(i) != lhs.b(i); });
      return;
    case CmpOp::kLt:
      FillMask(begin, end, out, [&](size_t i) { return lhs.a(i) < lhs.b(i); });
      return;
    case CmpOp::kLe:
      FillMask(begin, end, out, [&](size_t i) { return lhs.a(i) <= lhs.b(i); });
      return;
    case CmpOp::kGt:
      FillMask(begin, end, out, [&](size_t i) { return lhs.a(i) > lhs.b(i); });
      return;
    case CmpOp::kGe:
      FillMask(begin, end, out, [&](size_t i) { return lhs.a(i) >= lhs.b(i); });
      return;
  }
}

template <typename T, typename L>
struct ArrayVsLit {
  const T* data;
  L lit;
  T a(size_t i) const { return data[i]; }
  L b(size_t) const { return lit; }
};

struct Int64AsDoubleVsLit {
  const int64_t* data;
  double lit;
  double a(size_t i) const { return static_cast<double>(data[i]); }
  double b(size_t) const { return lit; }
};

struct ArrayVsArray {
  const double* lhs;
  const double* rhs;
  double a(size_t i) const { return lhs[i]; }
  double b(size_t i) const { return rhs[i]; }
};

/// Word index range [first, last) covering rows [begin, end).
inline void WordRange(size_t begin, size_t end, size_t* first, size_t* last) {
  *first = begin >> 6;
  *last = (end + 63) >> 6;
}

}  // namespace

void CompareInt64Lit(const int64_t* data, CmpOp op, int64_t lit, size_t begin,
                     size_t end, uint64_t* out) {
  CompareDispatch(ArrayVsLit<int64_t, int64_t>{data, lit}, op, begin, end, out);
}

void CompareDoubleLit(const double* data, CmpOp op, double lit, size_t begin,
                      size_t end, uint64_t* out) {
  CompareDispatch(ArrayVsLit<double, double>{data, lit}, op, begin, end, out);
}

void CompareInt64AsDoubleLit(const int64_t* data, CmpOp op, double lit,
                             size_t begin, size_t end, uint64_t* out) {
  CompareDispatch(Int64AsDoubleVsLit{data, lit}, op, begin, end, out);
}

void CompareDoubleDouble(const double* lhs, const double* rhs, CmpOp op,
                         size_t begin, size_t end, uint64_t* out) {
  CompareDispatch(ArrayVsArray{lhs, rhs}, op, begin, end, out);
}

void CompareCodeEq(const int32_t* codes, int32_t code, bool negate,
                   size_t begin, size_t end, uint64_t* out) {
  if (negate) {
    FillMask(begin, end, out, [&](size_t i) { return codes[i] != code; });
  } else {
    FillMask(begin, end, out, [&](size_t i) { return codes[i] == code; });
  }
}

void FillConstant(bool value, size_t begin, size_t end, uint64_t* out) {
  size_t first, last;
  WordRange(begin, end, &first, &last);
  const uint64_t fill = value ? ~uint64_t{0} : uint64_t{0};
  for (size_t w = first; w < last; ++w) out[w] = fill;
  if (value && (end & 63) != 0) {
    out[last - 1] &= ~uint64_t{0} >> (64 - (end & 63));
  }
}

void AndWords(const uint64_t* src, size_t begin, size_t end, uint64_t* out) {
  size_t first, last;
  WordRange(begin, end, &first, &last);
  for (size_t w = first; w < last; ++w) out[w] &= src[w];
}

void OrWords(const uint64_t* src, size_t begin, size_t end, uint64_t* out) {
  size_t first, last;
  WordRange(begin, end, &first, &last);
  for (size_t w = first; w < last; ++w) out[w] |= src[w];
}

void CopyWords(const uint64_t* src, size_t begin, size_t end, uint64_t* out) {
  size_t first, last;
  WordRange(begin, end, &first, &last);
  for (size_t w = first; w < last; ++w) out[w] = src[w];
  if ((end & 63) != 0) {
    out[last - 1] &= ~uint64_t{0} >> (64 - (end & 63));
  }
}

void NotWords(size_t begin, size_t end, uint64_t* out) {
  size_t first, last;
  WordRange(begin, end, &first, &last);
  for (size_t w = first; w < last; ++w) out[w] = ~out[w];
  if ((end & 63) != 0) {
    out[last - 1] &= ~uint64_t{0} >> (64 - (end & 63));
  }
}

void IsNullMask(const uint64_t* valid, bool negate, size_t begin, size_t end,
                uint64_t* out) {
  if (negate) {
    CopyWords(valid, begin, end, out);
  } else {
    CopyWords(valid, begin, end, out);
    NotWords(begin, end, out);
  }
}

namespace {

template <typename T>
void AccumulateSelectedImpl(const uint64_t* sel, const uint64_t* valid,
                            const T* data, size_t num_rows,
                            NumericAggState* state) {
  const size_t num_words = culinary::Bitmap::WordsFor(num_rows);
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = sel[w] & valid[w];
    while (word != 0) {
      const size_t row = w * 64 + culinary::CountTrailingZeros64(word);
      word &= word - 1;
      state->Accumulate(static_cast<double>(data[row]));
    }
  }
}

template <typename T>
void GatherNonNullImpl(const uint64_t* valid, const T* data, size_t num_rows,
                       std::vector<double>* out) {
  culinary::Bitmap::ForEachSetBitInWords(
      valid, 0, num_rows,
      [&](size_t row) { out->push_back(static_cast<double>(data[row])); });
}

}  // namespace

void AccumulateSelectedDouble(const uint64_t* sel, const uint64_t* valid,
                              const double* data, size_t num_rows,
                              NumericAggState* state) {
  AccumulateSelectedImpl(sel, valid, data, num_rows, state);
}

void AccumulateSelectedInt64(const uint64_t* sel, const uint64_t* valid,
                             const int64_t* data, size_t num_rows,
                             NumericAggState* state) {
  AccumulateSelectedImpl(sel, valid, data, num_rows, state);
}

void GatherNonNullAsDouble(const uint64_t* valid, const double* data,
                           size_t num_rows, std::vector<double>* out) {
  GatherNonNullImpl(valid, data, num_rows, out);
}

void GatherNonNullAsDouble(const uint64_t* valid, const int64_t* data,
                           size_t num_rows, std::vector<double>* out) {
  GatherNonNullImpl(valid, data, num_rows, out);
}

FlatGroupIndex::FlatGroupIndex(size_t expected_keys) {
  size_t capacity = 16;
  // Size for ~70% max load.
  while (capacity < expected_keys + expected_keys / 2 + 1) capacity <<= 1;
  slot_keys_.assign(capacity, 0);
  slot_gids_.assign(capacity, -1);
  capacity_mask_ = capacity - 1;
}

int32_t FlatGroupIndex::GetOrAdd(int64_t key) {
  if (keys_.size() + 1 > (capacity_mask_ + 1) * 7 / 10) {
    Rehash((capacity_mask_ + 1) * 2);
  }
  size_t slot = HashKey(static_cast<uint64_t>(key)) & capacity_mask_;
  while (slot_gids_[slot] >= 0) {
    if (slot_keys_[slot] == key) return slot_gids_[slot];
    slot = (slot + 1) & capacity_mask_;
  }
  const int32_t gid = static_cast<int32_t>(keys_.size());
  slot_keys_[slot] = key;
  slot_gids_[slot] = gid;
  keys_.push_back(key);
  return gid;
}

int32_t FlatGroupIndex::Find(int64_t key) const {
  size_t slot = HashKey(static_cast<uint64_t>(key)) & capacity_mask_;
  while (slot_gids_[slot] >= 0) {
    if (slot_keys_[slot] == key) return slot_gids_[slot];
    slot = (slot + 1) & capacity_mask_;
  }
  return -1;
}

void FlatGroupIndex::Rehash(size_t new_capacity) {
  std::vector<int64_t> old_keys = std::move(slot_keys_);
  std::vector<int32_t> old_gids = std::move(slot_gids_);
  slot_keys_.assign(new_capacity, 0);
  slot_gids_.assign(new_capacity, -1);
  capacity_mask_ = new_capacity - 1;
  for (size_t s = 0; s < old_gids.size(); ++s) {
    if (old_gids[s] < 0) continue;
    size_t slot = HashKey(static_cast<uint64_t>(old_keys[s])) & capacity_mask_;
    while (slot_gids_[slot] >= 0) slot = (slot + 1) & capacity_mask_;
    slot_keys_[slot] = old_keys[s];
    slot_gids_[slot] = old_gids[s];
  }
}

}  // namespace culinary::df::kernels
