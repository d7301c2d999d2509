#ifndef CULINARYLAB_COMMON_BITMAP_H_
#define CULINARYLAB_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace culinary {

/// Portable single-word popcount. On targets that guarantee the POPCNT
/// instruction the builtin lowers to one instruction; elsewhere GCC would
/// emit a libgcc call per word, so we fall back to the SWAR reduction
/// (~12 ops, branch-free, auto-vectorizable). Generalized out of
/// flavor::CompoundBitset so the dataframe kernels share one definition.
inline uint64_t PopCount64(uint64_t x) {
#if defined(__POPCNT__)
  return static_cast<uint64_t>(__builtin_popcountll(x));
#else
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (x * 0x0101010101010101ULL) >> 56;
#endif
}

/// Index of the lowest set bit of a non-zero word.
inline size_t CountTrailingZeros64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<size_t>(__builtin_ctzll(x));
#else
  // Isolate the lowest set bit and count the bits below it.
  return static_cast<size_t>(PopCount64((x & (~x + 1)) - 1));
#endif
}

/// |a AND b| over two word runs of length `n`, with four independent
/// accumulators so the loop pipelines / vectorizes. This is the innermost
/// kernel of the pairing triangle build.
inline size_t IntersectionPopCount(const uint64_t* a, const uint64_t* b,
                                   size_t n) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += PopCount64(a[i] & b[i]);
    c1 += PopCount64(a[i + 1] & b[i + 1]);
    c2 += PopCount64(a[i + 2] & b[i + 2]);
    c3 += PopCount64(a[i + 3] & b[i + 3]);
  }
  for (; i < n; ++i) c0 += PopCount64(a[i] & b[i]);
  return static_cast<size_t>(c0 + c1 + c2 + c3);
}

/// A growable bitset packed into uint64 words, least-significant bit first.
///
/// The shared substrate behind `flavor::CompoundBitset` (molecule sets) and
/// the dataframe layer's validity and row bitmaps. Two invariants are
/// maintained by every mutator and relied on by the word-at-a-time kernels:
///
///   1. `words().size() == WordsFor(num_bits())` exactly.
///   2. Bits at positions >= `num_bits()` in the last word are zero, so
///      whole-word popcounts never overcount and word-wise equality is
///      value equality.
class Bitmap {
 public:
  static constexpr size_t kBitsPerWord = 64;

  /// Number of words needed for `bits` bits.
  static size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

  Bitmap() = default;

  /// `num_bits` bits, all set to `value`.
  explicit Bitmap(size_t num_bits, bool value = false)
      : words_(WordsFor(num_bits), value ? ~uint64_t{0} : uint64_t{0}),
        num_bits_(num_bits) {
    MaskTail();
  }

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }
  bool empty() const { return num_bits_ == 0; }

  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void SetTo(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Appends one bit.
  void PushBack(bool value) {
    if ((num_bits_ & 63) == 0) words_.push_back(0);
    if (value) words_.back() |= uint64_t{1} << (num_bits_ & 63);
    ++num_bits_;
  }

  /// Pre-allocates capacity for `bits` bits without changing the size.
  void Reserve(size_t bits) { words_.reserve(WordsFor(bits)); }

  /// Grows or shrinks to `num_bits`; new bits take `value`.
  void Resize(size_t num_bits, bool value = false) {
    const size_t old_bits = num_bits_;
    num_bits_ = num_bits;
    words_.resize(WordsFor(num_bits), value ? ~uint64_t{0} : uint64_t{0});
    if (num_bits > old_bits && value && old_bits % 64 != 0) {
      // The partial old tail word must gain set bits too.
      words_[old_bits >> 6] |= ~uint64_t{0} << (old_bits & 63);
    }
    MaskTail();
  }

  /// Number of set bits (whole-bitmap popcount; tail invariant makes the
  /// plain word loop exact).
  size_t CountSet() const {
    uint64_t total = 0;
    for (uint64_t w : words_) total += PopCount64(w);
    return static_cast<size_t>(total);
  }

  /// Calls `fn(i)` for every set bit in [begin, end), ascending. The loop
  /// touches one word per 64 bits and one ctz per set bit.
  template <typename Fn>
  void ForEachSetBit(size_t begin, size_t end, Fn&& fn) const {
    if (begin >= end) return;
    size_t w = begin >> 6;
    const size_t last_word = (end - 1) >> 6;
    uint64_t word = words_[w] & (~uint64_t{0} << (begin & 63));
    for (;;) {
      if (w == last_word) word &= ~uint64_t{0} >> (63 - ((end - 1) & 63));
      while (word != 0) {
        fn(w * 64 + CountTrailingZeros64(word));
        word &= word - 1;  // clear lowest set bit
      }
      if (w == last_word) break;
      word = words_[++w];
    }
  }

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const Bitmap& a, const Bitmap& b) {
    return !(a == b);
  }

 private:
  /// Restores invariant 2 after whole-word mutations.
  void MaskTail() {
    if (num_bits_ % 64 != 0 && !words_.empty()) {
      words_.back() &= ~uint64_t{0} >> (64 - (num_bits_ & 63));
    }
  }

  std::vector<uint64_t> words_;
  size_t num_bits_ = 0;
};

}  // namespace culinary

#endif  // CULINARYLAB_COMMON_BITMAP_H_
