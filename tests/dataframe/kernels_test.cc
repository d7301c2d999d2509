// Property tests for the dictionary-code mask kernel.
//
// The contract under test: CompareCodeEq sets bit i of the mask exactly
// when codes[i] == code (codes[i] != code for Ne), over whole 64-row words
// and the sub-word tail alike, leaves words outside [begin, end) untouched
// and zeroes the bits past `end` in the last word. Every case is checked
// against a per-row reference.

#include "dataframe/kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace culinary::df::kernels {
namespace {

constexpr uint64_t kGarbage = 0xDEADBEEFDEADBEEFull;

std::vector<uint64_t> GarbageMask(size_t rows) {
  return std::vector<uint64_t>((rows + 63) / 64, kGarbage);
}

/// Random codes in [-1, kCardinality): -1 is the null sentinel the
/// dictionary column stores for null rows, so it is a first-class input.
std::vector<int32_t> RandomCodes(size_t rows, uint64_t seed) {
  constexpr uint64_t kCardinality = 5;
  culinary::Rng rng(seed);
  std::vector<int32_t> codes(rows);
  for (size_t i = 0; i < rows; ++i) {
    codes[i] = static_cast<int32_t>(rng.NextBounded(kCardinality + 1)) - 1;
  }
  return codes;
}

/// The mask CompareCodeEq must produce over rows [begin, codes.size()),
/// one row at a time: words below `begin` keep their garbage, bits past
/// the last row are zero.
std::vector<uint64_t> ReferenceMask(const std::vector<int32_t>& codes,
                                    int32_t code, bool negate, size_t begin) {
  std::vector<uint64_t> mask = GarbageMask(codes.size());
  for (size_t w = begin / 64; w < mask.size(); ++w) mask[w] = 0;
  for (size_t i = begin; i < codes.size(); ++i) {
    if ((codes[i] == code) != negate) mask[i / 64] |= uint64_t{1} << (i % 64);
  }
  return mask;
}

/// The property: for every (size, code, negate) the kernel matches the
/// per-row reference word for word, tail bits included.
void CheckMatchesReference(const std::vector<int32_t>& codes, int32_t code,
                           bool negate) {
  const size_t rows = codes.size();
  std::vector<uint64_t> mask = GarbageMask(rows);
  CompareCodeEq(codes.data(), code, negate, 0, rows, mask.data());
  EXPECT_EQ(mask, ReferenceMask(codes, code, negate, 0))
      << "rows=" << rows << " code=" << code << " negate=" << negate;

  // Tail hygiene: bits at positions >= rows in the last word must be zero,
  // even for Ne (whose full-word flip would set them if unmasked).
  if ((rows & 63) != 0 && !mask.empty()) {
    const uint64_t past_end = mask.back() >> (rows & 63);
    EXPECT_EQ(past_end, 0u) << "rows=" << rows << " negate=" << negate;
  }
}

TEST(CompareCodeEqTest, WordBoundarySizes) {
  // 63/64/65 straddle the one-word boundary between the full-word loop and
  // the sub-word tail; the larger sizes cross block multiples.
  for (const size_t rows : {size_t{1}, size_t{7}, size_t{63}, size_t{64},
                            size_t{65}, size_t{128}, size_t{1000},
                            size_t{4096}, size_t{4161}}) {
    const std::vector<int32_t> codes = RandomCodes(rows, /*seed=*/rows + 1);
    for (const int32_t code : {-1, 0, 2, 99}) {
      CheckMatchesReference(codes, code, /*negate=*/false);
      CheckMatchesReference(codes, code, /*negate=*/true);
    }
  }
}

TEST(CompareCodeEqTest, AllNullBlocks) {
  // A fully-null run (every code -1): Eq against -1 selects everything,
  // Eq against a real code selects nothing, and Ne inverts both exactly.
  for (const size_t rows : {size_t{63}, size_t{64}, size_t{65}, size_t{640}}) {
    const std::vector<int32_t> codes(rows, -1);
    for (const int32_t code : {-1, 0, 3}) {
      CheckMatchesReference(codes, code, /*negate=*/false);
      CheckMatchesReference(codes, code, /*negate=*/true);
    }
    // Spot-check the absolute values, not just reference agreement.
    std::vector<uint64_t> mask = GarbageMask(rows);
    CompareCodeEq(codes.data(), -1, /*negate=*/false, 0, rows, mask.data());
    size_t set_bits = 0;
    for (uint64_t w : mask) set_bits += static_cast<size_t>(__builtin_popcountll(w));
    EXPECT_EQ(set_bits, rows);
    CompareCodeEq(codes.data(), 7, /*negate=*/false, 0, rows, mask.data());
    for (uint64_t w : mask) EXPECT_EQ(w, 0u);
  }
}

TEST(CompareCodeEqTest, NonZeroBeginBlock) {
  // Kernels are handed block-aligned sub-ranges by the parallel evaluator;
  // begin=64 must index rows (and mask words) from the same origin.
  const size_t rows = 200;
  const std::vector<int32_t> codes = RandomCodes(rows, /*seed=*/42);
  std::vector<uint64_t> mask = GarbageMask(rows);
  CompareCodeEq(codes.data(), 1, /*negate=*/true, 64, rows, mask.data());
  // Word 0 covers rows [0, 64) — outside the range, so it keeps garbage.
  EXPECT_EQ(mask[0], kGarbage);
  EXPECT_EQ(mask, ReferenceMask(codes, 1, /*negate=*/true, 64));
}

}  // namespace
}  // namespace culinary::df::kernels
