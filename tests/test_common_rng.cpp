// Tests for the counter-based RNG: determinism, stream independence,
// statistical sanity, and the sampling primitives the solvers depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/partition.hpp"

namespace rcf {
namespace {

TEST(Philox, KnownStructure) {
  // The block function must be a pure function of (counter, key).
  const auto a = Philox4x32::block({1, 2, 3, 4}, {5, 6});
  const auto b = Philox4x32::block({1, 2, 3, 4}, {5, 6});
  EXPECT_EQ(a, b);
  // Different counters / keys must give different blocks.
  EXPECT_NE(a, Philox4x32::block({1, 2, 3, 5}, {5, 6}));
  EXPECT_NE(a, Philox4x32::block({1, 2, 3, 4}, {5, 7}));
}

TEST(Rng, DeterministicPerSeedAndStream) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u32() == b.next_u32();
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, SeedsAreIndependent) {
  Rng a(1, 0), b(2, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u32() == b.next_u32();
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(123, 0);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(9, 0);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexUnbiased) {
  Rng rng(7, 0);
  constexpr std::uint64_t kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.uniform_index(kBuckets)];
  }
  for (auto c : counts) {
    EXPECT_NEAR(c, kN / kBuckets, 0.05 * kN / kBuckets);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(7, 0);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalMoments) {
  Rng rng(99, 0);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(99, 1);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(SampleWithoutReplacement, BasicContract) {
  Rng rng(5, 3);
  const auto sample = rng.sample_without_replacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (auto v : sample) {
    EXPECT_LT(v, 1000u);
  }
}

TEST(SampleWithoutReplacement, FullRange) {
  Rng rng(5, 3);
  const auto sample = rng.sample_without_replacement(50, 50);
  EXPECT_EQ(sample.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sample[i], i);  // sorted permutation of 0..49
  }
}

TEST(SampleWithoutReplacement, DenseAndSparseRegimesAgreeOnContract) {
  // count*3 >= n triggers Fisher-Yates; smaller counts use Floyd.
  for (std::uint64_t count : {5ull, 400ull}) {
    Rng rng(11, count);
    const auto sample = rng.sample_without_replacement(1000, count);
    EXPECT_EQ(sample.size(), count);
    std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
  }
}

TEST(SampleWithoutReplacement, CountZero) {
  Rng rng(5, 3);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
}

TEST(SampleWithoutReplacement, CountGreaterThanNThrows) {
  Rng rng(5, 3);
  EXPECT_THROW(rng.sample_without_replacement(10, 11), InvalidArgument);
}

TEST(SampleWithoutReplacement, UniformCoverage) {
  // Every index should be sampled with roughly equal frequency.
  constexpr std::uint64_t kN = 50, kCount = 10;
  std::vector<int> hits(kN, 0);
  constexpr int kTrials = 5000;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(13, static_cast<std::uint64_t>(t));
    for (auto v : rng.sample_without_replacement(kN, kCount)) {
      ++hits[v];
    }
  }
  const double expected = kTrials * static_cast<double>(kCount) / kN;
  for (auto h : hits) {
    EXPECT_NEAR(h, expected, 0.15 * expected);
  }
}

// ---------------------------------------------------------------------------
// Bitmap sampler against the hash-set sampler it replaced.  The reference
// below is that sampler verbatim (Floyd's algorithm over an unordered_set,
// partial Fisher-Yates when count * 3 >= n, then a sort), with its own copy
// of the original uniform_index, so the oracle does not share code with the
// sampler under test.  Every solver trajectory and golden fixture depends
// on the two producing the same indices from the same stream.
// ---------------------------------------------------------------------------

std::uint64_t reference_uniform_index(Rng& rng, std::uint64_t n) {
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

std::vector<std::uint32_t> reference_sample(Rng& rng, std::uint64_t n,
                                            std::uint64_t count) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  if (count == 0) {
    return out;
  }
  if (count * 3 >= n) {
    std::vector<std::uint32_t> pool(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      pool[i] = static_cast<std::uint32_t>(i);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t j = i + reference_uniform_index(rng, n - i);
      std::swap(pool[i], pool[j]);
    }
    out.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
  } else {
    std::unordered_set<std::uint32_t> chosen;
    chosen.reserve(count * 2);
    for (std::uint64_t j = n - count; j < n; ++j) {
      const auto t =
          static_cast<std::uint32_t>(reference_uniform_index(rng, j + 1));
      if (!chosen.insert(t).second) {
        chosen.insert(static_cast<std::uint32_t>(j));
      }
    }
    out.assign(chosen.begin(), chosen.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// (n, count) shapes covering both regimes and their boundary (count * 3
/// against n), count 0 and count = n, n not a multiple of 64, n = 2^k, and
/// the solver's tall shape.
const std::vector<std::pair<std::uint64_t, std::uint64_t>>& oracle_shapes() {
  static const std::vector<std::pair<std::uint64_t, std::uint64_t>> shapes = {
      {0, 0},      {1, 0},       {1, 1},        {10, 0},      {10, 10},
      {63, 5},     {64, 64},     {65, 3},       {100, 33},    {100, 34},
      {127, 42},   {128, 43},    {1000, 1},     {1000, 999},  {1024, 341},
      {1024, 342}, {4096, 4096}, {65536, 100},  {65536, 21845},
      {12345, 4115}, {200000, 20000}};
  return shapes;
}

TEST(SampleBitmapOracle, WrapperMatchesHashSetSamplerBitwise) {
  for (const auto& [n, count] : oracle_shapes()) {
    for (std::uint64_t stream = 0; stream < 6; ++stream) {
      Rng ref_rng(2024, stream), rng(2024, stream);
      const auto expected = reference_sample(ref_rng, n, count);
      EXPECT_EQ(rng.sample_without_replacement(n, count), expected)
          << "n=" << n << " count=" << count << " stream=" << stream;
      // Same uniform_index calls in the same order: the streams stay in
      // lockstep after the draw.
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64())
          << "n=" << n << " count=" << count << " stream=" << stream;
    }
  }
}

TEST(SampleBitmapOracle, ReusedScratchMatchesReferenceOnSharedStream) {
  // Consecutive draws on one stream (the step probe's pattern), through one
  // scratch buffer.
  Rng ref_rng(7, 0), rng(7, 0);
  SampleBitmap bitmap;
  std::vector<std::uint32_t> out;
  for (const auto& [n, count] : oracle_shapes()) {
    bitmap.draw(rng, n, count);
    bitmap.extract(0, n, out);
    EXPECT_EQ(out, reference_sample(ref_rng, n, count))
        << "n=" << n << " count=" << count;
  }
}

TEST(SampleBitmapOracle, RankRangesEqualFilteredGlobalSet) {
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> shapes = {
      {200000, 20000}, {1000, 100}, {130, 50}, {97, 0}, {64, 64}, {7, 3}};
  for (const auto& [n, count] : shapes) {
    Rng ref_rng(11, n), rng(11, n);
    const auto global = reference_sample(ref_rng, n, count);
    SampleBitmap bitmap;
    bitmap.draw(rng, n, count);
    std::vector<std::uint32_t> local;
    const auto expect_range = [&](std::uint64_t lo, std::uint64_t hi) {
      std::vector<std::uint32_t> filtered;
      for (const auto i : global) {
        if (i >= lo && i < hi) {
          filtered.push_back(static_cast<std::uint32_t>(i - lo));
        }
      }
      bitmap.extract(lo, hi, local);
      EXPECT_EQ(local, filtered) << "n=" << n << " count=" << count
                                 << " range=[" << lo << ", " << hi << ")";
    };
    // The SPMD row blocks.
    for (const int parts : {1, 2, 3, 4, 7}) {
      const data::Partition partition(n, parts);
      std::uint64_t covered = 0;
      for (int r = 0; r < parts; ++r) {
        expect_range(partition.begin(r), partition.end(r));
        bitmap.extract(partition.begin(r), partition.end(r), local);
        covered += local.size();
      }
      EXPECT_EQ(covered, count) << "n=" << n << " parts=" << parts;
    }
    // Word-unaligned bounds, single-word ranges and empty ranges.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, 0},  {0, 1},  {3, 9},   {5, 70}, {63, 64}, {63, 65},
        {64, 64}, {64, 128}, {1, 127}, {n, n}};
    for (const auto& [lo, hi] : ranges) {
      if (hi <= n) {
        expect_range(lo, hi);
      }
    }
    if (n > 0) {
      expect_range(n - 1, n);
      expect_range(n / 3, n - n / 5);
    }
  }
}

TEST(SampleBitmapOracle, ShrinkingDrawsLeaveNoStaleBits) {
  // A dense draw sets most bits of a large bitmap; each smaller draw through
  // the same scratch must see none of them.
  SampleBitmap bitmap;
  std::vector<std::uint32_t> out;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> shapes = {
      {200000, 150000}, {200000, 20000}, {5000, 100}, {130, 60},
      {65, 64},         {64, 1},          {10, 3},     {0, 0}};
  std::uint64_t stream = 0;
  for (const auto& [n, count] : shapes) {
    Rng ref_rng(3, stream), rng(3, stream);
    ++stream;
    bitmap.draw(rng, n, count);
    bitmap.extract(0, n, out);
    EXPECT_EQ(out, reference_sample(ref_rng, n, count))
        << "n=" << n << " count=" << count;
  }
}

TEST(SampleBitmapOracle, RejectsRangesOutsideTheDraw) {
  SampleBitmap bitmap;
  Rng rng(5, 3);
  bitmap.draw(rng, 100, 10);
  std::vector<std::uint32_t> out;
  EXPECT_THROW(bitmap.extract(0, 101, out), InvalidArgument);
  EXPECT_THROW(bitmap.extract(60, 50, out), InvalidArgument);
  EXPECT_THROW(bitmap.draw(rng, 10, 11), InvalidArgument);
}

TEST(SampleWithReplacement, Range) {
  Rng rng(21, 0);
  const auto sample = rng.sample_with_replacement(10, 1000);
  EXPECT_EQ(sample.size(), 1000u);
  for (auto v : sample) {
    EXPECT_LT(v, 10u);
  }
}

TEST(DeriveSeed, Decorrelates) {
  const auto a = derive_seed(42, 1);
  const auto b = derive_seed(42, 2);
  const auto c = derive_seed(43, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(42, 1));
}

TEST(Rng, UniformRandomBitGeneratorConcept) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  Rng rng(1, 2);
  std::vector<int> v{1, 2, 3, 4, 5};
  std::shuffle(v.begin(), v.end(), rng);  // must compile and terminate
  EXPECT_EQ(v.size(), 5u);
}

}  // namespace
}  // namespace rcf
