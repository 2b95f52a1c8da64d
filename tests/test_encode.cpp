#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "encode/lexicode.h"

namespace scfi::encode {
namespace {

TEST(Lexicode, SingleCodeword) {
  const Code c = generate_code({.count = 1, .min_distance = 3});
  EXPECT_EQ(c.words.size(), 1u);
}

TEST(Lexicode, DistanceHolds) {
  for (int d = 2; d <= 5; ++d) {
    const Code c = generate_code({.count = 12, .min_distance = d});
    EXPECT_EQ(c.words.size(), 12u);
    EXPECT_GE(min_pairwise_distance(c.words, c.width), d) << "d=" << d;
  }
}

TEST(Lexicode, MinWeightHolds) {
  const Code c = generate_code({.count = 10, .min_distance = 3, .min_weight = 3});
  for (const std::uint64_t w : c.words) {
    EXPECT_GE(std::popcount(w), 3);
  }
}

TEST(Lexicode, MinWeightKeepsDistanceToZeroWord) {
  // With min_weight = N, the all-zero ERROR state is at distance >= N from
  // every codeword — the property SCFI relies on.
  const Code c = generate_code({.count = 20, .min_distance = 4, .min_weight = 4});
  for (const std::uint64_t w : c.words) EXPECT_GE(std::popcount(w), 4);
  EXPECT_GE(min_pairwise_distance(c.words, c.width), 4);
}

TEST(Lexicode, ForbidAllOnes) {
  const Code c =
      generate_code({.count = 3, .min_distance = 1, .width = 2, .forbid_all_ones = true});
  for (const std::uint64_t w : c.words) EXPECT_NE(w, 3u);
}

TEST(Lexicode, DistanceOneIsCounting) {
  const Code c = generate_code({.count = 8, .min_distance = 1});
  EXPECT_EQ(c.width, 3);
}

TEST(Lexicode, FixedWidthInfeasibleThrows) {
  EXPECT_THROW(generate_code({.count = 10, .min_distance = 3, .width = 4}), ScfiError);
}

TEST(Lexicode, HammingParameters) {
  // The greedy lexicode achieves the Hamming(7,4) parameters: 16 codewords,
  // distance 3, width 7.
  const Code c = generate_code({.count = 16, .min_distance = 3});
  EXPECT_EQ(c.width, 7);
}

TEST(Lexicode, SingletonFloor) {
  EXPECT_EQ(singleton_floor(16, 3), 6);
  EXPECT_EQ(singleton_floor(2, 4), 4);
}

TEST(Lexicode, MinPairwiseDistanceExact) {
  EXPECT_EQ(min_pairwise_distance({0b000, 0b011, 0b101}, 3), 2);
  EXPECT_EQ(min_pairwise_distance({0b1111}, 4), 4);
}

/// The greedy scan of one width from scratch: candidates [0, 2^width) in
/// order, stopping at `cap` words.
std::vector<std::uint64_t> greedy_at_width(const CodeSpec& spec, int width, std::size_t cap) {
  std::vector<std::uint64_t> words;
  const std::uint64_t space = 1ULL << width;
  for (std::uint64_t cand = 0; cand < space && words.size() < cap; ++cand) {
    if (std::popcount(cand) < spec.min_weight) continue;
    if (spec.forbid_all_ones && cand == space - 1) continue;
    const bool ok = std::all_of(words.begin(), words.end(), [&](std::uint64_t w) {
      return std::popcount(cand ^ w) >= spec.min_distance;
    });
    if (ok) words.push_back(cand);
  }
  return words;
}

TEST(Lexicode, ResumedScanMatchesPerWidthReference) {
  // generate_code resumes a failed width's scan at the next width; the
  // reference scans every width afresh from the same start width and takes
  // the first that holds `count` words. One capped scan per width serves
  // every count (its first `count` words are the count-capped scan).
  constexpr int kMaxCount = 80;
  for (const bool forbid_all_ones : {false, true}) {
    for (int d = 1; d <= 6; ++d) {
      for (int min_weight = 0; min_weight <= 2; ++min_weight) {
        CodeSpec spec{.min_distance = d, .min_weight = min_weight,
                      .forbid_all_ones = forbid_all_ones};
        std::vector<std::vector<std::uint64_t>> scans;  // [width] -> capped scan
        const auto scan = [&](int width) -> const std::vector<std::uint64_t>& {
          while (static_cast<int>(scans.size()) <= width) {
            scans.push_back(greedy_at_width(spec, static_cast<int>(scans.size()), kMaxCount));
          }
          return scans[static_cast<std::size_t>(width)];
        };
        for (int count = 1; count <= kMaxCount; ++count) {
          spec.count = count;
          int width = std::max(singleton_floor(count, d), min_weight);
          while (static_cast<int>(scan(width).size()) < count) ++width;
          const std::vector<std::uint64_t>& ref = scan(width);
          const Code got = generate_code(spec);
          const std::string label = "count=" + std::to_string(count) + " d=" +
                                    std::to_string(d) + " min_weight=" +
                                    std::to_string(min_weight) +
                                    " forbid_all_ones=" + std::to_string(forbid_all_ones);
          ASSERT_EQ(got.width, width) << label;
          ASSERT_EQ(got.words, std::vector<std::uint64_t>(ref.begin(), ref.begin() + count))
              << label;
        }
      }
    }
  }
}

class LexicodeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LexicodeSweep, DistanceAndWeightInvariants) {
  const auto [count, dist] = GetParam();
  const Code c = generate_code(
      {.count = count, .min_distance = dist, .min_weight = dist});
  ASSERT_EQ(static_cast<int>(c.words.size()), count);
  EXPECT_GE(min_pairwise_distance(c.words, c.width), dist);
  for (const std::uint64_t w : c.words) {
    EXPECT_GE(std::popcount(w), dist);
    EXPECT_LT(w, 1ULL << c.width);
  }
}

INSTANTIATE_TEST_SUITE_P(CountsAndDistances, LexicodeSweep,
                         ::testing::Combine(::testing::Values(2, 5, 9, 14, 26, 40),
                                            ::testing::Values(2, 3, 4)));

}  // namespace
}  // namespace scfi::encode
