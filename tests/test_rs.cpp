// Reed-Solomon code: decode from every k-subset, and the RsRegenerating
// adapter (repair-by-decoding) used for the Remark 1 ablation.
#include <gtest/gtest.h>

#include "codes/rs.h"
#include "common/rng.h"

namespace lds::codes {
namespace {

class RsParamTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RsParamTest, DecodeFromEveryKSubset) {
  const auto [n, k] = GetParam();
  RsCode code(static_cast<std::size_t>(n), static_cast<std::size_t>(k));
  Rng rng(42);
  const Bytes stripe = rng.bytes(static_cast<std::size_t>(k));
  const auto elems = code.encode(stripe);
  ASSERT_EQ(elems.size(), static_cast<std::size_t>(n));

  std::vector<int> subset(static_cast<std::size_t>(k));
  std::function<void(int, int)> rec = [&](int start, int depth) {
    if (depth == k) {
      std::vector<IndexedBytes> input;
      for (int idx : subset) input.emplace_back(idx, elems[idx]);
      auto decoded = code.decode(input);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, stripe);
      return;
    }
    for (int i = start; i <= n - (k - depth); ++i) {
      subset[static_cast<std::size_t>(depth)] = i;
      rec(i + 1, depth + 1);
    }
  };
  rec(0, 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, RsParamTest,
                         ::testing::Values(std::tuple{4, 2}, std::tuple{5, 3},
                                           std::tuple{6, 4}, std::tuple{7, 3},
                                           std::tuple{8, 5}, std::tuple{9, 1}));

TEST(Rs, EncodeOneMatchesEncode) {
  RsCode code(9, 4);
  Rng rng(1);
  const Bytes stripe = rng.bytes(4);
  const auto elems = code.encode(stripe);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(code.encode_one(stripe, i), elems[static_cast<std::size_t>(i)]);
  }
}

TEST(Rs, DecodeRejectsTooFewElements) {
  RsCode code(6, 3);
  Rng rng(2);
  const Bytes stripe = rng.bytes(3);
  const auto elems = code.encode(stripe);
  std::vector<IndexedBytes> two{{0, elems[0]}, {1, elems[1]}};
  EXPECT_FALSE(code.decode(two).has_value());
}

TEST(Rs, DecodeIgnoresDuplicatesAndJunkIndices) {
  RsCode code(6, 3);
  Rng rng(3);
  const Bytes stripe = rng.bytes(3);
  const auto elems = code.encode(stripe);
  std::vector<IndexedBytes> input{
      {0, elems[0]}, {0, elems[0]},   // duplicate index
      {-1, elems[1]}, {17, elems[2]}, // out of range
      {2, elems[2]}, {4, elems[4]},
  };
  auto decoded = code.decode(input);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, stripe);
}

TEST(Rs, InvalidParametersAbort) {
  EXPECT_DEATH(RsCode(3, 4), "k <= n");
  EXPECT_DEATH(RsCode(0, 0), "1 <= k");
}

TEST(RsRegenerating, RepairEqualsOriginalElement) {
  RsRegenerating code(7, 3);
  Rng rng(4);
  const Bytes stripe = rng.bytes(3);
  const auto elems = code.encode(stripe);
  for (int target = 0; target < 7; ++target) {
    // Helpers: the k elements after the target (cyclically).
    std::vector<IndexedBytes> helpers;
    for (int j = 1; helpers.size() < code.d(); ++j) {
      const int h = (target + j) % 7;
      helpers.emplace_back(
          h, code.helper_data(h, elems[static_cast<std::size_t>(h)], target));
    }
    auto repaired = code.repair(target, helpers);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(*repaired, elems[static_cast<std::size_t>(target)]);
  }
}

TEST(RsRegenerating, RepairSkipsAHelperClaimingTheTarget) {
  // Helpers must not include target_index; a corrupted copy of the lost
  // element passed among them is skipped, as every other code skips it.
  RsRegenerating code(7, 3);
  Rng rng(5);
  const Bytes stripe = rng.bytes(3);
  const auto elems = code.encode(stripe);
  const int target = 2;
  std::vector<IndexedBytes> helpers;
  for (int h : {4, 5, 6}) {
    helpers.emplace_back(
        h, code.helper_data(h, elems[static_cast<std::size_t>(h)], target));
  }
  const auto clean = code.repair(target, helpers);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(*clean, elems[static_cast<std::size_t>(target)]);

  Bytes corrupted = elems[static_cast<std::size_t>(target)];
  corrupted[0] ^= 0x5a;
  std::vector<IndexedBytes> with_target{{target, corrupted}};
  with_target.insert(with_target.end(), helpers.begin(), helpers.end());
  const auto repaired = code.repair(target, with_target);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, *clean);
}

TEST(RsRegenerating, HelperIsFullElement) {
  // The whole point of the Remark-1 ablation: at the RS/MSR point a helper
  // ships alpha = beta symbols, i.e. repair bandwidth = k * beta = B.
  RsRegenerating code(7, 3);
  EXPECT_EQ(code.beta(), code.alpha());
  EXPECT_EQ(code.d(), code.k());
}

}  // namespace
}  // namespace lds::codes
