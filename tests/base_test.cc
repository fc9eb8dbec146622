#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/base/math_util.h"
#include "src/base/rng.h"
#include "src/base/status.h"

namespace krx {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad register");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad register");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kPermissionDenied); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // overwhelmingly likely for a 10-element shuffle
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, BoolProbabilityExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(17);
  Rng b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

TEST(MathUtil, PermutationEntropy) {
  EXPECT_DOUBLE_EQ(PermutationEntropyBits(0), 0.0);
  EXPECT_DOUBLE_EQ(PermutationEntropyBits(1), 0.0);
  EXPECT_NEAR(PermutationEntropyBits(2), 1.0, 1e-9);              // lg(2!)
  EXPECT_NEAR(PermutationEntropyBits(4), std::log2(24.0), 1e-9);  // lg(4!)
}

TEST(MathUtil, BlocksForEntropy) {
  // The paper's default k = 30 needs 13 permutable blocks (lg(13!) ~ 32.5).
  EXPECT_EQ(BlocksForEntropyBits(30), 13u);
  EXPECT_EQ(BlocksForEntropyBits(0), 1u);
  for (double bits : {1.0, 8.0, 16.0, 40.0}) {
    uint64_t b = BlocksForEntropyBits(bits);
    EXPECT_GE(PermutationEntropyBits(b), bits);
    EXPECT_LT(PermutationEntropyBits(b - 1), bits);
  }
}

TEST(MathUtil, AlignUp) {
  EXPECT_EQ(AlignUp(0, 16), 0u);
  EXPECT_EQ(AlignUp(1, 16), 16u);
  EXPECT_EQ(AlignUp(16, 16), 16u);
  EXPECT_EQ(AlignUp(4097, 4096), 8192u);
  EXPECT_TRUE(IsAligned(8192, 4096));
  EXPECT_FALSE(IsAligned(8193, 4096));
}

TEST(MathUtil, OverheadPercent) {
  EXPECT_DOUBLE_EQ(OverheadPercent(100, 150), 50.0);
  EXPECT_DOUBLE_EQ(OverheadPercent(0, 10), 0.0);
}

}  // namespace
}  // namespace krx
