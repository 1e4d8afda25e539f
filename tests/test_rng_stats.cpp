#include <gtest/gtest.h>

#include "common/interp.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"

namespace {

using namespace ptc;

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool any_differ = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(Rng, UniformRangeAndMoments) {
  Rng rng(7);
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
  EXPECT_NEAR(stddev(xs), 0.2887, 0.01);
}

TEST(Rng, UniformIntervalRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 3.0);
  }
  EXPECT_THROW(rng.uniform(3.0, -2.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  std::vector<double> xs(40000);
  for (auto& x : xs) x = rng.normal(1.5, 2.0);
  EXPECT_NEAR(mean(xs), 1.5, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(3);
  std::size_t hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.02);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ExponentialMomentsAndPositivity) {
  Rng rng(13);
  std::vector<double> xs(40000);
  for (auto& x : xs) {
    x = rng.exponential(4.0);
    ASSERT_GE(x, 0.0);
  }
  EXPECT_NEAR(mean(xs), 0.25, 0.005);    // mean = 1 / rate
  EXPECT_NEAR(stddev(xs), 0.25, 0.005);  // sigma = 1 / rate
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ExponentialSequenceIsPinned) {
  // Regression anchor for the Poisson arrival sampling: the serve layer's
  // request traces are reproducible only while this sequence holds.
  Rng rng(42);
  const double golden[6] = {0.043794665291708786, 0.2381961975393862,
                            0.56978497592693877,  1.2930907304934212,
                            2.4020492950781831,   0.7342719152251117};
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(rng.exponential(2.0), golden[i], 1e-12) << "draw " << i;
  }
}

TEST(Rng, BelowCoversRangeWithoutBias) {
  Rng rng(5);
  std::vector<std::size_t> counts(7, 0);
  for (int i = 0; i < 14000; ++i) ++counts[rng.below(7)];
  for (auto c : counts) EXPECT_NEAR(static_cast<double>(c), 2000.0, 250.0);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(RngSplit, ChildStreamsArePinnedAcrossPlatforms) {
  // Regression anchor for the per-core seeding discipline: these constants
  // must never change, or every multi-core Monte-Carlo variation run loses
  // reproducibility against recorded results.
  const Rng parent(42);
  const std::uint64_t golden[3][4] = {
      {0x2c864d845e390bbaull, 0xa13ef7b2dace8faaull, 0x78754c2afaaf7566ull,
       0x2fc0d073127d7e86ull},  // stream 0
      {0xbae27b300e60353eull, 0x2ce73fb75e354df4ull, 0x93f48078c8530ba2ull,
       0x0599dcc8cbea20f8ull},  // stream 1
      {0xffa2487fdd970270ull, 0xefa866d84353ee5eull, 0x7ac54da406f8738bull,
       0x159c0cbbf290bb72ull},  // stream 7
  };
  const std::uint64_t streams[3] = {0, 1, 7};
  for (int s = 0; s < 3; ++s) {
    Rng child = parent.split(streams[s]);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(child.next_u64(), golden[s][i])
          << "stream " << streams[s] << " draw " << i;
    }
  }
}

TEST(RngSplit, DoesNotAdvanceTheParent) {
  Rng split_parent(42);
  (void)split_parent.split(3);
  (void)split_parent.split(4);
  Rng fresh(42);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(split_parent.next_u64(), fresh.next_u64());
  }
}

TEST(RngSplit, StreamsAreDecorrelatedAndDeterministic) {
  const Rng parent(7);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  Rng a_again = parent.split(0);
  bool any_differ = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next_u64();
    if (va != b.next_u64()) any_differ = true;
    EXPECT_EQ(va, a_again.next_u64());
  }
  EXPECT_TRUE(any_differ);

  // Child moments stay healthy (uniformity survives the derivation).
  Rng child = parent.split(1234);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = child.uniform();
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(Interp, LerpAndLinspace) {
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, 0.25), 2.5);
  const auto grid = linspace(1.0, 2.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 1.0);
  EXPECT_DOUBLE_EQ(grid.back(), 2.0);
  EXPECT_DOUBLE_EQ(grid[2], 1.5);
  EXPECT_EQ(linspace(3.0, 4.0, 1).size(), 1u);
}

TEST(Interp, TableLookupClampsAndInterpolates) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{0.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(interp_table(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_table(xs, ys, 1.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_table(xs, ys, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(interp_table(xs, ys, 5.0), 0.0);
  EXPECT_THROW(interp_table({1.0}, {2.0}, 0.0), std::invalid_argument);
}

TEST(Statistics, BasicDescriptives) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.29099, 1e-5);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
  EXPECT_NEAR(rms(xs), 2.7386, 1e-4);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Statistics, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(0.1 * i);
    ys.push_back(3.0 * 0.1 * i - 1.0);
  }
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Statistics, LinearFitR2DropsWithNoise) {
  Rng rng(11);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(0.05 * i);
    ys.push_back(2.0 * xs.back() + rng.normal(0.0, 1.0));
  }
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.2);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.8);
}

}  // namespace
