#include <gtest/gtest.h>

#include <cmath>

#include "common/statistics.hpp"
#include "core/tensor_core.hpp"
#include "core/vector_macro.hpp"

namespace {

using namespace ptc::core;

TEST(VectorMacro, DefaultsMatchPaperGeometry) {
  const VectorComputeMacro macro;
  EXPECT_EQ(macro.channels(), 4u);
  EXPECT_EQ(macro.weight_bits(), 3u);
  EXPECT_EQ(macro.max_weight(), 7u);
}

TEST(VectorMacro, ZeroWeightsGiveNearZeroOutput) {
  VectorComputeMacro macro;
  macro.load_weights({0, 0, 0, 0});
  const auto result = macro.multiply({1.0, 1.0, 1.0, 1.0});
  // Only extinction-floor leakage remains.
  EXPECT_LT(result.normalized, 0.02);
}

TEST(VectorMacro, FullScaleIsUnity) {
  VectorComputeMacro macro;
  macro.load_weights({7, 7, 7, 7});
  const auto result = macro.multiply({1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(result.normalized, 1.0, 1e-9);  // self-calibrated
}

TEST(VectorMacro, ZeroInputGivesNearZero) {
  VectorComputeMacro macro;
  macro.load_weights({7, 7, 7, 7});
  const auto result = macro.multiply({0.0, 0.0, 0.0, 0.0});
  EXPECT_LT(result.normalized, 0.01);  // encoder extinction floor only
}

class OneBitProducts
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(OneBitProducts, BinaryWeightVectorsActAsMasks) {
  const auto [w0, w1, w2, w3] = GetParam();
  VectorMacroConfig config;
  config.weight_bits = 1;
  VectorComputeMacro macro(config);
  macro.load_weights({static_cast<std::uint32_t>(w0),
                      static_cast<std::uint32_t>(w1),
                      static_cast<std::uint32_t>(w2),
                      static_cast<std::uint32_t>(w3)});
  const std::vector<double> in{1.0, 1.0, 1.0, 1.0};
  const auto result = macro.multiply(in);
  const double expected = macro.ideal_normalized(in);
  EXPECT_NEAR(result.normalized, expected, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    AllMasks, OneBitProducts,
    ::testing::Values(std::make_tuple(0, 0, 0, 0), std::make_tuple(1, 0, 0, 0),
                      std::make_tuple(0, 1, 0, 0), std::make_tuple(0, 0, 1, 0),
                      std::make_tuple(0, 0, 0, 1), std::make_tuple(1, 1, 0, 0),
                      std::make_tuple(1, 0, 1, 0), std::make_tuple(0, 1, 0, 1),
                      std::make_tuple(1, 1, 1, 1)));

class WeightSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WeightSweep, SingleChannelWeightScaling) {
  // Channel 0 carries the weight under test; all inputs on channel 0 only.
  const std::uint32_t w = GetParam();
  VectorComputeMacro macro;
  macro.load_weights({w, 0, 0, 0});
  const std::vector<double> in{1.0, 0.0, 0.0, 0.0};
  const auto result = macro.multiply(in);
  EXPECT_NEAR(result.normalized, macro.ideal_normalized(in), 0.015)
      << "weight " << w;
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(VectorMacro, MixedVectorAgainstIdeal) {
  VectorComputeMacro macro;
  macro.load_weights({7, 3, 5, 1});
  const std::vector<double> in{1.0, 0.5, 0.25, 0.8};
  const auto result = macro.multiply(in);
  EXPECT_NEAR(result.normalized, macro.ideal_normalized(in), 0.01);
}

TEST(VectorMacro, LinearityAcrossInputScale) {
  // Fig. 7's core claim: the normalized photocurrent tracks the ideal
  // vector product linearly.
  VectorComputeMacro macro;
  macro.load_weights({6, 2, 7, 4});
  std::vector<double> ideals, measured;
  for (double scale = 0.0; scale <= 1.0; scale += 0.05) {
    const std::vector<double> in{scale, scale * 0.7, scale * 0.4, scale};
    ideals.push_back(macro.ideal_normalized(in));
    measured.push_back(macro.multiply(in).normalized);
  }
  const auto fit = ptc::linear_fit(ideals, measured);
  EXPECT_GT(fit.r_squared, 0.999);
  EXPECT_NEAR(fit.slope, 1.0, 0.05);
}

TEST(VectorMacro, PerBitCurrentsAreBinaryWeighted) {
  VectorComputeMacro macro;
  macro.load_weights({7, 7, 7, 7});  // all bits set
  const auto result = macro.multiply({1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(result.per_bit_current.size(), 3u);
  // MSB row carries IN/2, next IN/4, LSB IN/8 -> 2:1 ratios between rows,
  // times the 0.1 dB excess loss of the extra splitter stage (x1.0233).
  const double expected_ratio = 2.0 * std::pow(10.0, 0.01);
  EXPECT_NEAR(result.per_bit_current[0] / result.per_bit_current[1],
              expected_ratio, 0.01);
  EXPECT_NEAR(result.per_bit_current[1] / result.per_bit_current[2],
              expected_ratio, 0.01);
}

/// Transmission of channel `ch` through bit row `row`'s ring chain when
/// the rings store `bits` (ring k at bits[k]): the product of the rings'
/// spectra in ring order from 1.0, as multiply() builds it.
double chain(const VectorComputeMacro& macro, unsigned row,
             const std::vector<bool>& bits, std::size_t ch) {
  std::vector<double> spectrum(macro.channels());
  double transmission = 1.0;
  for (std::size_t k = 0; k < macro.channels(); ++k) {
    macro.ring_spectrum(row, k, bits[k], spectrum);
    transmission *= spectrum[ch];
  }
  return transmission;
}

TEST(VectorMacro, CrosstalkOnOtherChannelsIsSmall) {
  const VectorComputeMacro macro;
  // Channel 0's ring on resonance; channels 1..3 pass nearly intact.  The
  // chain includes each channel's *own* off-state ring (~0.97 insertion),
  // so the crosstalk added by the resonant ring 0 must be the small part.
  const std::vector<bool> ring0_on{false, true, true, true};
  for (std::size_t ch = 1; ch < 4; ++ch) {
    for (unsigned row = 0; row < 3; ++row) {
      EXPECT_GT(chain(macro, row, ring0_on, ch), 0.95)
          << "row " << row << " channel " << ch;
    }
  }
  // Isolate ring 0's contribution: with all weights passing, the chain
  // changes by well under 1% when ring 0 goes on resonance.
  const double before = chain(macro, 0, ring0_on, 1);
  const double after = chain(macro, 0, {true, true, true, true}, 1);
  EXPECT_NEAR(before / after, 1.0, 0.01);
}

TEST(VectorMacro, MultiplyIsTheRingSpectraChain) {
  // The physics walk evaluates each ring once per bit row and multiplies
  // its spectrum into every channel's chain in ring order.  Under an
  // all-ones input every channel of a bit row carries the same tap power,
  // so each row's current is that power times the row's summed chain
  // transmission, and adjacent rows' powers differ by one splitter stage.
  VectorMacroConfig config;
  config.weight_bits = 6;
  config.variation.seed = 42;
  VectorComputeMacro macro(config);
  macro.set_temperature_offset(1.5);
  const std::vector<std::uint32_t> words{5, 63, 0, 42};
  macro.load_weights(words);
  const auto result = macro.multiply({1.0, 1.0, 1.0, 1.0});
  const VectorComputeMacro cold(config);  // the same die at detuning 0
  std::vector<double> tap(6);
  for (unsigned row = 0; row < 6; ++row) {
    std::vector<bool> bits;
    for (const std::uint32_t w : words) bits.push_back((w >> (5 - row)) & 1u);
    double sum = 0.0;
    double cold_sum = 0.0;
    for (std::size_t ch = 0; ch < 4; ++ch) {
      sum += chain(macro, row, bits, ch);
      cold_sum += chain(cold, row, bits, ch);
    }
    tap[row] = result.per_bit_current[row] / sum;
    // The macro holds the detuning: its rings see it, the cold die's not.
    EXPECT_NE(sum, cold_sum) << "row " << row;
  }
  for (unsigned row = 1; row < 6; ++row) {
    EXPECT_NEAR(tap[row - 1] / tap[row], 2.0 * std::pow(10.0, 0.01), 1e-12)
        << "row " << row;
  }
}

TEST(VectorMacro, WdmChannelsComputeIndependently) {
  VectorComputeMacro macro;
  macro.load_weights({7, 7, 0, 0});
  // Only channel 1 illuminated: result equals channel 1's share.
  const std::vector<double> in{0.0, 1.0, 0.0, 0.0};
  const auto result = macro.multiply(in);
  EXPECT_NEAR(result.normalized, macro.ideal_normalized(in), 0.015);
}

TEST(VectorMacro, CombWallPower) {
  // The core bills the comb lines of its macros: a core one macro wide
  // draws 4 lines x 2.2 mW / 0.23.
  TensorCoreConfig config;
  config.cols = config.macro.channels;
  const TensorCore core(config);
  EXPECT_NEAR(core.breakdown().comb_laser * 1e3, 38.26, 0.1);
}

TEST(VectorMacro, RejectsBadUsage) {
  VectorComputeMacro macro;
  EXPECT_THROW(macro.load_weights({1, 2}), std::invalid_argument);
  EXPECT_THROW(macro.load_weights({8, 0, 0, 0}), std::invalid_argument);
  macro.load_weights({1, 1, 1, 1});
  EXPECT_THROW(macro.multiply({1.0}), std::invalid_argument);
  EXPECT_THROW(macro.multiply({2.0, 0.0, 0.0, 0.0}), std::invalid_argument);
}

TEST(VectorMacro, FiveBitPrecisionStillLinear) {
  VectorMacroConfig config;
  config.weight_bits = 5;
  VectorComputeMacro macro(config);
  macro.load_weights({31, 17, 9, 25});
  const std::vector<double> in{0.9, 0.3, 0.6, 0.1};
  EXPECT_NEAR(macro.multiply(in).normalized, macro.ideal_normalized(in), 0.01);
}

}  // namespace
