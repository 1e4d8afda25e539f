#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>

#include "common/statistics.hpp"
#include "core/tensor_core.hpp"
#include "core/vector_macro.hpp"

namespace {

using namespace ptc::core;

TEST(VectorMacro, DefaultsMatchPaperGeometry) {
  const VectorComputeMacro macro;
  EXPECT_EQ(tech_wdm_channels, 4u);
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
  std::vector<double> spectrum(tech_wdm_channels);
  double transmission = 1.0;
  for (std::size_t k = 0; k < tech_wdm_channels; ++k) {
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
  config.cols = tech_wdm_channels;
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

TEST(VectorMacro, RejectsBadConfig) {
  using Edit = void (*)(VectorMacroConfig&);
  const Edit edits[] = {
      [](VectorMacroConfig& c) { c.encoder_insertion_loss_db = -0.1; },
      [](VectorMacroConfig& c) { c.encoder_extinction_db = 0.0; },
      [](VectorMacroConfig& c) { c.splitter_excess_db = -0.1; },
      [](VectorMacroConfig& c) { c.comb_power_per_line = 0.0; },
      [](VectorMacroConfig& c) { c.comb_power_per_line = -1e-3; },
      [](VectorMacroConfig& c) { c.weight_bits = 0; },
      [](VectorMacroConfig& c) { c.weight_bits = 9; },
  };
  for (std::size_t i = 0; i < std::size(edits); ++i) {
    VectorMacroConfig config;
    edits[i](config);
    EXPECT_THROW(VectorComputeMacro{config}, std::invalid_argument)
        << "edit " << i;
  }
  // The bounds themselves are legal: a lossless encoder and splitter
  // cascade, and 8-bit weights.
  VectorMacroConfig edge;
  edge.encoder_insertion_loss_db = 0.0;
  edge.splitter_excess_db = 0.0;
  edge.weight_bits = 8;
  EXPECT_NO_THROW(VectorComputeMacro{edge});
  // A core builds its input path from its macro config too.
  TensorCoreConfig core;
  core.macro.encoder_extinction_db = 0.0;
  EXPECT_THROW(TensorCore{core}, std::invalid_argument);
}

TEST(InputPath, TapsAreTheClosedForm) {
  // Tap b of a channel encoding x is its comb line times the encoder's
  // transmission (insertion loss times a finite-extinction span
  // [floor, 1]) times b + 1 splitter stages, each 0.5 times its excess
  // loss: all from the dB figures, for the default macro and a lossier one.
  VectorMacroConfig lossy;
  lossy.comb_power_per_line = 1e-3;
  lossy.encoder_insertion_loss_db = 1.5;
  lossy.encoder_extinction_db = 12.0;
  lossy.splitter_excess_db = 0.4;
  for (const VectorMacroConfig& config : {VectorMacroConfig{}, lossy}) {
    const InputPath path(config);
    const double loss =
        std::pow(10.0, -config.encoder_insertion_loss_db / 10.0);
    const double floor = std::pow(10.0, -config.encoder_extinction_db / 10.0);
    const double tap_factor =
        0.5 * std::pow(10.0, -config.splitter_excess_db / 10.0);
    for (unsigned bits = 1; bits <= 8; ++bits) {
      for (const double x : {0.0, 0.5, 1.0}) {
        // Stride 2: the taps land in every other slot.
        std::vector<double> out(2 * bits, -1.0);
        path.taps(x, bits, out.data(), 2);
        for (unsigned b = 0; b < bits; ++b) {
          const double expected = config.comb_power_per_line *
                                  (loss * (floor + (1.0 - floor) * x)) *
                                  std::pow(tap_factor, b + 1);
          EXPECT_NEAR(out[2 * b], expected, 1e-12 * expected)
              << bits << " bits, x = " << x << ", tap " << b;
          EXPECT_EQ(out[2 * b + 1], -1.0) << bits << " bits, tap " << b;
        }
      }
    }
    double out[1];
    EXPECT_THROW(path.taps(1.5, 1, out, 1), std::invalid_argument);
    EXPECT_THROW(path.taps(-0.1, 1, out, 1), std::invalid_argument);
  }
  // The comb lines sit on the paper's WDM grid: 1310 nm, 2.33 nm apart.
  EXPECT_DOUBLE_EQ(channel_wavelength(0), 1310e-9);
  for (std::size_t ch = 1; ch < tech_wdm_channels; ++ch) {
    EXPECT_NEAR(channel_wavelength(ch) - channel_wavelength(ch - 1), 2.33e-9,
                1e-15)
        << "channel " << ch;
  }
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
