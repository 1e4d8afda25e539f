#include <gtest/gtest.h>

#include "adc/flash_adc.hpp"
#include "adc/ideal_adc.hpp"
#include "adc/time_interleaved.hpp"

namespace {

using namespace ptc::adc;

TEST(IdealAdc, QuantizesAndReconstructs) {
  const IdealAdc adc(3, 4.0);
  EXPECT_DOUBLE_EQ(adc.lsb(), 0.5);
  EXPECT_EQ(adc.convert(0.0), 0u);
  EXPECT_EQ(adc.convert(0.49), 0u);
  EXPECT_EQ(adc.convert(0.51), 1u);
  EXPECT_EQ(adc.convert(3.99), 7u);
  EXPECT_EQ(adc.convert(10.0), 7u);   // clamps
  EXPECT_EQ(adc.convert(-1.0), 0u);
  EXPECT_NEAR(adc.reconstruct(3), 1.75, 1e-12);
  EXPECT_THROW(adc.reconstruct(8), std::invalid_argument);
}

TEST(FlashAdc, EveryComparatorFiresEveryConversion) {
  // The power problem the 1-hot eoADC avoids: 2^p - 1 activations/conv.
  FlashAdc flash;
  EXPECT_EQ(flash.activations_per_conversion(), 7u);
  FlashAdcConfig config;
  config.bits = 6;
  const FlashAdc big(config);
  EXPECT_EQ(big.activations_per_conversion(), 63u);
}

TEST(FlashAdc, PowerScalesExponentiallyWithBits) {
  FlashAdcConfig c3;
  c3.bits = 3;
  FlashAdcConfig c6 = c3;
  c6.bits = 6;
  const FlashAdc small(c3), big(c6);
  // 63 comparators vs 7: electrical power grows ~8x (bias-dominated).
  EXPECT_GT(big.electrical_power(), 5.0 * small.electrical_power());
}

TEST(FlashAdc, EnergyPerConversion) {
  const FlashAdc flash;
  EXPECT_NEAR(flash.energy_per_conversion(),
              flash.electrical_power() / 8e9, 1e-18);
  EXPECT_GT(flash.energy_per_conversion(), 1e-12);  // pJ class
}

TEST(TimeInterleaved, AggregateRateScalesWithSlices) {
  TimeInterleavedConfig config;
  config.slices = 2;
  const TimeInterleavedEoAdc ti(config);
  EXPECT_DOUBLE_EQ(ti.sample_rate(), 16e9);  // 2 x 8 GS/s
  TimeInterleavedConfig quad = config;
  quad.slices = 4;
  EXPECT_DOUBLE_EQ(TimeInterleavedEoAdc(quad).sample_rate(), 32e9);
}

TEST(TimeInterleaved, RoundRobinSliceSelection) {
  TimeInterleavedConfig config;
  config.slices = 3;
  TimeInterleavedEoAdc ti(config);
  EXPECT_EQ(ti.next_slice(), 0u);
  ti.convert(1.0);
  EXPECT_EQ(ti.next_slice(), 1u);
  ti.convert(1.0);
  ti.convert(1.0);
  EXPECT_EQ(ti.next_slice(), 0u);
}

TEST(TimeInterleaved, MatchedSlicesAgreeOnCodes) {
  TimeInterleavedConfig config;
  config.slices = 4;
  TimeInterleavedEoAdc ti(config);
  for (double v : {0.3, 1.1, 2.6, 3.7}) {
    const unsigned first = ti.convert(v);
    for (int k = 1; k < 4; ++k) EXPECT_EQ(ti.convert(v), first);
  }
}

TEST(TimeInterleaved, EnergyPerConversionStaysFlat) {
  // Interleaving buys rate at proportional power: E/conv ~ constant.
  TimeInterleavedConfig one;
  one.slices = 1;
  TimeInterleavedConfig four;
  four.slices = 4;
  const double e1 = TimeInterleavedEoAdc(one).energy_per_conversion();
  const double e4 = TimeInterleavedEoAdc(four).energy_per_conversion();
  EXPECT_NEAR(e4 / e1, 1.0, 0.05);
}

TEST(TimeInterleaved, GainMismatchCausesCodeDisagreement) {
  TimeInterleavedConfig config;
  config.slices = 4;
  config.gain_mismatch_sigma = 0.05;  // 5% gain spread
  config.mismatch_seed = 3;
  TimeInterleavedEoAdc ti(config);
  // Near code edges, mismatched slices disagree — the classic interleaving
  // artifact (refs [41]-[43]).  Sweep finely so some samples land there.
  int disagreements = 0;
  for (double v = 0.3; v < 4.0; v += 0.07) {
    const unsigned first = ti.convert(v);
    for (int k = 1; k < 4; ++k) {
      if (ti.convert(v) != first) ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

}  // namespace
