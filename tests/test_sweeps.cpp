// Parameterized property sweeps across the device operating space: these
// assert *invariants* (bounds, monotonicity, symmetry) rather than point
// values, complementing the calibration checks in the per-module suites.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/eoadc.hpp"
#include "core/psram_bitcell.hpp"
#include "core/tech.hpp"
#include "core/tensor_core.hpp"
#include "core/vector_macro.hpp"
#include "optics/microring.hpp"
#include "sim/montecarlo.hpp"

namespace {

using namespace ptc;
using namespace ptc::core;
using namespace ptc::optics;

// ---------------------------------------------------------------------------
// Microring invariants over (bias, temperature) grid.  The temperature
// reaches a ring through the ring-transfer helpers, as a macro passes it.
// ---------------------------------------------------------------------------

class RingOperatingPoint
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RingOperatingPoint, TransmissionsAreValidProbabilities) {
  const auto [bias, dtemp] = GetParam();
  const Microring ring(compute_ring_config(0, 0.0));
  const RingGeometry& g = ring.geometry();
  const RingDevice& d = ring.device();
  const double dn =
      ring_index_shift(g, d, ring.electro_optic_shift(bias), dtemp);
  for (double detune_nm = -5.0; detune_nm <= 5.0; detune_nm += 0.25) {
    const double lambda = 1310e-9 + detune_nm * 1e-9;
    const double thru = ring_thru_transmission(g, d, dn, lambda);
    const double drop = ring_drop_transmission(g, d, dn, lambda);
    ASSERT_GE(thru, 0.0);
    ASSERT_LE(thru, 1.0);
    ASSERT_GE(drop, 0.0);
    ASSERT_LE(drop, 1.0);
    ASSERT_LE(thru + drop, 1.0 + 1e-9);  // passivity
  }
}

TEST_P(RingOperatingPoint, ResonanceShiftIsMonotoneInBias) {
  const auto [bias, dtemp] = GetParam();
  const Microring ring(compute_ring_config(0, 0.0));
  const RingGeometry& g = ring.geometry();
  auto resonance = [&](double v) {
    return ring_resonance_near(
        g, ring_index_shift(g, ring.device(), ring.electro_optic_shift(v),
                            dtemp),
        1310e-9);
  };
  EXPECT_GT(resonance(bias + 0.2), resonance(bias));  // red-shift with bias
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RingOperatingPoint,
    ::testing::Combine(::testing::Values(-1.0, 0.0, 0.9, 1.8, 3.0),
                       ::testing::Values(-10.0, 0.0, 10.0)));

// ---------------------------------------------------------------------------
// eoADC invariants across the input range and bit widths.
// ---------------------------------------------------------------------------

class AdcBitWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdcBitWidths, RampIsMonotoneAndCoversAllCodes) {
  EoAdcConfig config;
  config.bits = GetParam();
  EoAdc adc(config);
  std::vector<bool> seen(adc.channel_count(), false);
  unsigned prev = 0;
  for (double v = 0.0; v <= 4.0; v += 4.0 / 4096.0) {
    const unsigned code = adc.code(v);
    ASSERT_GE(code, prev);
    prev = code;
    seen[code] = true;
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_TRUE(seen[c]) << "code " << c << " never produced";
  }
}

TEST_P(AdcBitWidths, EnergyPerConversionScalesWithChannels) {
  EoAdcConfig config;
  config.bits = GetParam();
  const EoAdc adc(config);
  // Optical power scales with 2^p; check the ledgered totals follow.
  EXPECT_NEAR(adc.optical_power_delivered(),
              static_cast<double>(adc.channel_count()) * 218e-6, 1e-9);
  EXPECT_GT(adc.energy_per_conversion(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, AdcBitWidths, ::testing::Values(2, 3, 4));

// ---------------------------------------------------------------------------
// pSRAM Monte-Carlo robustness: node-capacitance and responsivity spread.
// ---------------------------------------------------------------------------

TEST(PsramMonteCarlo, WritesSucceedUnderDeviceSpread) {
  const auto summary = sim::run_monte_carlo(
      25, 99,
      [](Rng& rng) {
        PsramConfig config;
        config.node_capacitance = 5e-15 * (1.0 + rng.normal(0.0, 0.1));
        config.photodiode.responsivity = 1.0 + rng.normal(0.0, 0.05);
        PsramBitcell cell(config);
        cell.initialize(false);
        const auto w1 = cell.write(true);
        const auto w0 = cell.write(false);
        return (w1.success && w0.success) ? 1.0 : 0.0;
      },
      [](double ok) { return ok > 0.5; });
  EXPECT_DOUBLE_EQ(summary.yield, 1.0);
}

TEST(PsramMonteCarlo, WriteEnergySpreadIsTight) {
  const auto summary = sim::run_monte_carlo(
      25, 123,
      [](Rng& rng) {
        PsramConfig config;
        config.driver.load_capacitance = 85e-15 * (1.0 + rng.normal(0.0, 0.08));
        PsramBitcell cell(config);
        cell.initialize(false);
        return cell.write(true).total_energy() * 1e12;  // pJ
      });
  EXPECT_NEAR(summary.mean, 0.493, 0.03);
  EXPECT_LT(summary.std_dev, 0.05);
}

// ---------------------------------------------------------------------------
// Vector macro: random-vector accuracy sweep at several precisions.
// ---------------------------------------------------------------------------

class MacroPrecision : public ::testing::TestWithParam<unsigned> {};

TEST_P(MacroPrecision, RandomVectorsTrackIdealWithinBudget) {
  VectorMacroConfig config;
  config.weight_bits = GetParam();
  VectorComputeMacro macro(config);
  Rng rng(500 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint32_t> weights(4);
    std::vector<double> inputs(4);
    for (auto& w : weights)
      w = static_cast<std::uint32_t>(rng.below(macro.max_weight() + 1));
    for (auto& x : inputs) x = rng.uniform();
    macro.load_weights(weights);
    const double measured = macro.multiply(inputs).normalized;
    const double ideal = macro.ideal_normalized(inputs);
    ASSERT_NEAR(measured, ideal, 0.015)
        << "bits=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, MacroPrecision, ::testing::Values(1, 2, 3, 4, 6));

// ---------------------------------------------------------------------------
// Readout gain: codes scale as expected and clamp at full scale.
// ---------------------------------------------------------------------------

TEST(TensorCoreGain, ReadoutGainScalesCodes) {
  TensorCore core;
  std::vector<std::vector<std::uint32_t>> w(
      16, std::vector<std::uint32_t>(16, 2));
  core.load_weights(w);
  const std::vector<double> input(16, 0.5);

  const auto base = core.multiply(input);
  core.set_readout_gain(2.0);
  const auto boosted = core.multiply(input);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_GE(boosted[r], base[r]);
    EXPECT_NEAR(static_cast<double>(boosted[r]),
                2.0 * static_cast<double>(base[r]), 1.5);
  }
  core.set_readout_gain(100.0);  // saturates at the top code
  const auto clamped = core.multiply(input);
  for (unsigned c : clamped) EXPECT_EQ(c, 7u);
  EXPECT_THROW(core.set_readout_gain(0.0), std::invalid_argument);
}

}  // namespace
