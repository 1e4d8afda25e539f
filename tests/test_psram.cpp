#include <gtest/gtest.h>

#include <cmath>

#include "core/psram_array.hpp"
#include "core/psram_bitcell.hpp"

namespace {

using namespace ptc::core;

TEST(PsramBitcell, HoldsBothStatesUnderBias) {
  for (bool value : {false, true}) {
    PsramBitcell cell;
    cell.initialize(value);
    cell.hold(2e-9);
    EXPECT_EQ(cell.q(), value);
    EXPECT_TRUE(cell.is_stable());
  }
}

TEST(PsramBitcell, WriteOneFromZero) {
  PsramBitcell cell;
  cell.initialize(false);
  const auto result = cell.write(true);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(cell.q());
  // 20 GHz updates need settling within the 50 ps write slot.
  EXPECT_LT(result.settle_time, 50e-12);
}

TEST(PsramBitcell, WriteZeroFromOne) {
  PsramBitcell cell;
  cell.initialize(true);
  const auto result = cell.write(false);
  EXPECT_TRUE(result.success);
  EXPECT_FALSE(cell.q());
  EXPECT_LT(result.settle_time, 50e-12);
}

TEST(PsramBitcell, WriteEnergyMatchesPaper) {
  // Paper Sec. IV-A: ~0.5 pJ per switching event.
  PsramBitcell cell;
  cell.initialize(false);
  const auto result = cell.write(true);
  EXPECT_NEAR(result.total_energy() * 1e12, 0.5, 0.05);
  // Laser wall-plug share: 1 mW x 50 ps / 0.23 ~ 0.217 pJ.
  EXPECT_NEAR(result.laser_energy * 1e12, 0.217, 0.005);
}

TEST(PsramBitcell, BackToBackWritesAt20GHz) {
  PsramBitcell cell;
  cell.initialize(false);
  bool value = true;
  for (int i = 0; i < 8; ++i) {
    const auto result = cell.write(value);
    EXPECT_TRUE(result.success) << "write " << i;
    EXPECT_EQ(cell.q(), value);
    value = !value;
  }
}

TEST(PsramBitcell, RedundantWriteKeepsState) {
  PsramBitcell cell;
  cell.initialize(true);
  const auto result = cell.write(true);  // write the already-stored value
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(cell.q());
}

TEST(PsramBitcell, WeakWritePulseFailsToFlip) {
  // The write optical power must exceed the holding photocurrents
  // (paper Sec. II-A); a pulse at the bias level cannot flip the latch.
  PsramConfig config;
  config.write_power = 5e-6;  // well below the 1 mW nominal
  PsramBitcell cell(config);
  cell.initialize(false);
  const auto result = cell.write(true);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(cell.q());
}

class WritePulseWidths : public ::testing::TestWithParam<double> {};

TEST_P(WritePulseWidths, FlipsAcrossPulseWidths) {
  PsramConfig config;
  config.write_pulse_width = GetParam();
  PsramBitcell cell(config);
  cell.initialize(false);
  const auto result = cell.write(true);
  EXPECT_TRUE(result.success);
}

INSTANTIATE_TEST_SUITE_P(Widths, WritePulseWidths,
                         ::testing::Values(30e-12, 50e-12, 100e-12));

TEST(PsramBitcell, LosesStateWithoutOpticalBias) {
  // pSRAM is volatile: remove the hold bias and leakage erases the state.
  PsramBitcell cell;
  cell.initialize(true);
  cell.hold(400e-9, /*bias_on=*/false);
  EXPECT_FALSE(cell.is_stable() && cell.q());
  EXPECT_LT(cell.q_voltage(), 0.2);
}

TEST(PsramBitcell, StateSurvivesWithBias) {
  PsramBitcell cell;
  cell.initialize(true);
  cell.hold(50e-9, /*bias_on=*/true);
  EXPECT_TRUE(cell.q());
  EXPECT_GT(cell.q_voltage(), 1.6);
}

TEST(PsramBitcell, TracesRecordWriteWaveforms) {
  PsramBitcell cell;
  cell.initialize(false);
  ptc::sim::TraceSet traces;
  cell.write(true, &traces);
  ASSERT_TRUE(traces.contains("q"));
  ASSERT_TRUE(traces.contains("wbl"));
  // Q rises from 0 toward VDD during the write.
  EXPECT_LT(traces.get("q").values().front(), 0.2);
  EXPECT_GT(traces.get("q").final_value(), 1.6);
  // The WBL pulse has the configured 1 mW amplitude.
  EXPECT_NEAR(traces.get("wbl").max_value(), 1e-3, 1e-9);
  // QB falls complementarily.
  EXPECT_LT(traces.get("qb").final_value(), 0.2);
}

TEST(PsramBitcell, HoldWallPowerFromBiasLaser) {
  // The array bills each cell's hold bias: the bitcell model's -20 dBm =
  // 10 uW at 0.23 wall plug ~ 43.5 uW for a one-cell array.
  const PsramConfig cell;
  PsramArrayConfig one_cell;
  one_cell.rows = 1;
  one_cell.words_per_row = 1;
  one_cell.bits_per_word = 1;
  EXPECT_DOUBLE_EQ(one_cell.hold_bias_power, cell.bias_power);
  EXPECT_DOUBLE_EQ(one_cell.wall_plug_efficiency, cell.wall_plug_efficiency);
  EXPECT_NEAR(PsramArray(one_cell).hold_wall_power() * 1e6, 43.5, 0.5);
}

TEST(PsramBitcell, RejectsBadConfig) {
  PsramConfig bad;
  bad.write_power = 0.0;
  EXPECT_THROW(PsramBitcell{bad}, std::invalid_argument);
  bad = {};
  bad.dt = 5e-12;  // too coarse for the stiff latch dynamics
  EXPECT_THROW(PsramBitcell{bad}, std::invalid_argument);
}

}  // namespace
