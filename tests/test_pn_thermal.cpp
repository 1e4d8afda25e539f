#include <gtest/gtest.h>

#include <cmath>

#include "common/statistics.hpp"
#include "optics/pn_phase_shifter.hpp"
#include "optics/thermal.hpp"

namespace {

using namespace ptc;
using namespace ptc::optics;

TEST(PnPhaseShifter, OddSymmetricShift) {
  const PnPhaseShifter pn;
  for (double v : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    EXPECT_NEAR(pn.resonance_shift(v), -pn.resonance_shift(-v), 1e-20);
  }
  EXPECT_DOUBLE_EQ(pn.resonance_shift(0.0), 0.0);
}

TEST(PnPhaseShifter, SmallSignalSlopeEqualsEfficiency) {
  PnJunctionConfig config;
  config.efficiency = 17.65e-12;
  const PnPhaseShifter pn(config);
  const double dv = 1e-6;
  const double slope = pn.resonance_shift(dv) / dv;
  EXPECT_NEAR(slope, config.efficiency, 1e-3 * config.efficiency);
}

TEST(PnPhaseShifter, CompressiveAtLargeBias) {
  const PnPhaseShifter pn;
  const double eff = pn.config().efficiency;
  // At 4 V the sqrt law must give less than the linear extrapolation.
  EXPECT_LT(pn.resonance_shift(4.0), eff * 4.0);
  EXPECT_GT(pn.resonance_shift(4.0), eff * 4.0 * 0.5);
  // Monotone increasing.
  double prev = 0.0;
  for (double v = 0.1; v <= 4.0; v += 0.1) {
    const double s = pn.resonance_shift(v);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(PnPhaseShifter, DepletionCapacitanceShrinksWithReverseBias) {
  const PnPhaseShifter pn;
  const double c0 = pn.capacitance(0.0);
  EXPECT_NEAR(c0, pn.config().junction_capacitance, 1e-18);
  EXPECT_LT(pn.capacitance(2.0), c0);
  EXPECT_GT(pn.capacitance(-0.3), c0);  // forward: larger
  // Clamped near -Vbi instead of diverging.
  EXPECT_TRUE(std::isfinite(pn.capacitance(-0.9)));
}

TEST(PnPhaseShifter, SwitchingEnergyQuadraticInSwing) {
  const PnPhaseShifter pn;
  const double e1 = pn.switching_energy(0.0, 0.9);
  const double e2 = pn.switching_energy(0.0, 1.8);
  EXPECT_GT(e2, 2.0 * e1);  // superlinear (quadratic-ish)
  EXPECT_NEAR(pn.switching_energy(1.8, 1.8), 0.0, 1e-24);
}

TEST(ThermalDrift, MeanRevertingStatistics) {
  ThermalDrift drift(300.0, 1e-3, 0.5);
  Rng rng(31);
  std::vector<double> temps;
  // Burn in, then sample the stationary distribution.
  for (int i = 0; i < 2000; ++i) drift.step(1e-4, rng);
  for (int i = 0; i < 20000; ++i) temps.push_back(drift.step(1e-4, rng));
  EXPECT_NEAR(mean(temps), 300.0, 0.05);
  EXPECT_NEAR(stddev(temps), 0.5, 0.1);
}

TEST(ThermalDrift, ZeroSigmaStaysAtMean) {
  ThermalDrift drift(300.0, 1e-3, 0.0);
  Rng rng(1);
  drift.reset(301.0);
  for (int i = 0; i < 100; ++i) drift.step(1e-3, rng);
  EXPECT_NEAR(drift.temperature(), 300.0, 0.05);  // relaxed back to mean
}

}  // namespace
