#include <gtest/gtest.h>

#include <cmath>

#include "circuit/amplifier.hpp"
#include "circuit/driver.hpp"
#include "circuit/tia.hpp"

namespace {

using namespace ptc;
using namespace ptc::circuit;

TEST(RingDriver, DigitalRegeneration) {
  RingDriver driver;
  // Input above VDD/2 drives the output to the full rail.
  for (int i = 0; i < 200; ++i) driver.step(1.0, 1e-12);
  EXPECT_NEAR(driver.output(), 1.8, 1e-3);
  for (int i = 0; i < 200; ++i) driver.step(0.3, 1e-12);
  EXPECT_NEAR(driver.output(), 0.0, 1e-3);
}

TEST(RingDriver, AnalogFollowerMode) {
  RingDriverConfig config;
  config.digital = false;
  RingDriver driver(config);
  for (int i = 0; i < 300; ++i) driver.step(1.1, 1e-12);
  EXPECT_NEAR(driver.output(), 1.1, 1e-3);
}

TEST(RingDriver, EnergyPerFullSwing) {
  RingDriver driver;
  for (int i = 0; i < 500; ++i) driver.step(1.8, 1e-12);
  // 0.5 * C * Vdd * dV = 0.5 * 85 fF * 1.8 * 1.8 = 0.1377 pJ.
  EXPECT_NEAR(driver.consumed_energy(), 0.1377e-12, 0.002e-12);
}

TEST(InverterTia, InvertsAroundBias) {
  const InverterTia tia;
  EXPECT_NEAR(tia.output(0.9), 0.9, 1e-12);
  EXPECT_GT(tia.output(0.85), 0.9);   // input below bias -> output above
  EXPECT_LT(tia.output(0.95), 0.9);
  EXPECT_DOUBLE_EQ(tia.output(0.0), 1.8);  // clips
  EXPECT_DOUBLE_EQ(tia.output(1.8), 0.0);
}

/// Output of a fresh amplifier held at `v_in` for 100 ps (40 stage taus).
double settled_output(double v_in) {
  VoltageAmplifier amp;
  double out = 0.0;
  for (int i = 0; i < 200; ++i) out = amp.step(v_in, 0.5e-12);
  return out;
}

TEST(VoltageAmplifier, EvenStagesNonInverting) {
  // 2 stages of x6: above bias stays above, below stays below.
  EXPECT_GT(settled_output(0.95), 0.9);
  EXPECT_LT(settled_output(0.85), 0.9);
  EXPECT_NEAR(settled_output(1.2), 1.8, 1e-6);  // saturates at the rail
}

TEST(VoltageAmplifier, TransientSettlesToStatic) {
  // Static transfer at 0.95 V: 0.9 - 6 * 0.05 = 0.6 V, then
  // 0.9 + 6 * 0.3 = 2.7 V, clipped to the 1.8 V rail.
  VoltageAmplifier amp;
  const double first = amp.step(0.95, 0.5e-12);
  EXPECT_GT(first, 0.9);  // starts from the bias point
  EXPECT_LT(first, 1.8);  // finite bandwidth: not there after one step
  EXPECT_NEAR(settled_output(0.95), 1.8, 1e-6);
}

}  // namespace
