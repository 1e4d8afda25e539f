#include <gtest/gtest.h>

#include "optics/coupler.hpp"

namespace {

using namespace ptc::optics;

TEST(DirectionalCoupler, GapMapping) {
  const DirectionalCoupler coupler;
  // Calibration anchors: kappa^2(200 nm) = 0.05.
  EXPECT_NEAR(coupler.power_coupling(200e-9), 0.05, 1e-12);
  // Larger gap -> weaker coupling; monotone.
  EXPECT_LT(coupler.power_coupling(250e-9), coupler.power_coupling(200e-9));
  EXPECT_LT(coupler.power_coupling(300e-9), coupler.power_coupling(250e-9));
  // Tiny gap clamps below 0.95.
  EXPECT_LE(coupler.power_coupling(0.0), 0.95);
  // t^2 + kappa^2 = 1.
  const double t = coupler.self_coupling(220e-9);
  const double k2 = coupler.power_coupling(220e-9);
  EXPECT_NEAR(t * t + k2, 1.0, 1e-12);
}

}  // namespace
