#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"

namespace {

using namespace ptc::circuit;

TEST(FirstOrderLag, ExactDiscreteStep) {
  FirstOrderLag lag(1e-9, 0.0);
  // One full time constant toward 1.0: 1 - e^-1.
  lag.step(1.0, 1e-9);
  EXPECT_NEAR(lag.value(), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(FirstOrderLag, StableForLargeSteps) {
  FirstOrderLag lag(1e-12, 0.0);
  // dt >> tau must not overshoot (exact discretization, not forward Euler).
  lag.step(1.0, 1e-9);
  EXPECT_LE(lag.value(), 1.0);
  EXPECT_NEAR(lag.value(), 1.0, 1e-9);
}

TEST(FirstOrderLag, ManySmallStepsMatchAnalytic) {
  FirstOrderLag lag(5e-12, 0.0);
  const double dt = 0.1e-12;
  for (int i = 0; i < 100; ++i) lag.step(2.0, dt);
  EXPECT_NEAR(lag.value(), 2.0 * (1.0 - std::exp(-10e-12 / 5e-12)), 1e-9);
  EXPECT_THROW(lag.step(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(FirstOrderLag(0.0), std::invalid_argument);
}

}  // namespace
