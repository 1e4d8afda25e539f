#include <gtest/gtest.h>

#include "optics/photodiode.hpp"

namespace {

using namespace ptc;
using namespace ptc::optics;

TEST(Photodiode, LinearResponsivity) {
  PhotodiodeConfig config;
  config.responsivity = 1.0;
  config.dark_current = 10e-9;
  const Photodiode pd(config);
  EXPECT_NEAR(pd.current(0.0), 10e-9, 1e-15);
  EXPECT_NEAR(pd.current(10e-6), 10.01e-6, 1e-12);
  EXPECT_NEAR(pd.current(1e-3), 1.00001e-3, 1e-9);
  EXPECT_THROW(pd.current(-1e-6), std::invalid_argument);
}

TEST(Photodiode, ResponseTimeFromBandwidth) {
  PhotodiodeConfig config;
  config.bandwidth = 50e9;
  const Photodiode pd(config);
  EXPECT_NEAR(pd.response_time_constant(), 3.183e-12, 0.01e-12);
}

TEST(Photodiode, RejectsBadConfig) {
  PhotodiodeConfig bad;
  bad.responsivity = 0.0;
  EXPECT_THROW(Photodiode{bad}, std::invalid_argument);
  bad = {};
  bad.bandwidth = 0.0;
  EXPECT_THROW(Photodiode{bad}, std::invalid_argument);
}

}  // namespace
