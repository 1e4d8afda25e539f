#include <gtest/gtest.h>

#include "common/statistics.hpp"
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

TEST(Photodiode, ShotNoiseScalesWithCurrent) {
  const Photodiode pd;
  Rng rng(17);
  auto noise_sigma = [&](double power) {
    std::vector<double> samples(4000);
    for (auto& s : samples) s = pd.noisy_current(power, 10e9, rng);
    return stddev(samples);
  };
  const double sigma_low = noise_sigma(1e-6);
  const double sigma_high = noise_sigma(100e-6);
  EXPECT_GT(sigma_high, sigma_low);
  // Noisy mean tracks the DC value.
  std::vector<double> samples(4000);
  for (auto& s : samples) s = pd.noisy_current(50e-6, 10e9, rng);
  EXPECT_NEAR(mean(samples), pd.current(50e-6), 0.05 * pd.current(50e-6));
}

TEST(Photodiode, NoisyCurrentNeverNegative) {
  const Photodiode pd;
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(pd.noisy_current(1e-9, 50e9, rng), 0.0);
  }
}

TEST(Photodiode, RejectsBadConfig) {
  PhotodiodeConfig bad;
  bad.responsivity = 0.0;
  EXPECT_THROW(Photodiode{bad}, std::invalid_argument);
  bad = {};
  bad.capacitance = 0.0;
  EXPECT_THROW(Photodiode{bad}, std::invalid_argument);
}

}  // namespace
