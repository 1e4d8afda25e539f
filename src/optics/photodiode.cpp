#include "optics/photodiode.hpp"

#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "common/expects.hpp"

namespace ptc::optics {

Photodiode::Photodiode(const PhotodiodeConfig& config) : config_(config) {
  expects(config.responsivity > 0.0, "responsivity must be positive");
  expects(config.dark_current >= 0.0, "dark current must be >= 0");
  expects(config.bandwidth > 0.0, "bandwidth must be positive");
  expects(config.capacitance > 0.0, "capacitance must be positive");
}

double Photodiode::current(double optical_power) const {
  expects(optical_power >= 0.0, "optical power must be >= 0");
  return config_.responsivity * optical_power + config_.dark_current;
}

double Photodiode::noisy_current(double optical_power, double noise_bandwidth,
                                 Rng& rng) const {
  expects(noise_bandwidth > 0.0, "noise bandwidth must be positive");
  const double i_dc = current(optical_power);
  // Shot noise: sigma^2 = 2 q I B.
  const double shot_sigma =
      std::sqrt(2.0 * constants::q_e * i_dc * noise_bandwidth);
  // Thermal (Johnson) noise of the effective load resistance implied by the
  // RC bandwidth: R = 1 / (2 pi B C).
  const double r_load =
      1.0 / (2.0 * std::numbers::pi * config_.bandwidth * config_.capacitance);
  const double thermal_sigma = std::sqrt(
      4.0 * constants::k_b * constants::t_ambient * noise_bandwidth / r_load);
  const double noise =
      rng.normal(0.0, std::hypot(shot_sigma, thermal_sigma));
  return std::max(0.0, i_dc + noise);
}

double Photodiode::response_time_constant() const {
  return 1.0 / (2.0 * std::numbers::pi * config_.bandwidth);
}

}  // namespace ptc::optics
