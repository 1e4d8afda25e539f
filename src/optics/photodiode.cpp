#include "optics/photodiode.hpp"

#include <numbers>

#include "common/expects.hpp"

namespace ptc::optics {

Photodiode::Photodiode(const PhotodiodeConfig& config) : config_(config) {
  expects(config.responsivity > 0.0, "responsivity must be positive");
  expects(config.dark_current >= 0.0, "dark current must be >= 0");
  expects(config.bandwidth > 0.0, "bandwidth must be positive");
}

double Photodiode::current(double optical_power) const {
  expects(optical_power >= 0.0, "optical power must be >= 0");
  return config_.responsivity * optical_power + config_.dark_current;
}

double Photodiode::response_time_constant() const {
  return 1.0 / (2.0 * std::numbers::pi * config_.bandwidth);
}

}  // namespace ptc::optics
