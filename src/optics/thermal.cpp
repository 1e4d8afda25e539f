#include "optics/thermal.hpp"

#include <cmath>

#include "common/expects.hpp"

namespace ptc::optics {

ThermalDrift::ThermalDrift(double mean, double tau, double sigma)
    : mean_(mean), tau_(tau), sigma_(sigma), temperature_(mean) {
  expects(tau > 0.0, "relaxation time must be positive");
  expects(sigma >= 0.0, "sigma must be >= 0");
}

double ThermalDrift::step(double dt, Rng& rng) {
  expects(dt > 0.0, "dt must be positive");
  const double relax = std::exp(-dt / tau_);
  const double stationary_kick =
      sigma_ * std::sqrt(1.0 - relax * relax);
  temperature_ = mean_ + (temperature_ - mean_) * relax +
                 rng.normal(0.0, stationary_kick);
  return temperature_;
}

}  // namespace ptc::optics
