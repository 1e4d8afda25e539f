#include "optics/pn_phase_shifter.hpp"

#include <cmath>

#include "common/expects.hpp"

namespace ptc::optics {

PnPhaseShifter::PnPhaseShifter(const PnJunctionConfig& config) : config_(config) {
  expects(config.efficiency > 0.0, "tuning efficiency must be positive");
  expects(config.built_in_potential > 0.0, "built-in potential must be positive");
  expects(config.response_time > 0.0, "response time must be positive");
}

double PnPhaseShifter::resonance_shift(double v) const {
  // Odd-symmetric square-root compression with unit slope at v = 0:
  //   f(v) = sign(v) * 2*sqrt(Vbi) * (sqrt(Vbi + |v|) - sqrt(Vbi))
  // satisfies f'(0) = 1, so `efficiency` is exactly d(lambda)/dV at zero.
  const double vbi = config_.built_in_potential;
  const double mag = 2.0 * std::sqrt(vbi) * (std::sqrt(vbi + std::fabs(v)) -
                                             std::sqrt(vbi));
  return config_.efficiency * std::copysign(mag, v);
}

}  // namespace ptc::optics
