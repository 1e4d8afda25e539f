#include "circuit/driver.hpp"

#include <cmath>

#include "common/expects.hpp"

namespace ptc::circuit {

RingDriver::RingDriver(const RingDriverConfig& config)
    : config_(config), lag_(config.bandwidth_tau, 0.0) {
  expects(config.vdd > 0.0, "vdd must be positive");
  expects(config.load_capacitance > 0.0, "load capacitance must be positive");
}

double RingDriver::step(double v_in, double dt) {
  const double target =
      config_.digital ? (v_in > 0.5 * config_.vdd ? config_.vdd : 0.0) : v_in;
  const double before = lag_.value();
  const double after = lag_.step(target, dt);
  // Charge drawn from the supply is C * |dV|; at Vdd supply that costs
  // C * Vdd * |dV| of energy for the charging half of the swing.
  consumed_energy_ += config_.load_capacitance * config_.vdd *
                      std::fabs(after - before) * 0.5;
  return after;
}

}  // namespace ptc::circuit
