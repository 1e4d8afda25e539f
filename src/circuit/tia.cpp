#include "circuit/tia.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace ptc::circuit {

InverterTia::InverterTia(const InverterTiaConfig& config)
    : config_(config), lag_(config.bandwidth_tau, config.bias_point) {
  expects(config.vdd > 0.0, "vdd must be positive");
  expects(config.bias_point > 0.0 && config.bias_point < config.vdd,
          "bias point must lie inside the supply window");
  expects(config.gain > 0.0, "gain must be positive");
  expects(config.power >= 0.0, "power must be >= 0");
}

double InverterTia::output(double v_in) const {
  const double v = config_.bias_point -
                   config_.gain * (v_in - config_.bias_point);
  return std::clamp(v, 0.0, config_.vdd);
}

double InverterTia::step(double v_in, double dt) {
  return lag_.step(output(v_in), dt);
}

}  // namespace ptc::circuit
