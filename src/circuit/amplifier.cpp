#include "circuit/amplifier.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace ptc::circuit {

VoltageAmplifier::VoltageAmplifier(const VoltageAmpConfig& config)
    : config_(config) {
  expects(config.vdd > 0.0, "vdd must be positive");
  expects(config.bias_point > 0.0 && config.bias_point < config.vdd,
          "bias point must lie inside the supply window");
  expects(config.gain_per_stage > 0.0, "gain must be positive");
  expects(config.stages >= 1, "amplifier needs at least one stage");
  expects(config.power >= 0.0, "power must be >= 0");
  stages_.assign(config.stages, FirstOrderLag(config.stage_tau, config.bias_point));
}

double VoltageAmplifier::stage_transfer(double v_in) const {
  const double v = config_.bias_point -
                   config_.gain_per_stage * (v_in - config_.bias_point);
  return std::clamp(v, 0.0, config_.vdd);
}

double VoltageAmplifier::step(double v_in, double dt) {
  double v = v_in;
  for (auto& stage : stages_) {
    v = stage.step(stage_transfer(v), dt);
  }
  return v;
}

}  // namespace ptc::circuit
