#include "core/variation.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace ptc::core {

VariationModel::VariationModel(const VariationConfig& config)
    : config_(config) {
  const auto spread_ok = [](double v) { return std::isfinite(v) && v >= 0.0; };
  expects(spread_ok(config.resonance_sigma),
          "variation.resonance_sigma must be finite and >= 0");
  expects(spread_ok(config.q_spread),
          "variation.q_spread must be finite and >= 0");
  expects(spread_ok(config.coupling_spread),
          "variation.coupling_spread must be finite and >= 0");
  expects(spread_ok(config.psram_level_sigma),
          "variation.psram_level_sigma must be finite and >= 0");
  expects(spread_ok(config.thermal_sensitivity_spread),
          "variation.thermal_sensitivity_spread must be finite and >= 0");
}

VariationModel::RingDeviation VariationModel::sample_ring(Rng& rng) const {
  RingDeviation d;
  // Fixed draw order; every field draws even when its sigma is zero so the
  // stream alignment (and thus every other field's value) is independent of
  // which sigmas are enabled.
  d.resonance_error = rng.normal(0.0, config_.resonance_sigma);
  d.loss_scale = std::max(0.05, rng.normal(1.0, config_.q_spread));
  d.coupling_scale = std::max(0.5, rng.normal(1.0, config_.coupling_spread));
  d.bias_offset = rng.normal(0.0, config_.psram_level_sigma);
  d.thermal_scale =
      std::max(0.1, rng.normal(1.0, config_.thermal_sensitivity_spread));
  return d;
}

std::uint64_t VariationModel::child_seed(std::size_t index) const {
  const std::uint64_t raw = Rng(config_.seed).split(index).next_u64();
  return raw != 0 ? raw : 1;
}

}  // namespace ptc::core
