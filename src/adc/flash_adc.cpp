#include "adc/flash_adc.hpp"

#include "common/expects.hpp"

namespace ptc::adc {

FlashAdc::FlashAdc(const FlashAdcConfig& config) : config_(config) {
  expects(config.bits >= 1 && config.bits <= 10, "bits must be in [1, 10]");
  expects(config.sample_rate > 0.0, "sample rate must be positive");
}

double FlashAdc::electrical_power() const {
  const double comparator_power =
      static_cast<double>(comparator_count()) *
      (config_.comparator_static_power +
       config_.comparator_energy_per_decision * config_.sample_rate);
  return comparator_power + config_.ladder_power + config_.encoder_power +
         config_.clock_power;
}

double FlashAdc::energy_per_conversion() const {
  return electrical_power() / config_.sample_rate;
}

}  // namespace ptc::adc
