#include "adc/time_interleaved.hpp"

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ptc::adc {

TimeInterleavedEoAdc::TimeInterleavedEoAdc(const TimeInterleavedConfig& config)
    : config_(config), slice_(config.slice) {
  expects(config.slices >= 1 && config.slices <= 16,
          "slice count must be in [1, 16]");
  expects(config.gain_mismatch_sigma >= 0.0, "mismatch sigma must be >= 0");

  Rng rng(config.mismatch_seed);
  gains_.reserve(config.slices);
  for (std::size_t k = 0; k < config.slices; ++k) {
    gains_.push_back(1.0 + rng.normal(0.0, config.gain_mismatch_sigma));
  }
}

unsigned TimeInterleavedEoAdc::convert(double v_in) {
  const std::size_t slice = next_;
  next_ = (next_ + 1) % gains_.size();
  return slice_.code(v_in * gains_[slice]);
}

double TimeInterleavedEoAdc::sample_rate() const {
  return static_cast<double>(slices()) * slice_.sample_rate();
}

double TimeInterleavedEoAdc::total_power() const {
  return static_cast<double>(slices()) * slice_.total_power() +
         config_.mux_power;
}

double TimeInterleavedEoAdc::energy_per_conversion() const {
  return total_power() / sample_rate();
}

}  // namespace ptc::adc
