#include "adc/cascaded.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace ptc::adc {

CascadedEoAdc::CascadedEoAdc(const CascadedAdcConfig& config)
    : config_(config), coarse_(config.coarse), fine_(config.fine) {
  expects(config.coarse.v_full_scale == config.fine.v_full_scale,
          "stages must share a full-scale range");
  expects(config.residue_amp_power >= 0.0, "amplifier power must be >= 0");
}

unsigned CascadedEoAdc::bits() const {
  return coarse_.bits() + fine_.bits();
}

double CascadedEoAdc::lsb() const {
  return config_.coarse.v_full_scale / static_cast<double>(1u << bits());
}

double CascadedEoAdc::residue(double v_in) const {
  const unsigned coarse_code = coarse_.code(v_in);
  const double reconstructed =
      static_cast<double>(coarse_code) * coarse_.lsb();
  const double gain = static_cast<double>(std::size_t{1} << coarse_.bits()) *
                      (1.0 + config_.residue_gain_error);
  const double res = (v_in - reconstructed) * gain;
  return std::clamp(res, 0.0, config_.fine.v_full_scale);
}

unsigned CascadedEoAdc::convert(double v_in) const {
  const unsigned coarse_code = coarse_.code(v_in);
  const unsigned fine_code = fine_.code(residue(v_in));
  return (coarse_code << fine_.bits()) + fine_code;
}

double CascadedEoAdc::sample_rate() const {
  // The residue path pipelines: stage 2 digitizes sample n while stage 1
  // acquires sample n+1, so throughput equals the slice rate.
  return std::min(coarse_.sample_rate(), fine_.sample_rate());
}

double CascadedEoAdc::total_power() const {
  return coarse_.total_power() + fine_.total_power() +
         config_.residue_amp_power;
}

double CascadedEoAdc::energy_per_conversion() const {
  return total_power() / sample_rate();
}

}  // namespace ptc::adc
