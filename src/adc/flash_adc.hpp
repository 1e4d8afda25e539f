#ifndef PTC_ADC_FLASH_ADC_HPP
#define PTC_ADC_FLASH_ADC_HPP

#include <cstdint>
#include <vector>

#include "circuit/comparator.hpp"
#include "common/rng.hpp"

/// Electrical thermometer-coded flash ADC — the conventional high-speed
/// architecture the eoADC is contrasted against (paper Sec. II-C, refs
/// [39], [40]).  2^p - 1 comparators evaluate the input against a resistor
/// ladder *every conversion*; at multi-GS/s rates each comparator needs a
/// high-bandwidth preamp and burns static power, which is exactly the cost
/// the 1-hot eoADC sidesteps by activating a single thresholding block.
namespace ptc::adc {

struct FlashAdcConfig {
  unsigned bits = 3;
  double v_full_scale = 4.0;
  double sample_rate = 8e9;  ///< [Hz]
  circuit::ComparatorConfig comparator{
      .offset_sigma = 2e-3,
      .noise_sigma = 0.5e-3,
      .energy_per_decision = 120e-15,
      .static_power = 1.55e-3,  // GS/s-class comparator incl. preamp
  };
  double ladder_power = 1.0e-3;   ///< reference resistor ladder [W]
  double encoder_power = 1.0e-3;  ///< thermometer-to-binary encoder [W]
  double clock_power = 3.0e-3;    ///< S/H + clock distribution [W]
  std::uint64_t offset_seed = 42;
  bool include_offsets = false;   ///< draw comparator offsets at random
};

class FlashAdc {
 public:
  explicit FlashAdc(const FlashAdcConfig& config = {});

  unsigned bits() const { return config_.bits; }
  std::size_t comparator_count() const { return (1u << config_.bits) - 1; }
  double lsb() const;

  /// Converts the input; every comparator fires (thermometer code).
  unsigned convert(double v_in);

  /// Thermometer pattern of the last conversion (for tests).
  const std::vector<bool>& last_thermometer() const { return thermometer_; }

  /// Comparator activations per conversion — 2^p - 1, versus the eoADC's 1.
  std::size_t activations_per_conversion() const {
    return comparator_count();
  }

  double electrical_power() const;
  double sample_rate() const { return config_.sample_rate; }
  double energy_per_conversion() const;

  const FlashAdcConfig& config() const { return config_; }

 private:
  FlashAdcConfig config_;
  std::vector<circuit::Comparator> comparators_;
  std::vector<double> thresholds_;
  std::vector<bool> thermometer_;
};

}  // namespace ptc::adc

#endif  // PTC_ADC_FLASH_ADC_HPP
