#ifndef PTC_ADC_TIME_INTERLEAVED_HPP
#define PTC_ADC_TIME_INTERLEAVED_HPP

#include <vector>

#include "core/eoadc.hpp"

/// Time-interleaved eoADC — the speed extension the paper proposes in
/// Sec. II-C ("this single-slice design can be extended using a
/// time-interleaved configuration to further enhance speed").  K identical
/// eoADC slices sample round-robin, multiplying the aggregate rate by K at
/// the cost of K slice powers plus a mux/clock-skew overhead; per-slice gain
/// mismatch can be injected to study the classic interleaving spur problem
/// (refs [41]-[43]).  The slices share one design and one reference ladder,
/// so one converter models them all; only the input gains differ.
namespace ptc::adc {

struct TimeInterleavedConfig {
  std::size_t slices = 2;
  core::EoAdcConfig slice{};
  double mux_power = 0.5e-3;          ///< interleaving mux + retiming [W]
  double gain_mismatch_sigma = 0.0;   ///< per-slice input gain error (std)
  std::uint64_t mismatch_seed = 7;
};

class TimeInterleavedEoAdc {
 public:
  explicit TimeInterleavedEoAdc(const TimeInterleavedConfig& config = {});

  std::size_t slices() const { return gains_.size(); }
  unsigned bits() const { return config_.slice.bits; }

  /// Converts one sample; slices are selected round-robin.
  unsigned convert(double v_in);

  /// Index of the slice that will handle the next sample.
  std::size_t next_slice() const { return next_; }

  /// Aggregate sample rate: slices * slice rate [Hz].
  double sample_rate() const;

  /// Total power: slices * slice power + mux overhead [W].
  double total_power() const;

  double energy_per_conversion() const;

 private:
  TimeInterleavedConfig config_;
  core::EoAdc slice_;
  std::vector<double> gains_;  ///< input gain of each slice; sizes slices()
  std::size_t next_ = 0;
};

}  // namespace ptc::adc

#endif  // PTC_ADC_TIME_INTERLEAVED_HPP
