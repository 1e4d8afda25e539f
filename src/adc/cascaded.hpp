#ifndef PTC_ADC_CASCADED_HPP
#define PTC_ADC_CASCADED_HPP

#include "core/eoadc.hpp"

/// Cascaded (subranging) eoADC — the paper's precision extension:
/// "higher precision can be achieved ... by cascading multiple lower-bit
/// ADCs with shift-and-add operations" (Sec. II-C).
///
/// A coarse p1-bit eoADC resolves the top bits; a residue amplifier
/// subtracts the coarse reconstruction and scales the remainder by 2^p1
/// back onto the full-scale range, where a fine p2-bit eoADC resolves the
/// bottom bits.  The output is (coarse << p2) + fine — a (p1 + p2)-bit
/// converter from two low-bit 1-hot slices, pipelined at the slice rate.
namespace ptc::adc {

struct CascadedAdcConfig {
  core::EoAdcConfig coarse{};   ///< stage-1 slice (default 3-bit)
  core::EoAdcConfig fine{};     ///< stage-2 slice (default 3-bit)
  /// Residue subtract-and-amplify block: static power [W].
  double residue_amp_power = 2e-3;
  /// Gain error of the residue amplifier (1.0 = ideal 2^p1).
  double residue_gain_error = 0.0;
};

class CascadedEoAdc {
 public:
  explicit CascadedEoAdc(const CascadedAdcConfig& config = {});

  /// Total resolution p1 + p2 bits.
  unsigned bits() const;
  unsigned max_code() const { return (1u << bits()) - 1; }

  /// Effective LSB referred to the input [V].
  double lsb() const;

  /// Converts an input on [0, v_full_scale] to a (p1+p2)-bit code.
  unsigned convert(double v_in) const;

  /// Residue voltage presented to the fine stage for a given input [V]
  /// (after subtract-and-amplify; clamped to the fine stage's range).
  double residue(double v_in) const;

  /// Pipelined sample rate: one result per coarse-slice period [Hz].
  double sample_rate() const;

  /// Total power: both slices + residue amplifier [W].
  double total_power() const;

  double energy_per_conversion() const;

  const CascadedAdcConfig& config() const { return config_; }

 private:
  CascadedAdcConfig config_;
  core::EoAdc coarse_;
  core::EoAdc fine_;
};

}  // namespace ptc::adc

#endif  // PTC_ADC_CASCADED_HPP
