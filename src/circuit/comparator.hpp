#ifndef PTC_CIRCUIT_COMPARATOR_HPP
#define PTC_CIRCUIT_COMPARATOR_HPP

#include "common/rng.hpp"

/// Clocked voltage comparator for the *electrical* flash-ADC baseline the
/// paper contrasts against (refs [39], [40]): 2^p - 1 of these fire every
/// conversion in a thermometer-coded flash, which is exactly the power cost
/// the 1-hot eoADC avoids.
namespace ptc::circuit {

struct ComparatorConfig {
  double offset_sigma = 2e-3;    ///< input-referred offset std-dev [V]
  double noise_sigma = 0.5e-3;   ///< per-decision input noise std-dev [V]
  double energy_per_decision = 120e-15;  ///< [J]
  double static_power = 150e-6;  ///< bias power while enabled [W]
};

class Comparator {
 public:
  /// The fabrication offset is drawn once at construction from `rng`.
  Comparator(const ComparatorConfig& config, Rng& rng);

  /// Deterministic offset-free comparator (for ideal references).
  explicit Comparator(const ComparatorConfig& config = {});

  /// Clocked decision: returns v_in > v_ref (+ offset + optional noise).
  /// Pass a RNG to include per-decision noise.  The owning converter
  /// (adc::FlashAdc) bills decision energy as power at its sample rate.
  bool decide(double v_in, double v_ref) const;
  bool decide(double v_in, double v_ref, Rng& noise_rng) const;

  double offset() const { return offset_; }

  const ComparatorConfig& config() const { return config_; }

 private:
  ComparatorConfig config_;
  double offset_ = 0.0;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_COMPARATOR_HPP
