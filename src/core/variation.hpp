#ifndef PTC_CORE_VARIATION_HPP
#define PTC_CORE_VARIATION_HPP

#include <cstdint>

#include "common/rng.hpp"

/// Device-to-device variation model for the photonic tensor core.
///
/// A fabricated fleet is never a pool of identical dies: microring radius /
/// sidewall roughness spread the resonance wavelengths, etch depth spreads
/// the coupling gaps, loss spreads the loaded Q, and the pSRAM drive levels
/// carry per-cell offsets.  The Monte-Carlo ablation
/// (`bench/ablation_variation`) studies one standalone eoADC at a time;
/// this header is the *fleet-scale* counterpart: a seeded, reproducible
/// sampler that perturbs every ring of every macro of every core at
/// construction, so the runtime and the serving loop operate on a
/// realistically heterogeneous pool instead of a cloned ideal device.  It
/// samples no eoADC ladder mismatch: a core's rows read through one
/// converter, whose ladder `EoAdcConfig::vref_mismatch_sigma` sets.
///
/// Seeding discipline (see common/rng.hpp): one fleet-level seed fans out
/// through Rng::split into per-core streams, which fan out into per-macro
/// streams; each ring then draws its deviations in a fixed order.  Equal
/// seeds therefore reproduce the exact same fleet on every platform, and
/// distinct cores/macros are statistically independent.
namespace ptc::core {

/// Spreads are fractional (dimensionless 1-sigma) unless a unit is given.
/// A zero `seed` disables variation entirely — the pristine design device.
struct VariationConfig {
  std::uint64_t seed = 0;        ///< 0 = pristine device, no variation
  /// Fabrication resonance error of each multiply ring, 1-sigma [m]
  /// (radius / sidewall spread expressed as a resonance shift; the paper's
  /// heater trim budget is a few tens of pm).
  double resonance_sigma = 2e-12;
  /// Fractional spread of the propagation loss — spreads the loaded Q.
  double q_spread = 0.02;
  /// Fractional spread of the coupling gaps (etch depth variation).
  double coupling_spread = 0.01;
  /// pSRAM drive-level noise seen by each multiply ring's bias line,
  /// 1-sigma [V] (stored-level + DAC offsets).
  double psram_level_sigma = 5e-3;
  /// Fractional spread of each ring's thermo-optic sensitivity
  /// (dlambda/dT); makes thermal drift strike every ring differently.
  double thermal_sensitivity_spread = 0.05;
};

/// Seeded sampler of per-ring deviations.  Pure: the same (config, rng
/// state) always yields the same deviations.
class VariationModel {
 public:
  explicit VariationModel(const VariationConfig& config);

  /// One multiply ring's sampled deviation from design.
  struct RingDeviation {
    double resonance_error = 0.0;  ///< [m], added to the ring's fab error
    double loss_scale = 1.0;       ///< multiplies loss_db_per_cm (Q spread)
    double coupling_scale = 1.0;   ///< multiplies both coupling gaps
    double bias_offset = 0.0;      ///< [V], static pSRAM drive-level error
    double thermal_scale = 1.0;    ///< multiplies dlambda_dt
  };

  /// Draws the next ring's deviation from `rng` (fixed draw order — five
  /// normals — so streams stay aligned across platforms).  Scale factors
  /// are clamped away from zero so an extreme tail cannot produce an
  /// unphysical device.
  RingDeviation sample_ring(Rng& rng) const;

  bool enabled() const { return config_.seed != 0; }
  const VariationConfig& config() const { return config_; }

  /// Child seed for stream `index` of the fleet/device seeded by
  /// `config.seed` — per-core streams at the accelerator level, per-macro
  /// streams inside a core.  Never zero, so a varied parent cannot spawn a
  /// pristine child by accident.
  std::uint64_t child_seed(std::size_t index) const;

 private:
  VariationConfig config_;
};

}  // namespace ptc::core

#endif  // PTC_CORE_VARIATION_HPP
