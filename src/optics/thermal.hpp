#ifndef PTC_OPTICS_THERMAL_HPP
#define PTC_OPTICS_THERMAL_HPP

#include "common/rng.hpp"

/// Thermal effects on microrings.  MRRs are sensitive to temperature
/// (~70 pm/K in silicon); integrated heaters stabilize the operating point
/// (paper Sec. I, refs [37], [38]).  The Ornstein-Uhlenbeck drift process
/// feeds the Monte-Carlo robustness benches.
namespace ptc::optics {

/// Integrated micro-heater: resonance red-shift per kelvin and its power cost.
struct ThermalTunerConfig {
  /// Resonance shift per kelvin [m/K].
  double dlambda_dt = 70e-12;
  /// Heater tuning power to shift by one kelvin [W/K].
  double heater_power_per_kelvin = 0.25e-3;
  /// Maximum heater power [W].
  double max_heater_power = 10e-3;
};

/// Mean-reverting ambient temperature fluctuation (Ornstein-Uhlenbeck):
/// dT = -(T - mean)/tau dt + sigma sqrt(2 dt / tau) N(0,1).
class ThermalDrift {
 public:
  /// mean [K], relaxation time tau [s], stationary std-dev sigma [K].
  ThermalDrift(double mean, double tau, double sigma);

  /// Advances the process by dt and returns the new temperature [K].
  double step(double dt, Rng& rng);

  double temperature() const { return temperature_; }
  void reset(double temperature) { temperature_ = temperature; }

 private:
  double mean_;
  double tau_;
  double sigma_;
  double temperature_;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_THERMAL_HPP
