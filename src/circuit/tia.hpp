#ifndef PTC_CIRCUIT_TIA_HPP
#define PTC_CIRCUIT_TIA_HPP

#include "circuit/circuit.hpp"

/// Transimpedance amplifiers.
///
/// Two flavors appear in the paper:
///  * a linear high-bandwidth TIA converting the summed photodiode current of
///    a compute row into a voltage for the ADC (ref. [52]);
///  * an inverter-based TIA sensing the balanced-photodiode node Qp inside
///    each eoADC thresholding block (ref. [46]).
namespace ptc::circuit {

struct LinearTiaConfig {
  double transimpedance = 4e3;   ///< [V/A]
  double bandwidth = 42e9;       ///< 3 dB bandwidth [Hz] (42 GHz class, [52])
  double vdd = 1.8;              ///< output clamp [V]
  double power = 38e-3;          ///< static power [W]
};

/// Linear I-to-V front end with single-pole dynamics and rail clamping.
class LinearTia {
 public:
  explicit LinearTia(const LinearTiaConfig& config = {});

  /// Static (settled) output voltage for an input current [V].
  double output(double current) const;

  /// Advances the single-pole response toward output(current).
  double step(double current, double dt);

  double value() const { return lag_.value(); }
  void reset(double v) { lag_.reset(v); }

  const LinearTiaConfig& config() const { return config_; }

 private:
  LinearTiaConfig config_;
  FirstOrderLag lag_;
};

struct InverterTiaConfig {
  double vdd = 1.8;          ///< supply [V]
  double bias_point = 0.9;   ///< self-biased input trip voltage [V]
  double gain = 8.0;         ///< inverting small-signal gain
  double bandwidth_tau = 3e-12;  ///< output time constant [s]
  double power = 0.5e-3;     ///< static power while enabled [W]
};

/// Self-biased inverting voltage sense stage (the "inverter-based high-speed
/// TIA" of the eoADC).  Output moves opposite to the input deviation from the
/// bias point and clips at the rails.
class InverterTia {
 public:
  explicit InverterTia(const InverterTiaConfig& config = {});

  /// Static (settled) output for the given input voltage [V].
  double output(double v_in) const;

  /// Advances the single-pole response toward output(v_in).
  double step(double v_in, double dt);

  double value() const { return lag_.value(); }
  void reset(double v) { lag_.reset(v); }

  const InverterTiaConfig& config() const { return config_; }

 private:
  InverterTiaConfig config_;
  FirstOrderLag lag_;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_TIA_HPP
