#ifndef PTC_CIRCUIT_TIA_HPP
#define PTC_CIRCUIT_TIA_HPP

#include "circuit/circuit.hpp"

/// Inverter-based transimpedance amplifier sensing the balanced-photodiode
/// node Qp inside each eoADC thresholding block (ref. [46]).
///
/// The paper's other TIA, the linear 42 GHz-class row readout TIA
/// (ref. [52]), is not a circuit model: core::TensorCore maps a row's
/// full-scale current onto the eoADC's input range ideally and bills the
/// TIA only as power (`TensorCoreConfig::row_tia_power`).
namespace ptc::circuit {

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
