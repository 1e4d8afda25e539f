#ifndef PTC_CIRCUIT_AMPLIFIER_HPP
#define PTC_CIRCUIT_AMPLIFIER_HPP

#include <vector>

#include "circuit/circuit.hpp"

/// Cascaded voltage amplifier that converts the small eoADC sense swing into
/// a rail-to-rail digital level (paper Sec. II-C, ref. [46]).
namespace ptc::circuit {

struct VoltageAmpConfig {
  double vdd = 1.8;          ///< supply [V]
  double bias_point = 0.9;   ///< input/output quiescent level [V]
  double gain_per_stage = 6.0;   ///< inverting gain magnitude per stage
  std::size_t stages = 2;    ///< number of cascaded stages
  double stage_tau = 2.5e-12;    ///< per-stage time constant [s]
  double power = 0.3e-3;     ///< total static power [W]
};

class VoltageAmplifier {
 public:
  explicit VoltageAmplifier(const VoltageAmpConfig& config = {});

  /// Advances all stages by dt and returns the final-stage output [V].
  /// Each stage inverts around the bias point, so an even stage count is
  /// non-inverting overall.
  double step(double v_in, double dt);

  const VoltageAmpConfig& config() const { return config_; }

 private:
  double stage_transfer(double v_in) const;

  VoltageAmpConfig config_;
  std::vector<FirstOrderLag> stages_;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_AMPLIFIER_HPP
