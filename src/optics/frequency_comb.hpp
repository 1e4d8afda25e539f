#ifndef PTC_OPTICS_FREQUENCY_COMB_HPP
#define PTC_OPTICS_FREQUENCY_COMB_HPP

#include <vector>

#include "optics/optical_signal.hpp"

/// Optical frequency comb plus the intensity encoders that imprint the analog
/// input vector onto the comb lines (paper Sec. II-B: "the analog
/// intensity-encoded vector can be generated using an optical frequency
/// comb").
namespace ptc::optics {

/// Multi-line comb source: lines of equal power on a WDM wavelength grid.
/// The vector-multiply macro of the paper places four lines (lambda_1 ..
/// lambda_4, 2.33 nm apart) within one microring free spectral range.
class FrequencyComb {
 public:
  /// Line wavelengths [m], strictly increasing and positive, and the
  /// per-line optical power [W].
  FrequencyComb(std::vector<double> wavelengths, double power_per_line);

  /// All comb lines at full power.
  WdmSignal emit() const;

 private:
  std::vector<double> wavelengths_;
  double power_per_line_;
};

/// Bank of intensity modulators that encodes a normalized analog vector
/// (values in [0, 1]) onto the comb lines.  A finite extinction ratio leaves
/// a floor of leakage power when the input is 0, and an insertion loss
/// attenuates all channels — both contribute to compute error in the macro.
class IntensityEncoder {
 public:
  /// insertion_loss_db >= 0; extinction_db > 0 (power ratio between fully-on
  /// and fully-off states).
  IntensityEncoder(double insertion_loss_db = 0.5, double extinction_db = 25.0);

  /// Applies values[i] to channel i of the comb output.  values must have the
  /// same length as the signal and lie in [0, 1].
  WdmSignal encode(const WdmSignal& comb, const std::vector<double>& values) const;

  double insertion_loss_db() const { return insertion_loss_db_; }
  double extinction_db() const { return extinction_db_; }

 private:
  double insertion_loss_db_;
  double extinction_db_;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_FREQUENCY_COMB_HPP
