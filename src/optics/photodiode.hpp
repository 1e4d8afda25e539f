#ifndef PTC_OPTICS_PHOTODIODE_HPP
#define PTC_OPTICS_PHOTODIODE_HPP

/// Photodiodes convert optical power into current; they are the opto-electric
/// interface of the pSRAM storage nodes, the multiply-accumulate summation,
/// and the eoADC thresholding blocks.
namespace ptc::optics {

struct PhotodiodeConfig {
  double responsivity = 1.0;       ///< [A/W], broadband per paper Sec. II-A
  double dark_current = 10e-9;     ///< [A]
  double bandwidth = 50e9;         ///< opto-electrical 3 dB bandwidth [Hz]
};

class Photodiode {
 public:
  explicit Photodiode(const PhotodiodeConfig& config = {});

  /// DC photocurrent for the given incident optical power [A].
  double current(double optical_power) const;

  /// First-order time constant of the photocurrent response [s].
  double response_time_constant() const;

  const PhotodiodeConfig& config() const { return config_; }

 private:
  PhotodiodeConfig config_;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_PHOTODIODE_HPP
