#ifndef PTC_OPTICS_OPTICAL_SIGNAL_HPP
#define PTC_OPTICS_OPTICAL_SIGNAL_HPP

#include <cstddef>
#include <vector>

/// Incoherent multi-wavelength optical power signals.
///
/// WDM channels in the tensor core carry mutually incoherent carriers
/// (distinct comb lines), so per-channel *power* — not field amplitude — is
/// the correct state variable, exactly as in the paper's methodology of
/// simulating one wavelength at a time and summing photocurrents linearly.
namespace ptc::optics {

/// One wavelength channel carrying optical power.
struct ChannelPower {
  double wavelength = 0.0;  ///< vacuum wavelength [m]
  double power = 0.0;       ///< optical power [W], >= 0
};

/// A bundle of wavelength channels travelling in one waveguide.
class WdmSignal {
 public:
  WdmSignal() = default;

  /// Single-wavelength convenience factory.
  static WdmSignal single(double wavelength, double power);

  std::size_t size() const { return channels_.size(); }
  bool empty() const { return channels_.empty(); }

  const ChannelPower& channel(std::size_t i) const;
  ChannelPower& channel(std::size_t i);
  const std::vector<ChannelPower>& channels() const { return channels_; }

  /// Appends one channel.  Power must be >= 0.
  void add_channel(double wavelength, double power);

  /// Sum of all channel powers [W].
  double total_power() const;

  /// Multiplies every channel power by `factor` (>= 0).
  WdmSignal& scale(double factor);

 private:
  std::vector<ChannelPower> channels_;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_OPTICAL_SIGNAL_HPP
