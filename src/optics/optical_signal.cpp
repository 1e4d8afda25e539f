#include "optics/optical_signal.hpp"

#include "common/expects.hpp"

namespace ptc::optics {

WdmSignal WdmSignal::single(double wavelength, double power) {
  WdmSignal s;
  s.add_channel(wavelength, power);
  return s;
}

const ChannelPower& WdmSignal::channel(std::size_t i) const {
  expects(i < channels_.size(), "channel index out of range");
  return channels_[i];
}

ChannelPower& WdmSignal::channel(std::size_t i) {
  expects(i < channels_.size(), "channel index out of range");
  return channels_[i];
}

void WdmSignal::add_channel(double wavelength, double power) {
  expects(wavelength > 0.0, "channel wavelength must be positive");
  expects(power >= 0.0, "channel power must be non-negative");
  channels_.push_back({wavelength, power});
}

double WdmSignal::total_power() const {
  double sum = 0.0;
  for (const auto& ch : channels_) sum += ch.power;
  return sum;
}

WdmSignal& WdmSignal::scale(double factor) {
  expects(factor >= 0.0, "scale factor must be non-negative");
  for (auto& ch : channels_) ch.power *= factor;
  return *this;
}

}  // namespace ptc::optics
