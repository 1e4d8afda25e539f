#ifndef PTC_CIRCUIT_CIRCUIT_HPP
#define PTC_CIRCUIT_CIRCUIT_HPP

/// Behavioral circuit dynamics: the paper's latch and ADC blocks are
/// RC-plus-feedback systems, modelled as first-order lags that reproduce
/// their settling times.
namespace ptc::circuit {

/// First-order low-pass state, used for driver/amplifier/photodiode dynamics:
/// y -> x with time constant tau.
class FirstOrderLag {
 public:
  /// tau [s] must be positive; y0 is the initial state.
  explicit FirstOrderLag(double tau, double y0 = 0.0);

  /// Advances one step toward x and returns the new output (exact discrete
  /// solution for constant x over dt, stable for any dt).
  double step(double x, double dt);

  double value() const { return y_; }
  void reset(double y) { y_ = y; }
  double tau() const { return tau_; }

 private:
  double tau_;
  double y_;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_CIRCUIT_HPP
