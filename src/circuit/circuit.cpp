#include "circuit/circuit.hpp"

#include <cmath>

#include "common/expects.hpp"

namespace ptc::circuit {

FirstOrderLag::FirstOrderLag(double tau, double y0) : tau_(tau), y_(y0) {
  expects(tau > 0.0, "lag time constant must be positive");
}

double FirstOrderLag::step(double x, double dt) {
  expects(dt > 0.0, "dt must be positive");
  const double alpha = 1.0 - std::exp(-dt / tau_);
  y_ += (x - y_) * alpha;
  return y_;
}

}  // namespace ptc::circuit
