#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace ptc::nn {

double SignedMapping::to_unit(double w) const {
  return 0.5 * (w / scale + 1.0);
}

SignedMapping signed_mapping_for(const Matrix& w) {
  double max_abs = 0.0;
  for (double v : w.data()) max_abs = std::max(max_abs, std::fabs(v));
  return SignedMapping{max_abs > 0.0 ? max_abs : 1.0};
}

double normalized_activations(const Matrix& x, Matrix& out) {
  double max_val = 0.0;
  for (double v : x.data()) {
    expects(v >= 0.0, "activations must be non-negative (intensity encoding)");
    max_val = std::max(max_val, v);
  }
  const double scale = max_val > 0.0 ? max_val : 1.0;
  out.assign(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    out.data()[i] = x.data()[i] / scale;
  }
  return scale;
}

}  // namespace ptc::nn
