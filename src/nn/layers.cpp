#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace ptc::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out)
    : w(in, out), b(out, 0.0) {}

Matrix DenseLayer::forward(MatmulBackend& backend, const Matrix& x) const {
  expects(x.cols() == w.rows(), "dense layer input width mismatch");
  Matrix y = backend.matmul(x, w);
  for (std::size_t s = 0; s < y.rows(); ++s)
    for (std::size_t j = 0; j < y.cols(); ++j) y(s, j) += b[j];
  return y;
}

Matrix relu(Matrix x) {
  for (double& v : x.data()) v = std::max(0.0, v);
  return x;
}

Matrix softmax(const Matrix& logits) {
  Matrix out = logits;
  softmax_inplace(out);
  return out;
}

void softmax_inplace(Matrix& value) {
  expects(value.cols() >= 1, "softmax needs at least one column");
  for (std::size_t s = 0; s < value.rows(); ++s) {
    double row_max = value(s, 0);
    for (std::size_t j = 1; j < value.cols(); ++j)
      row_max = std::max(row_max, value(s, j));
    double sum = 0.0;
    for (std::size_t j = 0; j < value.cols(); ++j) {
      value(s, j) = std::exp(value(s, j) - row_max);
      sum += value(s, j);
    }
    for (std::size_t j = 0; j < value.cols(); ++j) value(s, j) /= sum;
  }
}

void layernorm_inplace(Matrix& value, const std::vector<double>& gain,
                       const std::vector<double>& bias) {
  const std::size_t width = value.cols();
  expects(width >= 2, "layernorm needs at least two columns");
  expects(gain.size() == width && bias.size() == width,
          "layernorm gain/bias must match the row width");
  for (std::size_t s = 0; s < value.rows(); ++s) {
    double mean = 0.0;
    for (std::size_t j = 0; j < width; ++j) mean += value(s, j);
    mean /= static_cast<double>(width);
    double var = 0.0;
    for (std::size_t j = 0; j < width; ++j) {
      const double d = value(s, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(width);
    const double inv = 1.0 / std::sqrt(var + kLayerNormEpsilon);
    for (std::size_t j = 0; j < width; ++j) {
      value(s, j) = gain[j] * ((value(s, j) - mean) * inv) + bias[j];
    }
  }
}

void gelu_inplace(Matrix& value) {
  // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
  constexpr double kSqrt2OverPi = 0.7978845608028654;
  for (double& v : value.data()) {
    v = 0.5 * v * (1.0 + std::tanh(kSqrt2OverPi * (v + 0.044715 * v * v * v)));
  }
}

Matrix signed_matmul(MatmulBackend& backend, const Matrix& x, const Matrix& w) {
  Matrix pos(x.rows(), x.cols());
  Matrix neg(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    const double v = x.data()[i];
    pos.data()[i] = v > 0.0 ? v : 0.0;
    neg.data()[i] = v < 0.0 ? -v : 0.0;
  }
  Matrix y = backend.matmul(pos, w);
  y -= backend.matmul(neg, w);
  return y;
}

std::vector<std::size_t> argmax_rows(const Matrix& m) {
  expects(m.cols() >= 1, "argmax of empty rows");
  std::vector<std::size_t> out(m.rows(), 0);
  for (std::size_t s = 0; s < m.rows(); ++s) {
    for (std::size_t j = 1; j < m.cols(); ++j) {
      if (m(s, j) > m(s, out[s])) out[s] = j;
    }
  }
  return out;
}

Matrix im2col(const Matrix& image, std::size_t kernel) {
  expects(kernel >= 1 && kernel <= image.rows() && kernel <= image.cols(),
          "kernel larger than the image");
  const std::size_t out_h = image.rows() - kernel + 1;
  const std::size_t out_w = image.cols() - kernel + 1;
  Matrix patches(out_h * out_w, kernel * kernel);
  for (std::size_t i = 0; i < out_h; ++i) {
    for (std::size_t j = 0; j < out_w; ++j) {
      std::size_t col = 0;
      for (std::size_t di = 0; di < kernel; ++di)
        for (std::size_t dj = 0; dj < kernel; ++dj)
          patches(i * out_w + j, col++) = image(i + di, j + dj);
    }
  }
  return patches;
}

Matrix conv2d(MatmulBackend& backend, const Matrix& image,
              const Matrix& kernel) {
  expects(kernel.rows() == kernel.cols(), "kernel must be square");
  const std::size_t k = kernel.rows();
  const std::size_t out_h = image.rows() - k + 1;
  const std::size_t out_w = image.cols() - k + 1;

  const Matrix patches = im2col(image, k);
  Matrix kernel_col(k * k, 1);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) kernel_col(idx++, 0) = kernel(i, j);

  const Matrix flat = backend.matmul(patches, kernel_col);
  Matrix out(out_h, out_w);
  for (std::size_t i = 0; i < out_h; ++i)
    for (std::size_t j = 0; j < out_w; ++j) out(i, j) = flat(i * out_w + j, 0);
  return out;
}

}  // namespace ptc::nn
