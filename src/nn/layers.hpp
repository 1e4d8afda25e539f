#ifndef PTC_NN_LAYERS_HPP
#define PTC_NN_LAYERS_HPP

#include <cstddef>
#include <vector>

#include "common/linalg.hpp"
#include "nn/backend.hpp"

/// Network layers executing through a MatmulBackend, so the same model runs
/// on the float reference or the photonic tensor core.
namespace ptc::nn {

/// Fully connected layer y = x W + b.
struct DenseLayer {
  Matrix w;                ///< in x out
  std::vector<double> b;   ///< out

  DenseLayer(std::size_t in, std::size_t out);

  /// Forward pass through the given backend.
  Matrix forward(MatmulBackend& backend, const Matrix& x) const;
};

/// Element-wise ReLU.
Matrix relu(Matrix x);

/// Row-wise softmax: a copy of `logits` through softmax_inplace.
Matrix softmax(const Matrix& logits);

/// Variance floor of layernorm_inplace.
constexpr double kLayerNormEpsilon = 1e-5;

/// Row-wise softmax in place: per row, subtract the row maximum,
/// exponentiate and normalize, each in index order.
void softmax_inplace(Matrix& value);

/// Layer normalization of every row in place: shift to the row mean,
/// scale by 1/sqrt(var + epsilon), then apply per-feature gain and bias
/// (both one entry per column).
void layernorm_inplace(Matrix& value, const std::vector<double>& gain,
                       const std::vector<double>& bias);

/// Elementwise GELU (tanh approximation), in place.
void gelu_inplace(Matrix& value);

/// y = x W for a signed activation x through a backend whose matmul
/// contract requires non-negative (intensity-encoded) inputs: differential
/// input streaming.  x splits into x+ = max(x, 0) and x- = max(-x, 0),
/// both halves stream through the same weight plan, and the results
/// recombine digitally as y = y+ - y- — the input-side mirror of the
/// differential W+/W- weight trick.
Matrix signed_matmul(MatmulBackend& backend, const Matrix& x, const Matrix& w);

/// Index of the maximum element in each row.
std::vector<std::size_t> argmax_rows(const Matrix& m);

/// im2col for single-channel 2D convolution with a square kernel (valid
/// padding): returns (out_h * out_w) x (kernel * kernel) patches.
Matrix im2col(const Matrix& image, std::size_t kernel);

/// Single-channel valid 2D convolution via im2col + backend matmul.
Matrix conv2d(MatmulBackend& backend, const Matrix& image,
              const Matrix& kernel);

}  // namespace ptc::nn

#endif  // PTC_NN_LAYERS_HPP
