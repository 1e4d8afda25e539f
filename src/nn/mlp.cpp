#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/expects.hpp"
#include "graph/executor.hpp"
#include "graph/models.hpp"

namespace ptc::nn {
namespace {

/// An in x out layer with N(0, sigma) weights and zero bias.
DenseLayer random_layer(std::size_t in, std::size_t out, double sigma,
                        Rng& rng) {
  DenseLayer layer(in, out);
  for (double& v : layer.w.data()) v = rng.normal(0.0, sigma);
  return layer;
}

}  // namespace

// He initialization for the ReLU layer, Xavier-ish for the output.
Mlp::Mlp(std::size_t in, std::size_t hidden, std::size_t out, Rng& rng)
    : layer1_(random_layer(in, hidden,
                           std::sqrt(2.0 / static_cast<double>(in)), rng)),
      layer2_(random_layer(hidden, out,
                           std::sqrt(1.0 / static_cast<double>(hidden)), rng)),
      graph_(graph::mlp_graph(layer1_.w, layer1_.b, layer2_.w, layer2_.b)) {}

Matrix Mlp::forward(MatmulBackend& backend, const Matrix& x) const {
  return graph::run(graph_, backend, x);
}

std::vector<std::size_t> Mlp::predict(MatmulBackend& backend,
                                      const Matrix& x) const {
  return argmax_rows(forward(backend, x));
}

double Mlp::accuracy(MatmulBackend& backend, const Dataset& data) const {
  const auto predictions = predict(backend, data.inputs);
  std::size_t correct = 0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    if (predictions[s] == data.labels[s]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

double Mlp::train_epoch(const Dataset& data, double learning_rate,
                        std::size_t batch_size, Rng& rng) {
  expects(batch_size >= 1, "batch size must be >= 1");
  FloatBackend backend;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  // Fisher-Yates shuffle with the deterministic RNG.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  double loss_sum = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t count = std::min(batch_size, data.size() - start);
    Matrix x(count, data.inputs.cols());
    std::vector<std::size_t> labels(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t src = order[start + i];
      labels[i] = data.labels[src];
      for (std::size_t c = 0; c < x.cols(); ++c)
        x(i, c) = data.inputs(src, c);
    }

    // Forward.
    const Matrix z1 = layer1_.forward(backend, x);
    const Matrix h = relu(z1);
    const Matrix logits = layer2_.forward(backend, h);
    const Matrix probs = softmax(logits);

    // Cross-entropy loss and output gradient (probs - onehot) / count.
    Matrix dlogits = probs;
    for (std::size_t i = 0; i < count; ++i) {
      loss_sum += -std::log(std::max(1e-12, probs(i, labels[i])));
      dlogits(i, labels[i]) -= 1.0;
    }
    dlogits *= 1.0 / static_cast<double>(count);

    // Backward through layer2.
    const Matrix dw2 = ptc::matmul(h.transposed(), dlogits);
    const Matrix dh = ptc::matmul(dlogits, layer2_.w.transposed());
    // Backward through ReLU.
    Matrix dz1 = dh;
    for (std::size_t i = 0; i < dz1.rows(); ++i)
      for (std::size_t j = 0; j < dz1.cols(); ++j)
        if (z1(i, j) <= 0.0) dz1(i, j) = 0.0;
    const Matrix dw1 = ptc::matmul(x.transposed(), dz1);

    // SGD update.
    layer2_.w -= learning_rate * dw2;
    layer1_.w -= learning_rate * dw1;
    for (std::size_t j = 0; j < layer2_.b.size(); ++j) {
      double g = 0.0;
      for (std::size_t i = 0; i < count; ++i) g += dlogits(i, j);
      layer2_.b[j] -= learning_rate * g;
    }
    for (std::size_t j = 0; j < layer1_.b.size(); ++j) {
      double g = 0.0;
      for (std::size_t i = 0; i < count; ++i) g += dz1(i, j);
      layer1_.b[j] -= learning_rate * g;
    }
    ++batches;
  }
  // The weights changed: rebuild the graph over the new values.
  graph_ = graph::mlp_graph(layer1_.w, layer1_.b, layer2_.w, layer2_.b);
  return loss_sum / static_cast<double>(data.size());
}

}  // namespace ptc::nn
