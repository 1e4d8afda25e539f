#ifndef PTC_NN_MLP_HPP
#define PTC_NN_MLP_HPP

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "nn/dataset.hpp"
#include "nn/layers.hpp"

/// Two-layer MLP (dense -> ReLU -> dense) with a plain SGD trainer.
/// Training runs in float; inference executes the model's graph (see
/// graph/graph.hpp) on any backend — bit-identical to the direct DenseLayer
/// path, which is how the digit-classifier example compares float vs
/// photonic accuracy.
namespace ptc::nn {

class Mlp {
 public:
  /// Architecture: in -> hidden (ReLU) -> out.
  Mlp(std::size_t in, std::size_t hidden, std::size_t out, Rng& rng);

  /// The model as a graph over its current weights:
  /// input -> dense -> relu -> dense.
  const graph::Graph& graph() const { return graph_; }

  /// Logits for a batch through the given backend, via graph() (built at
  /// construction and after each training epoch, so forward() is read-only
  /// and thread-compatible).
  Matrix forward(MatmulBackend& backend, const Matrix& x) const;

  /// Predicted class per sample.
  std::vector<std::size_t> predict(MatmulBackend& backend,
                                   const Matrix& x) const;

  /// Fraction of correct predictions on the dataset.
  double accuracy(MatmulBackend& backend, const Dataset& data) const;

  /// One epoch of minibatch SGD with cross-entropy loss (float only).
  /// Returns the mean loss over the epoch.
  double train_epoch(const Dataset& data, double learning_rate,
                     std::size_t batch_size, Rng& rng);

  const DenseLayer& layer1() const { return layer1_; }
  const DenseLayer& layer2() const { return layer2_; }

 private:
  DenseLayer layer1_;
  DenseLayer layer2_;
  /// Over the current weights; rebuilt after training.
  graph::Graph graph_;
};

}  // namespace ptc::nn

#endif  // PTC_NN_MLP_HPP
