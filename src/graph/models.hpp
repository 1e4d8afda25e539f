#ifndef PTC_GRAPH_MODELS_HPP
#define PTC_GRAPH_MODELS_HPP

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

/// Ready-made graph builders for the architectures the examples, benches,
/// and serving layer exercise: the two-layer MLP (nn::Mlp's graph) and
/// the conv -> pool -> dense digit CNN.
namespace ptc::graph {

/// input {w1.rows()} -> dense(w1, b1) -> relu -> dense(w2, b2).  This is
/// nn::Mlp's graph; executing it reproduces the direct backend path bit for
/// bit.
Graph mlp_graph(const Matrix& w1, const std::vector<double>& b1,
                const Matrix& w2, const std::vector<double>& b2);

/// Fixed 3x3 single-channel feature bank (oriented edge and blob kernels)
/// as a conv2d weight matrix (9 x channels), channels in [1, 8].  A frozen
/// feature extractor: the CNN examples train only the dense head, the
/// standard trick when the analog substrate does inference-only conv.
Matrix edge_kernel_bank(std::size_t channels);

/// input {h, w, 1} -> conv2d(kernels) -> relu -> maxpool(pool) -> flatten
/// -> dense(w1, b1) -> relu -> dense(w2, b2): the conv -> pool -> dense
/// CNN.  w1.rows() must equal the flattened pooled feature count.
Graph cnn_graph(std::size_t image_h, std::size_t image_w,
                const Matrix& conv_kernels, std::size_t kernel_side,
                std::size_t pool, const Matrix& w1,
                const std::vector<double>& b1, const Matrix& w2,
                const std::vector<double>& b2);

}  // namespace ptc::graph

#endif  // PTC_GRAPH_MODELS_HPP
