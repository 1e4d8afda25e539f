#include "graph/models.hpp"

#include "common/expects.hpp"

namespace ptc::graph {

Graph mlp_graph(const Matrix& w1, const std::vector<double>& b1,
                const Matrix& w2, const std::vector<double>& b2) {
  Graph g(Shape{{w1.rows()}});
  g.matmul(w1).bias(b1).relu().matmul(w2).bias(b2);
  return g;
}

Matrix edge_kernel_bank(std::size_t channels) {
  expects(channels >= 1 && channels <= 8,
          "edge kernel bank provides 1..8 channels");
  // Oriented edges (Sobel x/y, two diagonals), a center-surround blob, a
  // center tap, and horizontal/vertical bars.
  const double bank[8][9] = {
      {-1, 0, 1, -2, 0, 2, -1, 0, 1},       // vertical edge (Sobel x)
      {-1, -2, -1, 0, 0, 0, 1, 2, 1},       // horizontal edge (Sobel y)
      {-2, -1, 0, -1, 0, 1, 0, 1, 2},       // diagonal edge (\)
      {0, -1, -2, 1, 0, -1, 2, 1, 0},       // diagonal edge (/)
      {-1, -1, -1, -1, 8, -1, -1, -1, -1},  // center-surround (Laplacian)
      {0, 0, 0, 0, 1, 0, 0, 0, 0},          // center tap (identity)
      {1, 1, 1, 0, 0, 0, -1, -1, -1},       // horizontal bar
      {1, 0, -1, 1, 0, -1, 1, 0, -1},       // vertical bar
  };
  Matrix kernels(9, channels);
  for (std::size_t ch = 0; ch < channels; ++ch)
    for (std::size_t i = 0; i < 9; ++i) kernels(i, ch) = bank[ch][i];
  return kernels;
}

Graph cnn_graph(std::size_t image_h, std::size_t image_w,
                const Matrix& conv_kernels, std::size_t kernel_side,
                std::size_t pool, const Matrix& w1,
                const std::vector<double>& b1, const Matrix& w2,
                const std::vector<double>& b2) {
  Graph g(Shape{{image_h, image_w, 1}});
  g.conv2d(conv_kernels, kernel_side)
      .relu()
      .maxpool(pool)
      .flatten()
      .matmul(w1)
      .bias(b1)
      .relu()
      .matmul(w2)
      .bias(b2);
  return g;
}

}  // namespace ptc::graph
