// Image convolution through the graph compiler: Sobel edge detection over a
// synthetic scene, expressed as a one-step conv2d graph (both Sobel kernels
// as output channels) run on the accelerator fleet — im2col
// gathers every output position into a single stacked matmul, so the whole
// image streams through each kernel-tile residency in one pass (paper refs
// [30], [49]).
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "nn/backend.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"

namespace {

void print_ascii(const ptc::Matrix& m, const char* title) {
  std::cout << title << "\n";
  double max_abs = 1e-12;
  for (double v : m.data()) max_abs = std::max(max_abs, std::fabs(v));
  const char* shades = " .:-=+*#%@";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    std::cout << "  ";
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const auto level = static_cast<std::size_t>(
          std::min(9.0, std::fabs(m(i, j)) / max_abs * 9.0));
      std::cout << shades[level];
    }
    std::cout << "\n";
  }
}

/// Channel `ch` of a flattened {h, w, c} graph output row, as an h x w image.
ptc::Matrix channel(const ptc::Matrix& row, const ptc::graph::Shape& shape,
                    std::size_t ch) {
  ptc::Matrix out(shape.height(), shape.width());
  for (std::size_t i = 0; i < out.rows(); ++i)
    for (std::size_t j = 0; j < out.cols(); ++j)
      out(i, j) =
          row(0, (i * shape.width() + j) * shape.channels() + ch);
  return out;
}

}  // namespace

int main() {
  using namespace ptc;

  // Synthetic scene: a bright box on a dark background.
  constexpr std::size_t kSide = 12;
  const graph::Shape input_shape{{kSide, kSide, 1}};
  Matrix img(1, kSide * kSide, 0.05);
  for (std::size_t i = 3; i < 9; ++i)
    for (std::size_t j = 4; j < 10; ++j) img(0, i * kSide + j) = 0.9;
  print_ascii(channel(img, input_shape, 0), "input image (12x12)");

  // Both Sobel kernels as the two output channels of one conv2d step,
  // flattened (di, dj) into the im2col weight layout.
  const double sobel_x[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  const double sobel_y[9] = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
  Matrix kernels(9, 2);
  for (std::size_t i = 0; i < 9; ++i) {
    kernels(i, 0) = sobel_x[i];
    kernels(i, 1) = sobel_y[i];
  }

  graph::Graph g(input_shape);
  g.conv2d(kernels, 3);

  nn::PhotonicBackendOptions options;
  options.quantize_output = false;
  options.differential_weights = true;

  runtime::Accelerator accelerator({.cores = 4});
  runtime::AcceleratorBackend fleet(accelerator, options);
  nn::FloatBackend reference;

  const Matrix ref = graph::run(g, reference, img);
  const Matrix pho = graph::run(g, fleet, img);
  // Snapshot the fleet stats so the printed counts cover one frame only.
  const runtime::AcceleratorStats frame_stats = accelerator.stats();

  // Energy accrues on the eoADC sampling path, so run the full hardware
  // readout (3-bit conversions) once for the energy accounting.
  nn::PhotonicBackendOptions quantized = options;
  quantized.quantize_output = true;
  runtime::AcceleratorBackend fleet_quantized(accelerator, quantized);
  const double energy_before = accelerator.fleet_ledger().total_energy();
  graph::run(g, fleet_quantized, img);
  const double energy =
      accelerator.fleet_ledger().total_energy() - energy_before;

  const graph::Shape& out_shape = g.output_shape();
  const Matrix gx = channel(pho, out_shape, 0);
  const Matrix gy = channel(pho, out_shape, 1);
  print_ascii(gx, "\nphotonic Sobel-X response");
  print_ascii(gy, "\nphotonic Sobel-Y response");

  // Gradient magnitude from the photonic passes.
  Matrix magnitude(gx.rows(), gx.cols());
  for (std::size_t i = 0; i < magnitude.rows(); ++i)
    for (std::size_t j = 0; j < magnitude.cols(); ++j)
      magnitude(i, j) = std::hypot(gx(i, j), gy(i, j));
  print_ascii(magnitude, "\nphotonic gradient magnitude (edges)");

  const core::TensorCore& probe = accelerator.core(0);
  std::cout << "\ncompiled schedule ("
            << accelerator.core_count() << "-core fleet, " << probe.rows()
            << "x" << probe.cols() << " tiles, differential weights):\n"
            << g.schedule_dump(probe.rows(), probe.cols(),
                               options.differential_weights);

  std::cout << "\nphotonic vs float Sobel max deviation: "
            << TablePrinter::num(ref.max_abs_diff(pho), 3)
            << " (3-bit weight quantization)\n"
            << "weight tiles loaded per frame: " << frame_stats.tile_loads
            << ", total pSRAM reload time "
            << TablePrinter::num(frame_stats.reload_time * 1e9, 4)
            << " ns\nfull hardware path (3-bit eoADC readout): "
            << TablePrinter::num(energy * 1e9, 4)
            << " nJ per frame ("
            << TablePrinter::num(energy * 1e12 /
                                     static_cast<double>(out_shape.size()),
                                 4)
            << " pJ per output value)\n";
  return 0;
}
