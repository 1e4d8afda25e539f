// nn/tiling edge cases the graph executor leans on: shapes that are not
// multiples of the 16x16 tile, k = 1 inner dimensions (1x1 convolutions),
// batch = 1 requests, and single-tile graphs.  Each case checks the plan
// geometry, the float agreement of the photonic path, and the runtime
// contract that an N-core fleet reproduces one photonic core bit for bit.
#include <gtest/gtest.h>

#include <cstddef>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "nn/backend.hpp"
#include "nn/tiling.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"

namespace {

using namespace ptc;
using namespace ptc::nn;

/// Plans x (s x k) times w (k x m) on 16x16 cores as the hot paths do: a
/// weight plan completed for the batch.
TilePlan plan_16x16(const Matrix& x, const Matrix& w, bool differential) {
  Matrix x_norm;
  return plan_from_weights(build_weight_plan(w, 16, 16, differential), x,
                           x_norm);
}

/// Photonic (analog readout, differential weights) vs float reference, plus
/// the fleet-vs-single-core bit-identity, for an s x k times k x m matmul.
void check_shape(std::size_t s, std::size_t k, std::size_t m,
                 std::uint64_t seed) {
  Rng rng(seed);
  const Matrix x = random_activations(s, k, rng);
  const Matrix w = random_signed(k, m, rng);

  FloatBackend reference;
  const Matrix expected = reference.matmul(x, w);

  PhotonicBackendOptions options;
  options.quantize_output = false;
  options.differential_weights = true;

  core::TensorCore core;
  PhotonicBackend photonic(core, options);
  const Matrix single = photonic.matmul(x, w);

  // 3-bit pSRAM weights bound the analog error; the shapes must still agree
  // to within the quantization budget (max |w| * half an LSB per term).
  const double tolerance =
      static_cast<double>(k) * 1.0 / (2.0 * 7.0) + 1e-9;
  EXPECT_LT(single.max_abs_diff(expected), tolerance)
      << "shape " << s << "x" << k << " * " << k << "x" << m;

  runtime::Accelerator accelerator({.cores = 3});
  const Matrix fleet = accelerator.matmul(x, w, options);
  EXPECT_EQ(fleet.max_abs_diff(single), 0.0)
      << "fleet diverged at " << s << "x" << k << " * " << k << "x" << m;
}

TEST(TilingEdgeCases, NonMultipleOf16Shapes) {
  Rng x_rng(1);
  const Matrix x = random_activations(5, 17, x_rng);
  Rng w_rng(2);
  const Matrix w = random_signed(17, 23, w_rng);
  const TilePlan plan = plan_16x16(x, w, false);
  EXPECT_EQ(plan.k_tiles(), 2u);
  EXPECT_EQ(plan.m_tiles(), 2u);
  EXPECT_EQ(plan.passes.size(), 4u);

  Rng x2_rng(3);
  const Matrix x2 = random_activations(5, 17, x2_rng);
  const TilePlan differential = plan_16x16(x2, w, true);
  EXPECT_EQ(differential.passes.size(), 8u);

  check_shape(5, 17, 23, 100);
  check_shape(3, 31, 7, 101);
}

TEST(TilingEdgeCases, InnerDimensionOfOne) {
  // k = 1: one input column drives every output — the 1x1-conv shape.
  Rng x_rng(4);
  const Matrix x = random_activations(4, 1, x_rng);
  Rng w_rng(5);
  const Matrix w = random_signed(1, 20, w_rng);
  const TilePlan plan = plan_16x16(x, w, false);
  EXPECT_EQ(plan.k_tiles(), 1u);
  EXPECT_EQ(plan.m_tiles(), 2u);

  check_shape(4, 1, 20, 102);
  check_shape(1, 1, 1, 103);
}

TEST(TilingEdgeCases, BatchOfOne) {
  // One request row: the latency-critical serving shape.
  Rng x_rng(6);
  const Matrix x = random_activations(1, 40, x_rng);
  Rng w_rng(7);
  const Matrix w = random_signed(40, 12, w_rng);
  const TilePlan plan = plan_16x16(x, w, false);
  EXPECT_EQ(plan.samples, 1u);
  EXPECT_EQ(plan.passes.size(), 3u);  // ceil(40/16) x ceil(12/16)

  check_shape(1, 40, 12, 104);
}

TEST(TilingEdgeCases, SingleTileFitsWithoutPaddingArtifacts) {
  // Shapes inside one 16x16 tile: exactly one pass, and the zero-padded
  // tail columns must contribute nothing.
  Rng x_rng(8);
  const Matrix x = random_activations(4, 8, x_rng);
  Rng w_rng(9);
  const Matrix w = random_signed(8, 8, w_rng);
  const TilePlan plan = plan_16x16(x, w, false);
  EXPECT_EQ(plan.passes.size(), 1u);

  check_shape(4, 8, 8, 105);
  check_shape(2, 16, 16, 106);  // exact tile boundary
}

TEST(TilingEdgeCases, PassesCheckEachMatrixShapeOnce) {
  // run_tile_pass and accumulate_pass index rows through pointers, so each
  // checks the shape of every matrix it reads or writes once per call.
  Rng rng(77);
  const Matrix x = random_activations(5, 20, rng);
  const Matrix w = random_signed(20, 18, rng);
  Matrix x_norm;
  const TilePlan plan =
      plan_from_weights(build_weight_plan(w, 16, 16, false), x, x_norm);
  core::TensorCore core;
  const PhotonicBackendOptions options;
  const TilePassResult pass = run_tile_pass(core, plan, 0, x_norm, options);
  Matrix y(plan.samples, plan.m, 0.0);
  EXPECT_NO_THROW(accumulate_pass(y, plan, plan.passes[0], pass.contribution));

  // An x_norm narrower than k, even for the first k tile, which it covers.
  const Matrix narrow(plan.samples, plan.k - 1, 0.5);
  EXPECT_THROW(run_tile_pass(core, plan, 0, narrow, options),
               std::invalid_argument);
  // A contribution that is not samples x tile_m.
  for (const Matrix& bad : {Matrix(plan.samples, plan.tile_m - 1),
                            Matrix(plan.samples + 1, plan.tile_m)}) {
    EXPECT_THROW(accumulate_pass(y, plan, plan.passes[0], bad),
                 std::invalid_argument);
  }
  // A result that is not samples x m.
  for (Matrix bad : {Matrix(plan.samples, plan.m - 1),
                     Matrix(plan.samples + 1, plan.m)}) {
    EXPECT_THROW(accumulate_pass(bad, plan, plan.passes[0], pass.contribution),
                 std::invalid_argument);
  }
}

TEST(TilingEdgeCases, TilePassesCountsTheBuiltPassList) {
  // nn::tile_passes is the size of build_weight_plan's pass list: ragged
  // and exact shapes, square and non-square tiles, offset and differential.
  Rng rng(12);
  const std::size_t shapes[][2] = {{17, 23}, {16, 16}, {32, 48}, {1, 20},
                                   {40, 12}};
  const std::size_t tiles[][2] = {{16, 16}, {8, 4}};
  for (const auto& [k, m] : shapes) {
    const Matrix w = random_signed(k, m, rng);
    for (const auto& [tile_m, tile_k] : tiles) {
      for (const bool differential : {false, true}) {
        EXPECT_EQ(tile_passes(k, m, tile_m, tile_k, differential),
                  build_weight_plan(w, tile_m, tile_k, differential)
                      ->passes.size())
            << k << "x" << m << " on " << tile_m << "x" << tile_k
            << (differential ? " differential" : " offset");
      }
    }
  }
}

TEST(TilingEdgeCases, SingleTileGraphRunsOnTheFleetBitIdentically) {
  // A whole graph whose every matmul is one tile — the smallest schedule
  // the serving layer can mark fully resident.
  Rng rng(10);
  graph::Graph g(graph::Shape{{8}});
  g.matmul(random_signed(8, 8, rng)).bias(std::vector<double>(8, 0.1)).relu();
  EXPECT_EQ(g.pass_profile(16, 16, false).total_passes, 1u);

  Rng data_rng(11);
  const Matrix input = random_activations(6, 8, data_rng);

  PhotonicBackendOptions options;
  options.differential_weights = true;
  core::TensorCore core;
  PhotonicBackend photonic(core, options);
  const Matrix single = graph::run(g, photonic, input);

  runtime::Accelerator accelerator({.cores = 5});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix multi = graph::run(g, fleet, input);
  EXPECT_EQ(multi.max_abs_diff(single), 0.0);
}

}  // namespace
