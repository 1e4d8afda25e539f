#include <gtest/gtest.h>

#include <cmath>

#include "nn/backend.hpp"
#include "nn/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "nn/quant.hpp"

namespace {

using namespace ptc;
using namespace ptc::nn;

TEST(SignedMapping, RoundTrip) {
  const Matrix w{{-2.0, 1.0}, {0.5, 2.0}};
  const auto mapping = signed_mapping_for(w);
  EXPECT_DOUBLE_EQ(mapping.scale, 2.0);
  EXPECT_DOUBLE_EQ(mapping.to_unit(-2.0), 0.0);  // -scale -> 0
  EXPECT_DOUBLE_EQ(mapping.to_unit(2.0), 1.0);   // +scale -> 1
  EXPECT_DOUBLE_EQ(mapping.to_unit(1.0), 0.75);
  // The readout undoes the offset digitally: w = (2u - 1) * scale.
  for (double v : {-2.0, -0.3, 0.0, 1.7, 2.0}) {
    EXPECT_NEAR((2.0 * mapping.to_unit(v) - 1.0) * mapping.scale, v, 1e-12);
  }
  EXPECT_DOUBLE_EQ(signed_mapping_for(Matrix(2, 2)).scale, 1.0);  // all 0
}

TEST(Quant, NormalizeActivations) {
  const Matrix x{{0.0, 2.0}, {1.0, 4.0}};
  Matrix out;
  const double scale = normalized_activations(x, out);
  EXPECT_DOUBLE_EQ(scale, 4.0);
  EXPECT_DOUBLE_EQ(out(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(x(1, 1), 4.0);  // the input is left untouched
  EXPECT_THROW(normalized_activations(Matrix{{-1.0}}, out),
               std::invalid_argument);
}

TEST(Layers, DenseForwardWithBias) {
  FloatBackend backend;
  DenseLayer layer(2, 2);
  layer.w = Matrix{{1.0, 0.0}, {0.0, 2.0}};
  layer.b = {0.5, -0.5};
  const Matrix y = layer.forward(backend, Matrix{{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 1.5);
}

TEST(Layers, ReluSoftmaxArgmax) {
  const Matrix r = relu(Matrix{{-1.0, 2.0, 0.0}});
  EXPECT_DOUBLE_EQ(r(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r(0, 1), 2.0);

  const Matrix p = softmax(Matrix{{0.0, 0.0}, {100.0, 0.0}});
  EXPECT_NEAR(p(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(p(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);

  const auto am = argmax_rows(Matrix{{1.0, 3.0, 2.0}, {9.0, 0.0, 1.0}});
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);
}

TEST(Layers, Im2colShapeAndContent) {
  Matrix img(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) img(i, j) = i * 4.0 + j;
  const Matrix patches = im2col(img, 3);
  EXPECT_EQ(patches.rows(), 4u);  // 2x2 output positions
  EXPECT_EQ(patches.cols(), 9u);
  EXPECT_DOUBLE_EQ(patches(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(patches(0, 8), 10.0);   // img(2,2)
  EXPECT_DOUBLE_EQ(patches(3, 0), 5.0);    // patch at (1,1) starts at img(1,1)
}

TEST(Layers, ConvMatchesDirectComputation) {
  FloatBackend backend;
  Matrix img(5, 5, 0.0);
  img(2, 2) = 1.0;  // impulse
  Matrix kernel{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const Matrix out = conv2d(backend, img, kernel);
  EXPECT_EQ(out.rows(), 3u);
  // Correlation of an impulse: out(i, j) = kernel(2 - i, 2 - j).
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(out(2 - i, 2 - j), kernel(i, j));
}

TEST(Dataset, DeterministicGivenSeed) {
  Rng a(5), b(5);
  const auto d1 = make_dataset(50, a);
  const auto d2 = make_dataset(50, b);
  EXPECT_EQ(d1.labels, d2.labels);
  EXPECT_LT(d1.inputs.max_abs_diff(d2.inputs), 1e-15);
}

TEST(Dataset, ShapesAndRanges) {
  Rng rng(9);
  const auto data = make_dataset(100, rng, 0.2);
  EXPECT_EQ(data.size(), 100u);
  EXPECT_EQ(data.inputs.rows(), 100u);
  EXPECT_EQ(data.inputs.cols(), glyph_pixels);
  for (double v : data.inputs.data()) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
  for (auto label : data.labels) ASSERT_LT(label, glyph_classes);
}

TEST(Dataset, GlyphsAreDistinct) {
  for (std::size_t a = 0; a < glyph_classes; ++a) {
    for (std::size_t b = a + 1; b < glyph_classes; ++b) {
      EXPECT_GT(glyph(a).max_abs_diff(glyph(b)), 0.5)
          << "glyphs " << a << " and " << b << " are identical";
    }
  }
}

TEST(Mlp, TrainsToHighAccuracyInFloat) {
  Rng rng(13);
  const auto train = make_dataset(400, rng, 0.1);
  const auto test = make_dataset(100, rng, 0.1);
  Mlp mlp(glyph_pixels, 24, glyph_classes, rng);
  FloatBackend backend;
  for (int epoch = 0; epoch < 30; ++epoch) {
    mlp.train_epoch(train, 0.1, 16, rng);
  }
  EXPECT_GT(mlp.accuracy(backend, test), 0.95);
}

TEST(Mlp, LossDecreasesDuringTraining) {
  Rng rng(17);
  const auto train = make_dataset(200, rng, 0.1);
  Mlp mlp(glyph_pixels, 16, glyph_classes, rng);
  const double first = mlp.train_epoch(train, 0.1, 16, rng);
  double last = first;
  for (int epoch = 0; epoch < 25; ++epoch) {
    last = mlp.train_epoch(train, 0.1, 16, rng);
  }
  EXPECT_LT(last, 0.5 * first);
}

TEST(PhotonicBackend, MatchesFloatOnSmallMatmul) {
  core::TensorCore tc;
  PhotonicBackendOptions options;
  options.quantize_output = false;  // isolate the analog path
  PhotonicBackend photonic(tc, options);
  FloatBackend reference;

  Rng rng(21);
  Matrix x(2, 16);
  for (double& v : x.data()) v = rng.uniform();
  Matrix w(16, 16);
  for (double& v : w.data()) v = rng.uniform(-1.0, 1.0);

  const Matrix expected = reference.matmul(x, w);
  const Matrix actual = photonic.matmul(x, w);
  ASSERT_EQ(actual.rows(), 2u);
  ASSERT_EQ(actual.cols(), 16u);
  // 3-bit weights + analog readout: error dominated by weight quantization.
  double worst = expected.max_abs_diff(actual);
  EXPECT_LT(worst, 1.3);  // |x|<=1, 16 terms, ~0.07 scale quant error each
  EXPECT_GT(worst, 0.0);
}

TEST(PhotonicBackend, HandlesNonTileShapesByPadding) {
  core::TensorCore tc;
  PhotonicBackendOptions options;
  options.quantize_output = false;
  PhotonicBackend photonic(tc, options);
  FloatBackend reference;

  Rng rng(23);
  Matrix x(1, 9);
  for (double& v : x.data()) v = rng.uniform();
  Matrix w(9, 5);
  for (double& v : w.data()) v = rng.uniform(-0.5, 0.5);

  const Matrix expected = reference.matmul(x, w);
  const Matrix actual = photonic.matmul(x, w);
  ASSERT_EQ(actual.cols(), 5u);
  EXPECT_LT(expected.max_abs_diff(actual), 0.6);
}

TEST(PhotonicBackend, CountsTileLoads) {
  core::TensorCore tc;
  PhotonicBackend photonic(tc);
  Matrix x(1, 32, 0.5);
  Matrix w(32, 32, 0.1);
  photonic.matmul(x, w);
  // 2 k-tiles x 2 m-tiles.
  EXPECT_EQ(photonic.tile_loads(), 4u);
  EXPECT_NEAR(photonic.reload_time() * 1e9, 4 * 2.4, 1e-6);
}

TEST(PhotonicBackend, QuantizedOutputStillCorrelates) {
  core::TensorCore tc;
  PhotonicBackend photonic(tc);  // with 3-bit ADC quantization
  FloatBackend reference;
  Rng rng(31);
  Matrix x(4, 16);
  for (double& v : x.data()) v = rng.uniform();
  Matrix w(16, 4);
  for (double& v : w.data()) v = rng.uniform(-1.0, 1.0);
  const Matrix expected = reference.matmul(x, w);
  const Matrix actual = photonic.matmul(x, w);
  // Coarse 8-level readout: require sign+trend agreement, not tightness.
  int agree = 0, total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      ++total;
      if (std::abs(expected(i, j) - actual(i, j)) < 2.5) ++agree;
    }
  }
  EXPECT_GE(agree, total - 2);
}

}  // namespace
