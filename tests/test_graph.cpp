// Graph compiler: the chain builder's validation, shape inference and
// epilogue fusion, the executor against every backend, and the subsystem's
// two contracts — (1) an nn::Mlp run through its graph reproduces the
// direct backend path bit for bit, and (2) a conv -> pool -> dense CNN
// runs on the multi-core fleet bit-identically to a single photonic core,
// and serves through serve::Server with warm residency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/models.hpp"
#include "nn/backend.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "golden.hpp"

namespace {

using namespace ptc;
using namespace ptc::graph;

// ---------------------------------------------------------------------------
// Builder: shapes, validation, shape inference
// ---------------------------------------------------------------------------

TEST(GraphIr, ShapeSizeAndFormatting) {
  EXPECT_EQ((Shape{{8, 8, 1}}).size(), 64u);
  EXPECT_EQ((Shape{{54}}).size(), 54u);
  EXPECT_EQ((Shape{{6, 5, 3}}).str(), "6x5x3");
  EXPECT_TRUE((Shape{{6, 5, 3}}).is_image());
  EXPECT_FALSE((Shape{{30}}).is_image());
  EXPECT_EQ((Shape{{6, 5, 3}}).channels(), 3u);
  EXPECT_EQ((Shape{{30}}).channels(), 30u);
}

TEST(GraphIr, BuilderInfersShapesThroughACnn) {
  Graph g(Shape{{8, 8, 1}});
  EXPECT_EQ(g.output_shape(), (Shape{{8, 8, 1}}));
  g.conv2d(Matrix(9, 6), 3);
  EXPECT_EQ(g.output_shape(), (Shape{{6, 6, 6}}));
  g.relu().maxpool(2);
  EXPECT_EQ(g.output_shape(), (Shape{{3, 3, 6}}));
  g.flatten();
  EXPECT_EQ(g.output_shape(), (Shape{{54}}));
  g.matmul(Matrix(54, 10));
  EXPECT_EQ(g.output_shape(), (Shape{{10}}));
  EXPECT_EQ(g.steps().back().out_shape, g.output_shape());
  EXPECT_EQ(g.input_shape(), (Shape{{8, 8, 1}}));
}

TEST(GraphIr, BuilderRejectsIllFormedWiring) {
  Graph g(Shape{{4, 4, 1}});
  EXPECT_THROW(g.matmul(Matrix(16, 4)), std::invalid_argument);  // image
  EXPECT_THROW(g.conv2d(Matrix(8, 2), 3), std::invalid_argument);  // rows
  EXPECT_THROW(g.conv2d(Matrix(25, 2), 5), std::invalid_argument);  // big
  EXPECT_THROW(g.maxpool(5), std::invalid_argument);  // window too big
  EXPECT_THROW(g.bias(std::vector<double>(3, 0.0)),
               std::invalid_argument);  // bias length != channels
  g.flatten();
  EXPECT_THROW(g.matmul(Matrix(9, 4)), std::invalid_argument);  // width
}

// What a builder precondition actually said when it fired.
template <typename F>
std::string builder_error(F&& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(GraphIr, BuilderRejectsMalformedInputShapes) {
  EXPECT_THROW(Graph(Shape{{4, 4}}), std::invalid_argument);
  EXPECT_THROW(Graph(Shape{{}}), std::invalid_argument);
  EXPECT_THROW(Graph(Shape{{0}}), std::invalid_argument);
  EXPECT_THROW(Graph((Shape{{4, 4, 0}})), std::invalid_argument);
}

TEST(GraphIr, BuilderRejectsDegenerateOperators) {
  Graph g(Shape{{4, 4, 1}});
  EXPECT_THROW(g.conv2d(Matrix(0, 0), 0), std::invalid_argument);
  EXPECT_THROW(g.conv2d(Matrix(9, 0), 3), std::invalid_argument);
  EXPECT_THROW(g.maxpool(0), std::invalid_argument);
  g.flatten();
  EXPECT_THROW(g.matmul(Matrix(16, 0)), std::invalid_argument);
  EXPECT_THROW(g.flatten(), std::invalid_argument);  // already rank 1
  EXPECT_THROW(g.maxpool(2), std::invalid_argument);  // vector maxpool
  EXPECT_THROW(g.conv2d(Matrix(9, 2), 3), std::invalid_argument);
}

TEST(GraphIr, ShapeMismatchDiagnosticsCarryTheActualShapes) {
  Graph g(Shape{{4, 4, 2}});
  const std::string bias_what =
      builder_error([&] { g.bias(std::vector<double>(5, 0.0)); });
  EXPECT_NE(bias_what.find("5"), std::string::npos);
  EXPECT_NE(bias_what.find("4x4x2"), std::string::npos);

  const std::string conv_what =
      builder_error([&] { g.conv2d(Matrix(9, 3), 3); });
  EXPECT_NE(conv_what.find("9 rows"), std::string::npos);
  EXPECT_NE(conv_what.find("18"), std::string::npos);  // 3*3*2 expected rows

  const std::string pool_what = builder_error([&] { g.maxpool(9); });
  EXPECT_NE(pool_what.find("9"), std::string::npos);
  EXPECT_NE(pool_what.find("4x4x2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Steps: step selection and epilogue fusion
// ---------------------------------------------------------------------------

TEST(GraphCompile, MlpLowersToTwoFusedMatmulSteps) {
  Rng rng(7);
  const Graph g =
      mlp_graph(random_signed(12, 8, rng), std::vector<double>(8, 0.1),
                random_signed(8, 4, rng), std::vector<double>(4, 0.0));
  const std::vector<Step>& steps = g.steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, Step::Kind::kMatmul);
  ASSERT_EQ(steps[0].epilogue.size(), 2u);
  EXPECT_EQ(steps[0].epilogue[0].kind, EpilogueOp::Kind::kBias);
  EXPECT_EQ(steps[0].epilogue[1].kind, EpilogueOp::Kind::kRelu);
  EXPECT_EQ(steps[1].kind, Step::Kind::kMatmul);
  ASSERT_EQ(steps[1].epilogue.size(), 1u);
  EXPECT_EQ(steps[1].epilogue[0].kind, EpilogueOp::Kind::kBias);
  EXPECT_EQ(g.input_size(), 12u);
  EXPECT_EQ(g.output_size(), 4u);
}

TEST(GraphCompile, CnnLowersToFourStepsAndFlattenDisappears) {
  Rng rng(7);
  const Graph g = cnn_graph(
      8, 8, edge_kernel_bank(6), 3, 2, random_signed(54, 32, rng),
      std::vector<double>(32, 0.0), random_signed(32, 10, rng),
      std::vector<double>(10, 0.0));
  const std::vector<Step>& steps = g.steps();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0].kind, Step::Kind::kConv2d);
  ASSERT_EQ(steps[0].epilogue.size(), 1u);
  EXPECT_EQ(steps[0].epilogue[0].kind, EpilogueOp::Kind::kRelu);
  EXPECT_EQ(steps[0].rows_per_sample(), 36u);
  EXPECT_EQ(steps[1].kind, Step::Kind::kMaxPool);
  // flatten fused into the maxpool step's output shape: rank 1 already.
  EXPECT_EQ(steps[1].out_shape, (Shape{{54}}));
  EXPECT_EQ(steps[2].kind, Step::Kind::kMatmul);
  EXPECT_EQ(steps[3].kind, Step::Kind::kMatmul);
  EXPECT_EQ(g.output_size(), 10u);
}

TEST(GraphCompile, ElementwiseOnTheInputLowersToAHostStep) {
  // No step precedes the bias, so it opens a host step; the relu and the
  // flatten fuse into it.
  Graph g(Shape{{2, 2, 3}});
  g.bias({0.5, -1.0, 0.25}).relu().flatten().matmul(Matrix(12, 2));
  const std::vector<Step>& steps = g.steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, Step::Kind::kElementwise);
  EXPECT_EQ(steps[0].label, "bias +relu");
  EXPECT_EQ(steps[0].out_shape, (Shape{{12}}));
  EXPECT_EQ(steps[1].kind, Step::Kind::kMatmul);
  EXPECT_EQ(steps[1].in_shape, (Shape{{12}}));
}

TEST(GraphCompile, PassProfileCountsTilesPerStep) {
  Rng rng(7);
  const Graph g = cnn_graph(
      8, 8, edge_kernel_bank(6), 3, 2, random_signed(54, 32, rng),
      std::vector<double>(32, 0.0), random_signed(32, 10, rng),
      std::vector<double>(10, 0.0));
  const PassProfile offset = g.pass_profile(16, 16, false);
  ASSERT_EQ(offset.steps.size(), 3u);  // conv, dense, dense
  EXPECT_EQ(offset.steps[0].passes, 1u);           // 9x6 -> one tile
  EXPECT_EQ(offset.steps[0].rows_per_sample, 36u);  // 6x6 positions
  EXPECT_EQ(offset.steps[1].passes, 8u);  // ceil(54/16) * ceil(32/16)
  EXPECT_EQ(offset.steps[2].passes, 2u);  // ceil(32/16) * ceil(10/16)
  EXPECT_EQ(offset.total_passes, 11u);
  EXPECT_EQ(g.pass_profile(16, 16, true).total_passes, 22u);

  const std::string schedule = g.schedule_dump(16, 16, false);
  EXPECT_NE(schedule.find("conv2d 3x3 -> 6ch +relu"), std::string::npos);
  EXPECT_NE(schedule.find("11 weight-tile passes"), std::string::npos);
}

TEST(GraphCompile, ServedSchedulesMatchTheCommittedGolden) {
  // The schedule of every graph the benchmark's mlp_serving workload
  // serves (two MLPs and the CNN), pinned byte for byte under both weight
  // encodings.
  Rng rng(99);
  const nn::Mlp stream(64, 32, 10, rng);
  const nn::Mlp resident(32, 16, 10, rng);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"mlp 64-32-10", stream.graph()},
      {"mlp 32-16-10", resident.graph()},
      {"cnn 8x8", cnn_graph(8, 8, edge_kernel_bank(4), 3, 2,
                            random_signed(36, 16, rng),
                            std::vector<double>(16, 0.0),
                            random_signed(16, 10, rng),
                            std::vector<double>(10, 0.0))}};
  std::string dumps;
  for (const auto& [name, graph] : graphs) {
    for (const bool differential : {false, true}) {
      dumps += "== " + name + (differential ? " (differential)" : " (offset)") +
               "\n" + graph.schedule_dump(16, 16, differential);
    }
  }
  golden::expect_matches(dumps, "schedules.txt");
}

TEST(GraphIr, MatmulAndConvRejectOperandsThatMayBeNegative) {
  // The photonic input is intensity-encoded: a matmul or conv2d operand
  // must be the graph input, a relu, or a maxpool / flatten of one.
  Rng rng(53);
  Graph g(Shape{{4, 4, 1}});
  g.conv2d(random_signed(4, 2, rng), 2);  // 3x3x2
  EXPECT_THROW(g.conv2d(Matrix(2, 1), 1), std::invalid_argument);
  Graph pooled = g;
  pooled.maxpool(3).flatten();
  EXPECT_THROW(pooled.matmul(Matrix(2, 1)), std::invalid_argument);

  Graph relu = g;
  relu.relu();
  g.relu().bias({0.5, -0.5});  // relu then bias: signed
  const std::string before = g.schedule_dump(16, 16, false);
  EXPECT_THROW(g.conv2d(Matrix(2, 1), 1), std::invalid_argument);
  // A rejected op leaves the graph unchanged.
  EXPECT_EQ(g.schedule_dump(16, 16, false), before);
  EXPECT_EQ(g.output_shape(), (Shape{{3, 3, 2}}));
  // The diagnostic names the op and the value's shape.
  const std::string what = builder_error([&] { g.conv2d(Matrix(2, 1), 1); });
  EXPECT_NE(what.find("conv2d operand 3x3x2 may be negative"),
            std::string::npos);

  // Provably non-negative operands are accepted.
  EXPECT_NO_THROW(Graph{relu}.maxpool(1).conv2d(Matrix(2, 1), 1));
  EXPECT_NO_THROW(Graph{relu}.maxpool(3).flatten().matmul(Matrix(2, 1)));
  EXPECT_NO_THROW(Graph(Shape{{4, 4, 1}}).flatten().matmul(Matrix(16, 1)));
}

// ---------------------------------------------------------------------------
// Executor: float semantics
// ---------------------------------------------------------------------------

TEST(GraphExecutor, ConvMatchesHandComputedValidConvolution) {
  Matrix kernel(4, 1);  // 2x2 kernel {{1, 2}, {3, 4}} flattened (di, dj)
  kernel(0, 0) = 1.0;
  kernel(1, 0) = 2.0;
  kernel(2, 0) = 3.0;
  kernel(3, 0) = 4.0;
  Graph g(Shape{{3, 3, 1}});
  g.conv2d(kernel, 2);

  Matrix x(1, 9);
  for (std::size_t i = 0; i < 9; ++i) x(0, i) = static_cast<double>(i);
  nn::FloatBackend backend;
  const Matrix y = run(g, backend, x);
  ASSERT_EQ(y.cols(), 4u);  // 2x2x1 output
  // Window at (0,0): 1*0 + 2*1 + 3*3 + 4*4 = 27, then +1 per column step,
  // +3 per row step, scaled by the kernel sum (10).
  EXPECT_DOUBLE_EQ(y(0, 0), 27.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 37.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 57.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 67.0);
}

TEST(GraphExecutor, MultiChannelConvSumsOverInputChannels) {
  // 1x1 kernel over a 2-channel image: output = 1*ch0 + 10*ch1.
  Matrix kernel(2, 1);
  kernel(0, 0) = 1.0;
  kernel(1, 0) = 10.0;
  Graph g(Shape{{1, 2, 2}});
  g.conv2d(kernel, 1);

  Matrix x(1, 4);  // layout (i*w + j) * c + ch
  x(0, 0) = 1.0;  // (0,0) ch0
  x(0, 1) = 2.0;  // (0,0) ch1
  x(0, 2) = 3.0;  // (0,1) ch0
  x(0, 3) = 4.0;  // (0,1) ch1
  nn::FloatBackend backend;
  const Matrix y = run(g, backend, x);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 21.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 43.0);
}

TEST(GraphExecutor, MaxPoolTakesWindowMaximaPerChannel) {
  Graph g(Shape{{2, 4, 2}});
  g.maxpool(2);

  Matrix x(1, 16);
  for (std::size_t i = 0; i < 16; ++i) x(0, i) = static_cast<double>(i);
  nn::FloatBackend backend;
  const Matrix y = run(g, backend, x);
  ASSERT_EQ(y.cols(), 4u);  // 1x2x2
  // Channel 0 maxima of the two 2x2 windows: indices {0,2,8,10} -> 10 and
  // {4,6,12,14} -> 14; channel 1 is one higher.
  EXPECT_DOUBLE_EQ(y(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 11.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 14.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 15.0);
}

TEST(GraphExecutor, ConvViaGraphMatchesNnConv2dSingleChannel) {
  // The executor's stacked im2col agrees with the reference nn::conv2d.
  Rng rng(11);
  Matrix img(6, 6);
  for (double& v : img.data()) v = rng.uniform();
  const Matrix sobel{{-1.0, 0.0, 1.0}, {-2.0, 0.0, 2.0}, {-1.0, 0.0, 1.0}};

  nn::FloatBackend backend;
  const Matrix expected = nn::conv2d(backend, img, sobel);

  Matrix kernel(9, 1);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) kernel(idx++, 0) = sobel(i, j);
  Graph g(Shape{{6, 6, 1}});
  g.conv2d(kernel, 3);
  Matrix x(1, 36);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) x(0, i * 6 + j) = img(i, j);
  const Matrix actual = run(g, backend, x);

  ASSERT_EQ(actual.cols(), expected.rows() * expected.cols());
  for (std::size_t i = 0; i < expected.rows(); ++i)
    for (std::size_t j = 0; j < expected.cols(); ++j)
      EXPECT_DOUBLE_EQ(actual(0, i * expected.cols() + j), expected(i, j));
}

TEST(GraphExecutor, RejectsMismatchedInputWidth) {
  Rng rng(29);
  const Graph g =
      mlp_graph(random_signed(12, 8, rng), std::vector<double>(8, 0.0),
                random_signed(8, 4, rng), std::vector<double>(4, 0.0));
  nn::FloatBackend backend;
  EXPECT_THROW(run(g, backend, Matrix(2, 11)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Random chains against a straight-line float interpreter
// ---------------------------------------------------------------------------

/// One op of a random chain, as the fuzz test recorded it.
struct ChainOp {
  enum class Kind { kMatmul, kConv2d, kBias, kRelu, kMaxPool, kFlatten };
  Kind kind = Kind::kRelu;
  Matrix weights;            ///< kMatmul: k x m; kConv2d: (k*k*c) x c_out
  std::vector<double> bias;  ///< kBias: per-channel addends
  std::size_t side = 0;      ///< kConv2d: kernel side; kMaxPool: window
};

/// One sample of shape `in` through the recorded chain, op by op, written
/// from the op definitions in graph.hpp rather than from the builder or
/// the executor.
std::vector<double> interpret(Shape in, const std::vector<ChainOp>& ops,
                              std::vector<double> v) {
  for (const ChainOp& op : ops) {
    const std::size_t c = in.channels();
    Shape out = in;
    std::vector<double> next = v;
    switch (op.kind) {
      case ChainOp::Kind::kMatmul:
        out = Shape{{op.weights.cols()}};
        next.assign(out.size(), 0.0);
        for (std::size_t j = 0; j < out.size(); ++j)
          for (std::size_t i = 0; i < v.size(); ++i)
            next[j] += v[i] * op.weights(i, j);
        break;
      case ChainOp::Kind::kConv2d: {
        const std::size_t k = op.side;
        out = Shape{{in.height() - k + 1, in.width() - k + 1,
                     op.weights.cols()}};
        next.assign(out.size(), 0.0);
        for (std::size_t i = 0; i < out.height(); ++i)
          for (std::size_t j = 0; j < out.width(); ++j)
            for (std::size_t co = 0; co < out.channels(); ++co) {
              double sum = 0.0;
              for (std::size_t di = 0; di < k; ++di)
                for (std::size_t dj = 0; dj < k; ++dj)
                  for (std::size_t ci = 0; ci < c; ++ci)
                    sum += v[((i + di) * in.width() + j + dj) * c + ci] *
                           op.weights((di * k + dj) * c + ci, co);
              next[(i * out.width() + j) * out.channels() + co] = sum;
            }
        break;
      }
      case ChainOp::Kind::kBias:
        for (std::size_t e = 0; e < next.size(); ++e)
          next[e] = v[e] + op.bias[e % op.bias.size()];
        break;
      case ChainOp::Kind::kRelu:
        for (double& e : next) e = std::max(0.0, e);
        break;
      case ChainOp::Kind::kMaxPool: {
        const std::size_t p = op.side;
        out = Shape{{in.height() / p, in.width() / p, c}};
        next.assign(out.size(), 0.0);
        for (std::size_t i = 0; i < out.height(); ++i)
          for (std::size_t j = 0; j < out.width(); ++j)
            for (std::size_t ch = 0; ch < c; ++ch) {
              double m = v[((i * p) * in.width() + j * p) * c + ch];
              for (std::size_t di = 0; di < p; ++di)
                for (std::size_t dj = 0; dj < p; ++dj)
                  m = std::max(
                      m, v[((i * p + di) * in.width() + j * p + dj) * c + ch]);
              next[(i * out.width() + j) * c + ch] = m;
            }
        break;
      }
      case ChainOp::Kind::kFlatten:
        out = Shape{{in.size()}};
        break;
    }
    in = std::move(out);
    v = std::move(next);
  }
  return v;
}

TEST(GraphFuzz, RandomChainsMatchAFloatInterpreter) {
  using Kind = ChainOp::Kind;
  Rng rng(2027);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
  };
  nn::FloatBackend reference;
  core::TensorCore core;
  runtime::Accelerator accelerator({.cores = 3});
  nn::PhotonicBackendOptions differential;
  differential.differential_weights = true;
  nn::PhotonicBackend single(core), single_differential(core, differential);
  runtime::AcceleratorBackend fleet(accelerator),
      fleet_differential(accelerator, differential);

  std::size_t rejected = 0;
  for (std::size_t chain = 0; chain < 300; ++chain) {
    const Shape input = rng.bernoulli(0.5)
                            ? Shape{{pick(1, 12)}}
                            : Shape{{pick(1, 6), pick(1, 6), pick(1, 3)}};
    Graph g(input);
    std::vector<ChainOp> ops;
    bool non_negative = true;  // what the test knows of the current value
    const std::size_t length = pick(1, 7);
    for (std::size_t n = 0; n < length; ++n) {
      const Shape shape = g.output_shape();
      const std::size_t side = std::min(shape.height(), shape.width());
      if (!non_negative) {
        // An accelerator op on a value that may be negative is rejected,
        // and leaves the graph as it was.
        const std::string before = g.schedule_dump(16, 16, false);
        if (shape.is_image()) {
          EXPECT_THROW(g.conv2d(Matrix(shape.channels(), 2), 1),
                       std::invalid_argument);
        } else {
          EXPECT_THROW(g.matmul(Matrix(shape.channels(), 2)),
                       std::invalid_argument);
        }
        EXPECT_EQ(g.schedule_dump(16, 16, false), before);
        ++rejected;
      }
      std::vector<Kind> legal = {Kind::kBias, Kind::kRelu};
      if (shape.is_image()) {
        legal.insert(legal.end(), {Kind::kMaxPool, Kind::kFlatten});
        if (non_negative) legal.push_back(Kind::kConv2d);
      } else if (non_negative) {
        legal.push_back(Kind::kMatmul);
      }
      ChainOp op;
      op.kind = legal[rng.below(legal.size())];
      switch (op.kind) {
        case Kind::kMatmul:
          op.weights = random_signed(shape.channels(), pick(1, 12), rng);
          g.matmul(op.weights);
          non_negative = false;
          break;
        case Kind::kConv2d:
          op.side = pick(1, std::min<std::size_t>(side, 3));
          op.weights = random_signed(op.side * op.side * shape.channels(),
                                     pick(1, 4), rng);
          g.conv2d(op.weights, op.side);
          non_negative = false;
          break;
        case Kind::kBias:
          op.bias.resize(shape.channels());
          for (double& e : op.bias) e = rng.uniform(-0.5, 0.5);
          g.bias(op.bias);
          non_negative = false;
          break;
        case Kind::kRelu:
          g.relu();
          non_negative = true;
          break;
        case Kind::kMaxPool:
          op.side = pick(1, std::min<std::size_t>(side, 3));
          g.maxpool(op.side);
          break;
        case Kind::kFlatten:
          g.flatten();
          break;
      }
      ops.push_back(std::move(op));
    }

    const Matrix x = random_activations(pick(1, 3), input.size(), rng);
    const Matrix y = run(g, reference, x);
    ASSERT_EQ(y.cols(), g.output_shape().size());
    for (std::size_t s = 0; s < x.rows(); ++s) {
      const std::vector<double> expected = interpret(
          input, ops,
          std::vector<double>(x.data().begin() + s * x.cols(),
                              x.data().begin() + (s + 1) * x.cols()));
      ASSERT_EQ(expected.size(), y.cols()) << "chain " << chain;
      double scale = 1.0;
      for (double e : expected) scale = std::max(scale, std::fabs(e));
      for (std::size_t j = 0; j < expected.size(); ++j) {
        ASSERT_NEAR(y(s, j), expected[j], 1e-12 * scale)
            << "chain " << chain << " sample " << s << " output " << j;
      }
    }

    // The single core and the fleet agree bit for bit, in both encodings.
    const bool diff = chain % 2 == 1;
    const Matrix y_single = run(g, diff ? single_differential : single, x);
    const Matrix y_fleet = run(g, diff ? fleet_differential : fleet, x);
    ASSERT_EQ(y_fleet.max_abs_diff(y_single), 0.0) << "chain " << chain;
  }
  EXPECT_GT(rejected, 100u);  // the rejection path ran often
}

// ---------------------------------------------------------------------------
// Contract 1: Mlp through its graph is bit-identical to the direct path
// ---------------------------------------------------------------------------

TEST(GraphMlp, ForwardIsBitIdenticalToTheDirectDensePath) {
  Rng rng(2027);
  nn::Mlp mlp(20, 12, 5, rng);
  Rng data_rng(31);
  const Matrix x = random_activations(7, 20, data_rng);

  // The direct reference path: dense -> relu -> dense by hand.
  const auto direct = [&](nn::MatmulBackend& backend) {
    return mlp.layer2().forward(backend,
                                nn::relu(mlp.layer1().forward(backend, x)));
  };

  nn::FloatBackend reference;
  EXPECT_EQ(mlp.forward(reference, x).max_abs_diff(direct(reference)), 0.0);

  core::TensorCore core;
  nn::PhotonicBackendOptions options;
  options.differential_weights = true;
  nn::PhotonicBackend photonic(core, options);
  EXPECT_EQ(mlp.forward(photonic, x).max_abs_diff(direct(photonic)), 0.0);

  runtime::Accelerator accelerator({.cores = 4});
  runtime::AcceleratorBackend fleet(accelerator, options);
  EXPECT_EQ(mlp.forward(fleet, x).max_abs_diff(direct(fleet)), 0.0);
}

TEST(GraphMlp, ScheduleIsRecompiledAfterTraining) {
  Rng rng(2028);
  nn::Mlp mlp(nn::glyph_pixels, 8, nn::glyph_classes, rng);
  const nn::Dataset data = nn::make_dataset(64, rng, 0.1);
  nn::FloatBackend backend;
  const Matrix before = mlp.forward(backend, data.inputs);
  mlp.train_epoch(data, 0.1, 16, rng);
  const Matrix after = mlp.forward(backend, data.inputs);
  // Training moved the weights; a stale graph would return `before`
  // unchanged.
  EXPECT_GT(after.max_abs_diff(before), 0.0);
}

// ---------------------------------------------------------------------------
// Contract 2: the CNN on the fleet + through the serving layer
// ---------------------------------------------------------------------------

Graph test_cnn(Rng& rng) {
  return cnn_graph(8, 8, edge_kernel_bank(4), 3, 2,
                   random_signed(36, 16, rng), std::vector<double>(16, 0.05),
                   random_signed(16, 10, rng), std::vector<double>(10, 0.0));
}

TEST(GraphCnn, FleetExecutionIsBitIdenticalToASinglePhotonicCore) {
  Rng rng(41);
  const Graph g = test_cnn(rng);
  Rng data_rng(43);
  const Matrix x = random_activations(3, 64, data_rng);

  nn::PhotonicBackendOptions options;
  options.differential_weights = true;

  core::TensorCore core;
  nn::PhotonicBackend single(core, options);
  const Matrix y_single = run(g, single, x);

  runtime::Accelerator accelerator({.cores = 8});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix y_fleet = run(g, fleet, x);

  EXPECT_EQ(y_fleet.max_abs_diff(y_single), 0.0);
  ASSERT_EQ(y_fleet.cols(), 10u);
}

TEST(GraphCnn, AnalogFleetTracksTheFloatReferenceLoosely) {
  Rng rng(41);
  const Graph g = test_cnn(rng);
  Rng data_rng(47);
  const Matrix x = random_activations(2, 64, data_rng);

  nn::FloatBackend reference;
  const Matrix y_ref = run(g, reference, x);

  nn::PhotonicBackendOptions options;
  options.quantize_output = false;  // isolate 3-bit weight quantization
  options.differential_weights = true;
  runtime::Accelerator accelerator({.cores = 8});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix y_pho = run(g, fleet, x);

  // Not bit-equal (3-bit pSRAM weights), but clearly the same network.
  EXPECT_LT(y_pho.max_abs_diff(y_ref), 0.35 * y_ref.norm());
}

TEST(GraphServe, RegisteredCnnServesWithWarmResidency) {
  using namespace ptc::serve;
  Rng rng(41);
  runtime::Accelerator accelerator({.cores = 8});
  ModelRegistry registry(accelerator);
  registry.add_graph("cnn", test_cnn(rng));

  // conv (1 tile) + dense 36x16 (3 tiles) + dense 16x10 (1 tile).
  EXPECT_EQ(registry.passes("cnn"), 5u);
  EXPECT_EQ(registry.input_width("cnn"), 64u);
  EXPECT_TRUE(registry.fits_resident("cnn"));
  EXPECT_THROW(registry.add_graph("cnn", test_cnn(rng)),
               std::invalid_argument);

  Server server(registry);
  const LoadGenerator generator(
      {{.name = "t", .model = "cnn", .rate = 1e9, .requests = 24}}, 77);
  const ServeReport report =
      server.run(generator.generate(registry), {.max_batch = 8});

  EXPECT_EQ(report.requests.size(), 24u);
  EXPECT_EQ(report.passes, report.batches.size() * 5u);
  // Every batch after the first rides the resident tiles.
  EXPECT_EQ(report.warm_passes, report.passes - 5u);
  EXPECT_GT(report.warm_fraction(), 0.5);
  EXPECT_GT(report.total.p99, 0.0);

  // The conv step's im2col stream is billed into the batch cost: one
  // 8-request cold CNN batch must take longer than a dense model with the
  // same tile count would.
  registry.reset_residency();
  const BatchDispatch cold =
      registry.run_batch("cnn", random_activations(8, 64, rng));
  EXPECT_EQ(cold.warm_passes, 0u);
  EXPECT_GT(cold.latency,
            accelerator.batch_cost(5, 0, 8).latency);  // rows=1 baseline
}

TEST(GraphServe, ServedLogitsAreDeterministicAcrossRuns) {
  using namespace ptc::serve;
  Rng rng(41);
  const Graph cnn = test_cnn(rng);

  std::vector<std::size_t> first;
  for (std::size_t repeat = 0; repeat < 2; ++repeat) {
    runtime::Accelerator accelerator({.cores = 8, .threads = 1 + repeat * 3});
    ModelRegistry registry(accelerator);
    registry.add_graph("cnn", cnn);
    Server server(registry);
    const LoadGenerator generator(
        {{.name = "t", .model = "cnn", .rate = 5e8, .requests = 16}}, 99);
    const ServeReport report =
        server.run(generator.generate(registry), {.max_batch = 4});
    std::vector<std::size_t> predicted;
    for (const RequestRecord& r : report.requests)
      predicted.push_back(r.predicted);
    if (repeat == 0) {
      first = predicted;
    } else {
      EXPECT_EQ(predicted, first);
    }
  }
}

}  // namespace
