// Graph compiler: IR construction and validation, lowering + epilogue
// fusion, the executor against every backend, and the subsystem's two
// contracts — (1) an nn::Mlp lowered through the compiler reproduces the
// direct backend path bit for bit, and (2) a conv -> pool -> dense CNN
// compiles, runs on the multi-core fleet bit-identically to a single
// photonic core, and serves through serve::Server with warm residency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "graph/compile.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
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
// IR: shapes, builder validation, shape inference
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
  Graph g;
  const auto x = g.input(Shape{{8, 8, 1}});
  const auto c = g.conv2d(x, Matrix(9, 6), 3);
  EXPECT_EQ(g.node(c).shape, (Shape{{6, 6, 6}}));
  const auto r = g.relu(c);
  const auto p = g.maxpool(r, 2);
  EXPECT_EQ(g.node(p).shape, (Shape{{3, 3, 6}}));
  const auto f = g.flatten(p);
  EXPECT_EQ(g.node(f).shape, (Shape{{54}}));
  const auto m = g.matmul(f, Matrix(54, 10));
  EXPECT_EQ(g.node(m).shape, (Shape{{10}}));
  EXPECT_EQ(g.output_id(), m);
  EXPECT_EQ(g.output_shape(), (Shape{{10}}));
}

TEST(GraphIr, BuilderRejectsIllFormedWiring) {
  Graph g;
  const auto x = g.input(Shape{{4, 4, 1}});
  EXPECT_THROW(g.input(Shape{{4}}), std::invalid_argument);  // second input
  EXPECT_THROW(g.matmul(x, Matrix(16, 4)), std::invalid_argument);  // image
  EXPECT_THROW(g.conv2d(x, Matrix(8, 2), 3), std::invalid_argument);  // rows
  EXPECT_THROW(g.conv2d(x, Matrix(25, 2), 5), std::invalid_argument);  // big
  EXPECT_THROW(g.maxpool(x, 5), std::invalid_argument);  // window too big
  EXPECT_THROW(g.bias(x, std::vector<double>(3, 0.0)),
               std::invalid_argument);  // bias length != channels
  const auto f = g.flatten(x);
  EXPECT_THROW(g.matmul(f, Matrix(9, 4)), std::invalid_argument);  // width
  Graph empty;
  EXPECT_THROW(empty.matmul(0, Matrix(4, 4)), std::invalid_argument);
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
  Graph rank2;
  EXPECT_THROW(rank2.input(Shape{{4, 4}}), std::invalid_argument);
  Graph rank0;
  EXPECT_THROW(rank0.input(Shape{{}}), std::invalid_argument);
  Graph zero;
  EXPECT_THROW(zero.input(Shape{{0}}), std::invalid_argument);
  Graph zero_channel;
  EXPECT_THROW(zero_channel.input(Shape{{4, 4, 0}}), std::invalid_argument);
}

TEST(GraphIr, BuilderRejectsUseBeforeDefOnEveryOperand) {
  Graph g;
  const auto x = g.input(Shape{{4, 4, 1}});
  const auto missing = x + 7;  // never built
  EXPECT_THROW(g.relu(missing), std::invalid_argument);
  EXPECT_THROW(g.flatten(missing), std::invalid_argument);
  EXPECT_THROW(g.maxpool(missing, 2), std::invalid_argument);
  EXPECT_THROW(g.bias(missing, {0.0}), std::invalid_argument);
  EXPECT_THROW(g.conv2d(missing, Matrix(9, 2), 3), std::invalid_argument);
  EXPECT_THROW(g.matmul(missing, Matrix(4, 4)), std::invalid_argument);
  EXPECT_THROW(g.node(missing), std::invalid_argument);
  // The diagnostic names the offending id and the graph size.
  const std::string what = builder_error([&] { g.relu(missing); });
  EXPECT_NE(what.find(std::to_string(missing)), std::string::npos);
  EXPECT_NE(what.find("1 nodes"), std::string::npos);
}

TEST(GraphIr, BuilderRejectsDegenerateOperators) {
  Graph g;
  const auto x = g.input(Shape{{4, 4, 1}});
  EXPECT_THROW(g.conv2d(x, Matrix(0, 0), 0), std::invalid_argument);
  EXPECT_THROW(g.conv2d(x, Matrix(9, 0), 3), std::invalid_argument);
  EXPECT_THROW(g.maxpool(x, 0), std::invalid_argument);
  const auto f = g.flatten(x);
  EXPECT_THROW(g.matmul(f, Matrix(16, 0)), std::invalid_argument);
  EXPECT_THROW(g.flatten(f), std::invalid_argument);  // already rank 1
  EXPECT_THROW(g.maxpool(f, 2), std::invalid_argument);  // vector maxpool
  EXPECT_THROW(g.conv2d(f, Matrix(9, 2), 3), std::invalid_argument);
}

TEST(GraphIr, ShapeMismatchDiagnosticsCarryTheActualShapes) {
  Graph g;
  const auto x = g.input(Shape{{4, 4, 2}});
  const std::string bias_what =
      builder_error([&] { g.bias(x, std::vector<double>(5, 0.0)); });
  EXPECT_NE(bias_what.find("5"), std::string::npos);
  EXPECT_NE(bias_what.find("4x4x2"), std::string::npos);

  const std::string conv_what =
      builder_error([&] { g.conv2d(x, Matrix(9, 3), 3); });
  EXPECT_NE(conv_what.find("9 rows"), std::string::npos);
  EXPECT_NE(conv_what.find("18"), std::string::npos);  // 3*3*2 expected rows

  const std::string pool_what = builder_error([&] { g.maxpool(x, 9); });
  EXPECT_NE(pool_what.find("9"), std::string::npos);
  EXPECT_NE(pool_what.find("4x4x2"), std::string::npos);
}

TEST(GraphIr, OutputIsTheLastNodeAdded) {
  Graph g;
  const auto x = g.input(Shape{{8}});
  EXPECT_EQ(g.output_id(), x);
  const auto r = g.relu(x);
  EXPECT_EQ(g.output_id(), r);
  // A node that reads an earlier one still becomes the output.
  const auto m = g.matmul(x, Matrix(8, 3));
  EXPECT_EQ(g.output_id(), m);
  EXPECT_EQ(g.output_shape(), (Shape{{3}}));

  Graph empty;
  EXPECT_THROW(empty.output_id(), std::invalid_argument);
  EXPECT_THROW(empty.input_shape(), std::invalid_argument);
  EXPECT_THROW(empty.output_shape(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Lowering: step selection, epilogue fusion, dead code
// ---------------------------------------------------------------------------

TEST(GraphCompile, MlpLowersToTwoFusedMatmulSteps) {
  Rng rng(7);
  const CompiledGraph cg = compile(
      mlp_graph(random_signed(12, 8, rng), std::vector<double>(8, 0.1),
                random_signed(8, 4, rng), std::vector<double>(4, 0.0)));
  ASSERT_EQ(cg.steps.size(), 2u);
  EXPECT_EQ(cg.steps[0].kind, Step::Kind::kMatmul);
  ASSERT_EQ(cg.steps[0].epilogue.size(), 2u);
  EXPECT_EQ(cg.steps[0].epilogue[0].kind, EpilogueOp::Kind::kBias);
  EXPECT_EQ(cg.steps[0].epilogue[1].kind, EpilogueOp::Kind::kRelu);
  EXPECT_EQ(cg.steps[1].kind, Step::Kind::kMatmul);
  ASSERT_EQ(cg.steps[1].epilogue.size(), 1u);
  EXPECT_EQ(cg.steps[1].epilogue[0].kind, EpilogueOp::Kind::kBias);
  EXPECT_EQ(cg.input_size(), 12u);
  EXPECT_EQ(cg.output_size(), 4u);
}

TEST(GraphCompile, CnnLowersToFourStepsAndFlattenDisappears) {
  Rng rng(7);
  const CompiledGraph cg = compile(cnn_graph(
      8, 8, edge_kernel_bank(6), 3, 2, random_signed(54, 32, rng),
      std::vector<double>(32, 0.0), random_signed(32, 10, rng),
      std::vector<double>(10, 0.0)));
  ASSERT_EQ(cg.steps.size(), 4u);
  EXPECT_EQ(cg.steps[0].kind, Step::Kind::kConv2d);
  ASSERT_EQ(cg.steps[0].epilogue.size(), 1u);
  EXPECT_EQ(cg.steps[0].epilogue[0].kind, EpilogueOp::Kind::kRelu);
  EXPECT_EQ(cg.steps[0].rows_per_sample(), 36u);
  EXPECT_EQ(cg.steps[1].kind, Step::Kind::kMaxPool);
  // flatten fused into the maxpool step's output shape: rank 1 already.
  EXPECT_EQ(cg.steps[1].out_shape, (Shape{{54}}));
  EXPECT_EQ(cg.steps[2].kind, Step::Kind::kMatmul);
  EXPECT_EQ(cg.steps[3].kind, Step::Kind::kMatmul);
  EXPECT_EQ(cg.output_size(), 10u);
}

TEST(GraphCompile, DeadBranchesEmitNothing) {
  Rng rng(3);
  Graph g;
  const auto x = g.input(Shape{{8}});
  g.relu(g.matmul(x, random_signed(8, 16, rng)));  // dead: never read
  g.matmul(x, random_signed(8, 4, rng));           // the output
  const CompiledGraph cg = compile(g);
  ASSERT_EQ(cg.steps.size(), 1u);
  EXPECT_EQ(cg.steps[0].weights.cols(), 4u);
  EXPECT_TRUE(cg.steps[0].epilogue.empty());
}

TEST(GraphCompile, ElementwiseOnTheInputLowersToAHostStep) {
  // No step precedes the bias, so it opens a host step; the relu and the
  // flatten fuse into it.
  Graph g;
  auto v = g.input(Shape{{2, 2, 3}});
  v = g.bias(v, {0.5, -1.0, 0.25});
  v = g.relu(v);
  v = g.flatten(v);
  g.matmul(v, Matrix(12, 2));
  const CompiledGraph cg = compile(g);
  ASSERT_EQ(cg.steps.size(), 2u);
  EXPECT_EQ(cg.steps[0].kind, Step::Kind::kElementwise);
  EXPECT_EQ(cg.steps[0].label, "bias +relu");
  EXPECT_EQ(cg.steps[0].out_shape, (Shape{{12}}));
  EXPECT_EQ(cg.steps[1].kind, Step::Kind::kMatmul);
  EXPECT_EQ(cg.steps[1].in_shape, (Shape{{12}}));
}

TEST(GraphCompile, PassProfileCountsTilesPerStep) {
  Rng rng(7);
  const CompiledGraph cg = compile(cnn_graph(
      8, 8, edge_kernel_bank(6), 3, 2, random_signed(54, 32, rng),
      std::vector<double>(32, 0.0), random_signed(32, 10, rng),
      std::vector<double>(10, 0.0)));
  const PassProfile offset = cg.pass_profile(16, 16, false);
  ASSERT_EQ(offset.steps.size(), 3u);  // conv, dense, dense
  EXPECT_EQ(offset.steps[0].passes, 1u);           // 9x6 -> one tile
  EXPECT_EQ(offset.steps[0].rows_per_sample, 36u);  // 6x6 positions
  EXPECT_EQ(offset.steps[1].passes, 8u);  // ceil(54/16) * ceil(32/16)
  EXPECT_EQ(offset.steps[2].passes, 2u);  // ceil(32/16) * ceil(10/16)
  EXPECT_EQ(offset.total_passes, 11u);
  EXPECT_EQ(cg.pass_profile(16, 16, true).total_passes, 22u);

  const std::string schedule = cg.schedule_dump(16, 16, false);
  EXPECT_NE(schedule.find("conv2d 3x3 -> 6ch +relu"), std::string::npos);
  EXPECT_NE(schedule.find("11 weight-tile passes"), std::string::npos);
}

TEST(GraphCompile, ServedSchedulesMatchTheCommittedGolden) {
  // The lowering of every graph the benchmark's mlp_serving workload
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
    const CompiledGraph cg = compile(graph);
    for (const bool differential : {false, true}) {
      dumps += "== " + name + (differential ? " (differential)" : " (offset)") +
               "\n" + cg.schedule_dump(16, 16, differential);
    }
  }
  golden::expect_matches(dumps, "schedules.txt");
}

TEST(GraphIr, MatmulAndConvRejectOperandsThatMayBeNegative) {
  // The photonic input is intensity-encoded: a matmul or conv2d operand
  // must be the graph input, a relu, or a maxpool / flatten of one.
  Rng rng(53);
  Graph g;
  const auto x = g.input(Shape{{4, 4, 1}});
  const auto conv = g.conv2d(x, random_signed(4, 2, rng), 2);  // 3x3x2
  EXPECT_THROW(g.conv2d(conv, Matrix(2, 1), 1), std::invalid_argument);
  const auto pooled = g.maxpool(conv, 3);
  EXPECT_THROW(g.matmul(g.flatten(pooled), Matrix(2, 1)),
               std::invalid_argument);
  const auto r = g.relu(conv);
  const auto biased = g.bias(r, {0.5, -0.5});  // relu then bias: signed
  const std::size_t before = g.size();
  EXPECT_THROW(g.conv2d(biased, Matrix(2, 1), 1), std::invalid_argument);
  EXPECT_EQ(g.size(), before);  // a rejected op leaves the graph unchanged
  // The diagnostic names the operand and its op.
  const std::string what =
      builder_error([&] { g.conv2d(biased, Matrix(2, 1), 1); });
  EXPECT_NE(what.find("%" + std::to_string(biased) + " (bias)"),
            std::string::npos);

  // Provably non-negative operands are accepted.
  EXPECT_NO_THROW(g.conv2d(g.maxpool(r, 1), Matrix(2, 1), 1));
  EXPECT_NO_THROW(g.matmul(g.flatten(g.maxpool(r, 3)), Matrix(2, 1)));
  EXPECT_NO_THROW(g.matmul(g.flatten(x), Matrix(16, 1)));
}

// ---------------------------------------------------------------------------
// Executor: float semantics
// ---------------------------------------------------------------------------

TEST(GraphExecutor, ConvMatchesHandComputedValidConvolution) {
  Graph g;
  Matrix kernel(4, 1);  // 2x2 kernel {{1, 2}, {3, 4}} flattened (di, dj)
  kernel(0, 0) = 1.0;
  kernel(1, 0) = 2.0;
  kernel(2, 0) = 3.0;
  kernel(3, 0) = 4.0;
  g.conv2d(g.input(Shape{{3, 3, 1}}), kernel, 2);
  const CompiledGraph cg = compile(g);

  Matrix x(1, 9);
  for (std::size_t i = 0; i < 9; ++i) x(0, i) = static_cast<double>(i);
  nn::FloatBackend backend;
  const Matrix y = run(cg, backend, x);
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
  Graph g;
  Matrix kernel(2, 1);
  kernel(0, 0) = 1.0;
  kernel(1, 0) = 10.0;
  g.conv2d(g.input(Shape{{1, 2, 2}}), kernel, 1);
  const CompiledGraph cg = compile(g);

  Matrix x(1, 4);  // layout (i*w + j) * c + ch
  x(0, 0) = 1.0;  // (0,0) ch0
  x(0, 1) = 2.0;  // (0,0) ch1
  x(0, 2) = 3.0;  // (0,1) ch0
  x(0, 3) = 4.0;  // (0,1) ch1
  nn::FloatBackend backend;
  const Matrix y = run(cg, backend, x);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 21.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 43.0);
}

TEST(GraphExecutor, MaxPoolTakesWindowMaximaPerChannel) {
  Graph g;
  g.maxpool(g.input(Shape{{2, 4, 2}}), 2);
  const CompiledGraph cg = compile(g);

  Matrix x(1, 16);
  for (std::size_t i = 0; i < 16; ++i) x(0, i) = static_cast<double>(i);
  nn::FloatBackend backend;
  const Matrix y = run(cg, backend, x);
  ASSERT_EQ(y.cols(), 4u);  // 1x2x2
  // Channel 0 maxima of the two 2x2 windows: indices {0,2,8,10} -> 10 and
  // {4,6,12,14} -> 14; channel 1 is one higher.
  EXPECT_DOUBLE_EQ(y(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 11.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 14.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 15.0);
}

TEST(GraphExecutor, ConvViaGraphMatchesNnConv2dSingleChannel) {
  // The compiler's stacked im2col agrees with the reference nn::conv2d.
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
  Graph g;
  g.conv2d(g.input(Shape{{6, 6, 1}}), kernel, 3);
  Matrix x(1, 36);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) x(0, i * 6 + j) = img(i, j);
  const Matrix actual = run(compile(g), backend, x);

  ASSERT_EQ(actual.cols(), expected.rows() * expected.cols());
  for (std::size_t i = 0; i < expected.rows(); ++i)
    for (std::size_t j = 0; j < expected.cols(); ++j)
      EXPECT_DOUBLE_EQ(actual(0, i * expected.cols() + j), expected(i, j));
}

TEST(GraphExecutor, RejectsMismatchedInputWidth) {
  Rng rng(29);
  const CompiledGraph cg = compile(
      mlp_graph(random_signed(12, 8, rng), std::vector<double>(8, 0.0),
                random_signed(8, 4, rng), std::vector<double>(4, 0.0)));
  nn::FloatBackend backend;
  EXPECT_THROW(run(cg, backend, Matrix(2, 11)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Random chains against a straight-line float interpreter
// ---------------------------------------------------------------------------

/// One sample through chain graph `g`, node by node, written from the op
/// definitions in ir.hpp rather than from the executor.
std::vector<double> interpret(const Graph& g, std::vector<double> v) {
  for (std::size_t id = 1; id < g.size(); ++id) {
    const Node& n = g.node(id);
    const Shape& in = g.node(n.input).shape;
    std::vector<double> out(n.shape.size(), 0.0);
    switch (n.op) {
      case Op::kMatmul:
        for (std::size_t j = 0; j < out.size(); ++j)
          for (std::size_t i = 0; i < v.size(); ++i)
            out[j] += v[i] * n.weights(i, j);
        break;
      case Op::kConv2d: {
        const std::size_t k = n.kernel, c = in.channels();
        for (std::size_t i = 0; i < n.shape.height(); ++i)
          for (std::size_t j = 0; j < n.shape.width(); ++j)
            for (std::size_t co = 0; co < n.shape.channels(); ++co) {
              double sum = 0.0;
              for (std::size_t di = 0; di < k; ++di)
                for (std::size_t dj = 0; dj < k; ++dj)
                  for (std::size_t ci = 0; ci < c; ++ci)
                    sum += v[((i + di) * in.width() + j + dj) * c + ci] *
                           n.weights((di * k + dj) * c + ci, co);
              out[(i * n.shape.width() + j) * n.shape.channels() + co] = sum;
            }
        break;
      }
      case Op::kBias:
        for (std::size_t e = 0; e < out.size(); ++e)
          out[e] = v[e] + n.bias[e % n.bias.size()];
        break;
      case Op::kRelu:
        for (std::size_t e = 0; e < out.size(); ++e)
          out[e] = std::max(0.0, v[e]);
        break;
      case Op::kMaxPool: {
        const std::size_t p = n.pool, c = in.channels();
        for (std::size_t i = 0; i < n.shape.height(); ++i)
          for (std::size_t j = 0; j < n.shape.width(); ++j)
            for (std::size_t ch = 0; ch < c; ++ch) {
              double m = v[((i * p) * in.width() + j * p) * c + ch];
              for (std::size_t di = 0; di < p; ++di)
                for (std::size_t dj = 0; dj < p; ++dj)
                  m = std::max(
                      m, v[((i * p + di) * in.width() + j * p + dj) * c + ch]);
              out[(i * n.shape.width() + j) * c + ch] = m;
            }
        break;
      }
      case Op::kFlatten:
        out = v;
        break;
      case Op::kInput:
        ADD_FAILURE() << "second input node";
        break;
    }
    v = std::move(out);
  }
  return v;
}

TEST(GraphFuzz, RandomChainsMatchAFloatInterpreter) {
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
    Graph g;
    auto v = g.input(rng.bernoulli(0.5)
                         ? Shape{{pick(1, 12)}}
                         : Shape{{pick(1, 6), pick(1, 6), pick(1, 3)}});
    bool non_negative = true;  // what the test knows of the current value
    const std::size_t length = pick(1, 7);
    for (std::size_t op = 0; op < length; ++op) {
      const Shape shape = g.node(v).shape;
      const std::size_t side = std::min(shape.height(), shape.width());
      if (!non_negative) {
        // An accelerator op on a value that may be negative is rejected.
        const std::size_t before = g.size();
        if (shape.is_image()) {
          EXPECT_THROW(g.conv2d(v, Matrix(shape.channels(), 2), 1),
                       std::invalid_argument);
        } else {
          EXPECT_THROW(g.matmul(v, Matrix(shape.channels(), 2)),
                       std::invalid_argument);
        }
        EXPECT_EQ(g.size(), before);
        ++rejected;
      }
      std::vector<Op> legal = {Op::kBias, Op::kRelu};
      if (shape.is_image()) {
        legal.insert(legal.end(), {Op::kMaxPool, Op::kFlatten});
        if (non_negative) legal.push_back(Op::kConv2d);
      } else if (non_negative) {
        legal.push_back(Op::kMatmul);
      }
      switch (legal[rng.below(legal.size())]) {
        case Op::kMatmul:
          v = g.matmul(v, random_signed(shape.channels(), pick(1, 12), rng));
          non_negative = false;
          break;
        case Op::kConv2d: {
          const std::size_t k = pick(1, std::min<std::size_t>(side, 3));
          v = g.conv2d(
              v, random_signed(k * k * shape.channels(), pick(1, 4), rng), k);
          non_negative = false;
          break;
        }
        case Op::kBias: {
          std::vector<double> b(shape.channels());
          for (double& e : b) e = rng.uniform(-0.5, 0.5);
          v = g.bias(v, std::move(b));
          non_negative = false;
          break;
        }
        case Op::kRelu:
          v = g.relu(v);
          non_negative = true;
          break;
        case Op::kMaxPool:
          v = g.maxpool(v, pick(1, std::min<std::size_t>(side, 3)));
          break;
        case Op::kFlatten:
          v = g.flatten(v);
          break;
        case Op::kInput:
          break;
      }
    }

    const CompiledGraph cg = compile(g);
    const Matrix x =
        random_activations(pick(1, 3), g.input_shape().size(), rng);
    const Matrix y = run(cg, reference, x);
    ASSERT_EQ(y.cols(), g.output_shape().size());
    for (std::size_t s = 0; s < x.rows(); ++s) {
      const std::vector<double> expected = interpret(
          g, std::vector<double>(x.data().begin() + s * x.cols(),
                                 x.data().begin() + (s + 1) * x.cols()));
      double scale = 1.0;
      for (double e : expected) scale = std::max(scale, std::fabs(e));
      for (std::size_t j = 0; j < expected.size(); ++j) {
        ASSERT_NEAR(y(s, j), expected[j], 1e-12 * scale)
            << "chain " << chain << " sample " << s << " output " << j;
      }
    }

    // The single core and the fleet agree bit for bit, in both encodings.
    const bool diff = chain % 2 == 1;
    const Matrix y_single = run(cg, diff ? single_differential : single, x);
    const Matrix y_fleet = run(cg, diff ? fleet_differential : fleet, x);
    ASSERT_EQ(y_fleet.max_abs_diff(y_single), 0.0) << "chain " << chain;
  }
  EXPECT_GT(rejected, 100u);  // the rejection path ran often
}

// ---------------------------------------------------------------------------
// Contract 1: Mlp through the compiler is bit-identical to the direct path
// ---------------------------------------------------------------------------

TEST(GraphMlp, ForwardIsBitIdenticalToTheDirectDensePath) {
  Rng rng(2027);
  nn::Mlp mlp(20, 12, 5, rng);
  Rng data_rng(31);
  const Matrix x = random_activations(7, 20, data_rng);

  // The pre-compiler reference path: dense -> relu -> dense by hand.
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
  // Training moved the weights; a stale compiled schedule would return
  // `before` unchanged.
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
  const CompiledGraph cg = compile(test_cnn(rng));
  Rng data_rng(43);
  const Matrix x = random_activations(3, 64, data_rng);

  nn::PhotonicBackendOptions options;
  options.differential_weights = true;

  core::TensorCore core;
  nn::PhotonicBackend single(core, options);
  const Matrix y_single = run(cg, single, x);

  runtime::Accelerator accelerator({.cores = 8});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix y_fleet = run(cg, fleet, x);

  EXPECT_EQ(y_fleet.max_abs_diff(y_single), 0.0);
  ASSERT_EQ(y_fleet.cols(), 10u);
}

TEST(GraphCnn, AnalogFleetTracksTheFloatReferenceLoosely) {
  Rng rng(41);
  const CompiledGraph cg = compile(test_cnn(rng));
  Rng data_rng(47);
  const Matrix x = random_activations(2, 64, data_rng);

  nn::FloatBackend reference;
  const Matrix y_ref = run(cg, reference, x);

  nn::PhotonicBackendOptions options;
  options.quantize_output = false;  // isolate 3-bit weight quantization
  options.differential_weights = true;
  runtime::Accelerator accelerator({.cores = 8});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix y_pho = run(cg, fleet, x);

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
