#include "graph/executor.hpp"

#include <algorithm>
#include <vector>

#include "common/expects.hpp"
#include "telemetry/trace.hpp"

namespace ptc::graph {
namespace {

/// Stacked im2col conv: every output position of every sample becomes one
/// row of a single backend matmul, so the whole batch streams through each
/// kernel-tile residency in one pass.  Patch columns are ordered
/// (di, dj, ch), matching Graph::conv2d's kernel matrix layout (and
/// nn::im2col for the single-channel case).
Matrix conv2d_step(nn::MatmulBackend& backend, const Step& step,
                   const Matrix& in) {
  const std::size_t h = step.in_shape.height();
  const std::size_t w = step.in_shape.width();
  const std::size_t c = step.in_shape.channels();
  const std::size_t k = step.kernel;
  const std::size_t out_h = h - k + 1;
  const std::size_t out_w = w - k + 1;
  const std::size_t positions = out_h * out_w;
  const std::size_t c_out = step.weights.cols();

  Matrix patches(in.rows() * positions, k * k * c);
  for (std::size_t s = 0; s < in.rows(); ++s) {
    for (std::size_t i = 0; i < out_h; ++i) {
      for (std::size_t j = 0; j < out_w; ++j) {
        const std::size_t row = s * positions + i * out_w + j;
        std::size_t col = 0;
        for (std::size_t di = 0; di < k; ++di)
          for (std::size_t dj = 0; dj < k; ++dj)
            for (std::size_t ch = 0; ch < c; ++ch)
              patches(row, col++) = in(s, ((i + di) * w + (j + dj)) * c + ch);
      }
    }
  }

  const Matrix flat =
      backend.matmul_cached(patches, step.weights, *step.plan_cache);

  // Repack (sample*position) x c_out rows into per-sample flat images.
  Matrix out(in.rows(), positions * c_out);
  for (std::size_t s = 0; s < in.rows(); ++s)
    for (std::size_t p = 0; p < positions; ++p)
      for (std::size_t ch = 0; ch < c_out; ++ch)
        out(s, p * c_out + ch) = flat(s * positions + p, ch);
  return out;
}

Matrix maxpool_step(const Step& step, const Matrix& in) {
  const std::size_t h = step.in_shape.height();
  const std::size_t w = step.in_shape.width();
  const std::size_t c = step.in_shape.channels();
  const std::size_t p = step.pool;
  const std::size_t out_h = h / p;
  const std::size_t out_w = w / p;

  Matrix out(in.rows(), out_h * out_w * c);
  for (std::size_t s = 0; s < in.rows(); ++s) {
    for (std::size_t i = 0; i < out_h; ++i) {
      for (std::size_t j = 0; j < out_w; ++j) {
        for (std::size_t ch = 0; ch < c; ++ch) {
          double m = in(s, (i * p * w + j * p) * c + ch);
          for (std::size_t di = 0; di < p; ++di)
            for (std::size_t dj = 0; dj < p; ++dj)
              m = std::max(m,
                           in(s, ((i * p + di) * w + (j * p + dj)) * c + ch));
          out(s, (i * out_w + j) * c + ch) = m;
        }
      }
    }
  }
  return out;
}

/// Broadcast bias over positions with channel innermost.  For rank-1
/// values positions == 1 and this is exactly DenseLayer::forward's bias
/// loop — the bit-identity anchor for nn::Mlp's graph.
void apply_bias(Matrix& value, const std::vector<double>& bias) {
  const std::size_t c = bias.size();
  const std::size_t positions = value.cols() / c;
  for (std::size_t s = 0; s < value.rows(); ++s)
    for (std::size_t p = 0; p < positions; ++p)
      for (std::size_t ch = 0; ch < c; ++ch)
        value(s, p * c + ch) += bias[ch];
}

void apply_epilogue(Matrix& value, const Step& step) {
  for (const EpilogueOp& op : step.epilogue) {
    switch (op.kind) {
      case EpilogueOp::Kind::kBias:
        apply_bias(value, op.bias);
        break;
      case EpilogueOp::Kind::kRelu:
        for (double& v : value.data()) v = std::max(0.0, v);
        break;
    }
  }
}

}  // namespace

Matrix run(const Graph& graph, nn::MatmulBackend& backend, const Matrix& x) {
  expects(x.rows() >= 1, "batch must contain at least one sample");
  expects(x.cols() == graph.input_size(),
          "input width does not match the graph input shape");

  // With a tracer attached (AcceleratorBackend under PTC_TRACE), every
  // accelerator step gets a span over the modeled time its matmuls
  // advanced; host-side steps are instants (zero modeled duration).
  telemetry::Tracer* tracer = backend.tracer();

  Matrix value = x;
  for (const Step& step : graph.steps()) {
    const double step_start = tracer != nullptr ? backend.modeled_time() : 0.0;
    switch (step.kind) {
      case Step::Kind::kMatmul:
        // Through the step's weight-plan cache, so per-batch execution
        // skips the weight-side planning and encoding entirely.
        value = backend.matmul_cached(value, step.weights, *step.plan_cache);
        break;
      case Step::Kind::kConv2d:
        value = conv2d_step(backend, step, value);
        break;
      case Step::Kind::kMaxPool:
        value = maxpool_step(step, value);
        break;
      case Step::Kind::kElementwise:
        break;
    }
    apply_epilogue(value, step);
    if (tracer != nullptr) {
      if (step.on_accelerator()) {
        tracer->complete(telemetry::track::kSteps, step.label.c_str(),
                         "step", step_start, backend.modeled_time(),
                         {{"batch", x.rows()}});
      } else {
        tracer->instant(telemetry::track::kSteps, step.label.c_str(), "step",
                        step_start, {});
      }
    }
  }
  return value;
}

}  // namespace ptc::graph
