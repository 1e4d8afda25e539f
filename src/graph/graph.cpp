#include "graph/graph.hpp"

#include <sstream>
#include <utility>

#include "common/expects.hpp"
#include "nn/tiling.hpp"

namespace ptc::graph {

std::size_t Shape::size() const {
  std::size_t n = dims.empty() ? 0 : 1;
  for (std::size_t d : dims) n *= d;
  return n;
}

std::size_t Shape::channels() const {
  expects(!dims.empty(), "shape has no dimensions");
  return dims.back();
}

std::string Shape::str() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out << "x";
    out << dims[i];
  }
  return out.str();
}

std::size_t Step::rows_per_sample() const {
  if (kind != Kind::kConv2d) return 1;
  return (in_shape.height() - kernel + 1) * (in_shape.width() - kernel + 1);
}

Graph::Graph(Shape input) : input_(std::move(input)), shape_(input_) {
  expects(input_.dims.size() == 1 || input_.dims.size() == 3,
          "input shape must be rank 1 (features) or rank 3 (h x w x c)");
  expects(input_.size() >= 1, "input shape must be non-empty");
}

Step& Graph::open(Step::Kind kind, std::string label, Shape out) {
  Step& step = steps_.emplace_back();
  step.kind = kind;
  step.in_shape = std::exchange(shape_, std::move(out));
  step.out_shape = shape_;
  step.label = std::move(label);
  // One plan cache per weight tensor; filled lazily on first execution
  // (per backend geometry) and shared by every copy of this graph.
  if (step.on_accelerator()) {
    step.plan_cache = std::make_shared<nn::WeightPlanCache>();
  }
  return step;
}

void Graph::fuse(EpilogueOp op, const char* name) {
  if (steps_.empty()) {
    open(Step::Kind::kElementwise, name, shape_);
  } else {
    steps_.back().label += std::string(" +") + name;
  }
  steps_.back().epilogue.push_back(std::move(op));
}

void Graph::expect_non_negative(const char* op) const {
  expects(non_negative_,
          std::string(op) + " operand " + shape_.str() +
              " may be negative; the intensity-encoded photonic input "
              "takes the graph input, a relu, or a maxpool / flatten of one");
}

Graph& Graph::matmul(Matrix w) {
  expect_non_negative("matmul");
  expects(shape_.dims.size() == 1,
          "matmul input must be a feature vector (flatten images first)");
  expects(w.rows() >= 1 && w.cols() >= 1, "matmul weights must be non-empty");
  expects(shape_.channels() == w.rows(),
          "matmul input width " + shape_.str() + " does not match weights " +
              std::to_string(w.rows()) + "x" + std::to_string(w.cols()));
  Step& step = open(Step::Kind::kMatmul,
                    "matmul " + std::to_string(w.rows()) + "x" +
                        std::to_string(w.cols()),
                    Shape{{w.cols()}});
  step.weights = std::move(w);
  non_negative_ = false;
  return *this;
}

Graph& Graph::conv2d(Matrix kernels, std::size_t kernel_side) {
  expect_non_negative("conv2d");
  const Shape& in = shape_;
  expects(in.is_image(), "conv2d input must be an h x w x c image");
  expects(kernel_side >= 1, "conv2d kernel side must be >= 1");
  expects(kernel_side <= in.height() && kernel_side <= in.width(),
          "conv2d kernel side " + std::to_string(kernel_side) +
              " larger than the " + in.str() + " image");
  expects(kernels.cols() >= 1, "conv2d needs at least one output channel");
  const std::string side = std::to_string(kernel_side);
  expects(kernels.rows() == kernel_side * kernel_side * in.channels(),
          "conv2d kernel matrix has " + std::to_string(kernels.rows()) +
              " rows but a " + side + "x" + side + " kernel over " + in.str() +
              " needs kernel^2 * c_in = " +
              std::to_string(kernel_side * kernel_side * in.channels()));
  Step& step =
      open(Step::Kind::kConv2d,
           "conv2d " + side + "x" + side + " -> " +
               std::to_string(kernels.cols()) + "ch",
           Shape{{in.height() - kernel_side + 1,
                  in.width() - kernel_side + 1, kernels.cols()}});
  step.weights = std::move(kernels);
  step.kernel = kernel_side;
  non_negative_ = false;
  return *this;
}

Graph& Graph::bias(std::vector<double> b) {
  expects(b.size() == shape_.channels(),
          "bias of length " + std::to_string(b.size()) +
              " does not match the channel (innermost) dimension of " +
              shape_.str());
  fuse({EpilogueOp::Kind::kBias, std::move(b)}, "bias");
  non_negative_ = false;
  return *this;
}

Graph& Graph::relu() {
  fuse({EpilogueOp::Kind::kRelu, {}}, "relu");
  non_negative_ = true;
  return *this;
}

Graph& Graph::maxpool(std::size_t window) {
  const Shape& in = shape_;
  expects(in.is_image(), "maxpool input must be an h x w x c image");
  expects(window >= 1, "maxpool window must be >= 1");
  expects(in.height() >= window && in.width() >= window,
          "maxpool window " + std::to_string(window) + " larger than the " +
              in.str() + " image");
  const std::string side = std::to_string(window);
  open(Step::Kind::kMaxPool, "maxpool " + side + "x" + side,
       Shape{{in.height() / window, in.width() / window, in.channels()}})
      .pool = window;
  return *this;
}

Graph& Graph::flatten() {
  expects(shape_.is_image(), "flatten input must be an h x w x c image");
  shape_ = Shape{{shape_.size()}};
  // On the bare input only the shape the first step consumes changes.
  if (!steps_.empty()) steps_.back().out_shape = shape_;
  return *this;
}

PassProfile Graph::pass_profile(std::size_t tile_m, std::size_t tile_k,
                                bool differential) const {
  expects(tile_m >= 1 && tile_k >= 1, "tile geometry must be positive");
  PassProfile profile;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    if (!step.on_accelerator()) continue;
    const std::size_t tiles =
        nn::tile_passes(step.weights.rows(), step.weights.cols(), tile_m,
                        tile_k, differential);
    profile.steps.push_back({i, tiles, step.rows_per_sample()});
    profile.total_passes += tiles;
  }
  return profile;
}

std::string Graph::schedule_dump(std::size_t tile_m, std::size_t tile_k,
                                 bool differential) const {
  const PassProfile profile = pass_profile(tile_m, tile_k, differential);
  std::ostringstream out;
  std::size_t next_accel = 0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    out << "step " << i << ": " << step.label;
    if (step.on_accelerator()) {
      const StepPasses& sp = profile.steps[next_accel++];
      out << " | weights " << step.weights.rows() << "x"
          << step.weights.cols() << " | " << sp.passes << " tile pass"
          << (sp.passes == 1 ? "" : "es") << " | " << sp.rows_per_sample
          << " row" << (sp.rows_per_sample == 1 ? "" : "s") << "/sample";
    } else {
      out << " | host";
    }
    out << " | " << step.in_shape.str() << " -> " << step.out_shape.str()
        << "\n";
  }
  out << "total: " << profile.total_passes
      << " weight-tile passes per dispatch\n";
  return out.str();
}

}  // namespace ptc::graph
