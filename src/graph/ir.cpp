#include "graph/ir.hpp"

#include <sstream>
#include <utility>

#include "common/expects.hpp"

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

const char* op_name(Op op) {
  switch (op) {
    case Op::kInput: return "input";
    case Op::kMatmul: return "matmul";
    case Op::kConv2d: return "conv2d";
    case Op::kRelu: return "relu";
    case Op::kBias: return "bias";
    case Op::kMaxPool: return "maxpool";
    case Op::kFlatten: return "flatten";
  }
  return "?";
}

Graph::NodeId Graph::append(Node node) {
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

const Node& Graph::node(NodeId id) const {
  expects(id < nodes_.size(),
          "graph node id " + std::to_string(id) +
              " is not defined yet (graph has " +
              std::to_string(nodes_.size()) +
              " nodes; operands must be built before use)");
  return nodes_[id];
}

const Node& Graph::photonic_operand(NodeId id, const char* op) const {
  const Node& operand = node(id);
  NodeId v = id;
  while (nodes_[v].op == Op::kMaxPool || nodes_[v].op == Op::kFlatten) {
    v = nodes_[v].input;
  }
  expects(nodes_[v].op == Op::kInput || nodes_[v].op == Op::kRelu,
          std::string(op) + " operand %" + std::to_string(id) + " (" +
              op_name(operand.op) +
              ") may be negative; the intensity-encoded photonic input "
              "takes the graph input, a relu, or a maxpool / flatten of one");
  return operand;
}

Graph::NodeId Graph::input(Shape shape) {
  expects(nodes_.empty(), "input must be the first node of the graph");
  expects(shape.dims.size() == 1 || shape.dims.size() == 3,
          "input shape must be rank 1 (features) or rank 3 (h x w x c)");
  expects(shape.size() >= 1, "input shape must be non-empty");
  Node n;
  n.op = Op::kInput;
  n.shape = std::move(shape);
  return append(std::move(n));
}

Graph::NodeId Graph::matmul(NodeId x, Matrix w) {
  const Node& in = photonic_operand(x, "matmul");
  expects(in.shape.dims.size() == 1,
          "matmul input must be a feature vector (flatten images first)");
  expects(w.rows() >= 1 && w.cols() >= 1, "matmul weights must be non-empty");
  expects(in.shape.channels() == w.rows(),
          "matmul input width " + in.shape.str() + " does not match weights " +
              std::to_string(w.rows()) + "x" + std::to_string(w.cols()));
  Node n;
  n.op = Op::kMatmul;
  n.input = x;
  n.shape = Shape{{w.cols()}};
  n.weights = std::move(w);
  return append(std::move(n));
}

Graph::NodeId Graph::conv2d(NodeId x, Matrix kernels, std::size_t kernel_side) {
  const Node& in = photonic_operand(x, "conv2d");
  expects(in.shape.is_image(), "conv2d input must be an h x w x c image");
  expects(kernel_side >= 1, "conv2d kernel side must be >= 1");
  expects(kernel_side <= in.shape.height() && kernel_side <= in.shape.width(),
          "conv2d kernel side " + std::to_string(kernel_side) +
              " larger than the " + in.shape.str() + " image");
  expects(kernels.cols() >= 1, "conv2d needs at least one output channel");
  expects(kernels.rows() ==
              kernel_side * kernel_side * in.shape.channels(),
          "conv2d kernel matrix has " + std::to_string(kernels.rows()) +
              " rows but a " + std::to_string(kernel_side) + "x" +
              std::to_string(kernel_side) + " kernel over " +
              in.shape.str() + " needs kernel^2 * c_in = " +
              std::to_string(kernel_side * kernel_side *
                             in.shape.channels()));
  Node n;
  n.op = Op::kConv2d;
  n.input = x;
  n.shape = Shape{{in.shape.height() - kernel_side + 1,
                   in.shape.width() - kernel_side + 1, kernels.cols()}};
  n.weights = std::move(kernels);
  n.kernel = kernel_side;
  return append(std::move(n));
}

Graph::NodeId Graph::bias(NodeId x, std::vector<double> b) {
  const Node& in = node(x);
  expects(b.size() == in.shape.channels(),
          "bias of length " + std::to_string(b.size()) +
              " does not match the channel (innermost) dimension of " +
              in.shape.str());
  Node n;
  n.op = Op::kBias;
  n.input = x;
  n.shape = in.shape;
  n.bias = std::move(b);
  return append(std::move(n));
}

Graph::NodeId Graph::relu(NodeId x) {
  Node n;
  n.op = Op::kRelu;
  n.input = x;
  n.shape = node(x).shape;
  return append(std::move(n));
}

Graph::NodeId Graph::maxpool(NodeId x, std::size_t window) {
  const Node& in = node(x);
  expects(in.shape.is_image(), "maxpool input must be an h x w x c image");
  expects(window >= 1, "maxpool window must be >= 1");
  expects(in.shape.height() >= window && in.shape.width() >= window,
          "maxpool window " + std::to_string(window) + " larger than the " +
              in.shape.str() + " image");
  Node n;
  n.op = Op::kMaxPool;
  n.input = x;
  n.shape = Shape{{in.shape.height() / window, in.shape.width() / window,
                   in.shape.channels()}};
  n.pool = window;
  return append(std::move(n));
}

Graph::NodeId Graph::flatten(NodeId x) {
  const Node& in = node(x);
  expects(in.shape.is_image(), "flatten input must be an h x w x c image");
  Node n;
  n.op = Op::kFlatten;
  n.input = x;
  n.shape = Shape{{in.shape.size()}};
  return append(std::move(n));
}

Graph::NodeId Graph::output_id() const {
  expects(!nodes_.empty(), "graph is empty");
  return nodes_.size() - 1;
}

const Shape& Graph::input_shape() const {
  expects(!nodes_.empty(), "graph is empty");
  return nodes_.front().shape;
}

const Shape& Graph::output_shape() const {
  return nodes_[output_id()].shape;
}

}  // namespace ptc::graph
