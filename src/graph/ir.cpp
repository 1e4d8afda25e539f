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
    case Op::kAdd: return "add";
    case Op::kMaxPool: return "maxpool";
    case Op::kFlatten: return "flatten";
    case Op::kSoftmax: return "softmax";
  }
  return "?";
}

Graph::NodeId Graph::append(Node node) {
  nodes_.push_back(std::move(node));
  if (!explicit_output_) output_ = nodes_.size() - 1;
  return nodes_.size() - 1;
}

const Node& Graph::producer(NodeId id) const {
  expects(id < nodes_.size(),
          "graph node id " + std::to_string(id) +
              " is not defined yet (graph has " +
              std::to_string(nodes_.size()) +
              " nodes; operands must be built before use)");
  return nodes_[id];
}

const Node& Graph::node(NodeId id) const { return producer(id); }

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
  const Node& in = producer(x);
  expects(in.shape.dims.size() == 1,
          "matmul input must be a feature vector (flatten images first)");
  expects(w.rows() >= 1 && w.cols() >= 1, "matmul weights must be non-empty");
  expects(in.shape.channels() == w.rows(),
          "matmul input width " + in.shape.str() + " does not match weights " +
              std::to_string(w.rows()) + "x" + std::to_string(w.cols()));
  Node n;
  n.op = Op::kMatmul;
  n.inputs = {x};
  n.shape = Shape{{w.cols()}};
  n.weights = std::move(w);
  return append(std::move(n));
}

Graph::NodeId Graph::conv2d(NodeId x, Matrix kernels, std::size_t kernel_side) {
  const Node& in = producer(x);
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
  n.inputs = {x};
  n.shape = Shape{{in.shape.height() - kernel_side + 1,
                   in.shape.width() - kernel_side + 1, kernels.cols()}};
  n.weights = std::move(kernels);
  n.kernel = kernel_side;
  return append(std::move(n));
}

Graph::NodeId Graph::bias(NodeId x, std::vector<double> b) {
  const Node& in = producer(x);
  expects(b.size() == in.shape.channels(),
          "bias of length " + std::to_string(b.size()) +
              " does not match the channel (innermost) dimension of " +
              in.shape.str());
  Node n;
  n.op = Op::kBias;
  n.inputs = {x};
  n.shape = in.shape;
  n.bias = std::move(b);
  return append(std::move(n));
}

Graph::NodeId Graph::relu(NodeId x) {
  Node n;
  n.op = Op::kRelu;
  n.inputs = {x};
  n.shape = producer(x).shape;
  return append(std::move(n));
}

Graph::NodeId Graph::add(NodeId a, NodeId b) {
  expects(producer(a).shape == producer(b).shape,
          "add inputs must have identical shapes (" + producer(a).shape.str() +
              " vs " + producer(b).shape.str() + ")");
  Node n;
  n.op = Op::kAdd;
  n.inputs = {a, b};
  n.shape = producer(a).shape;
  return append(std::move(n));
}

Graph::NodeId Graph::maxpool(NodeId x, std::size_t window) {
  const Node& in = producer(x);
  expects(in.shape.is_image(), "maxpool input must be an h x w x c image");
  expects(window >= 1, "maxpool window must be >= 1");
  expects(in.shape.height() >= window && in.shape.width() >= window,
          "maxpool window " + std::to_string(window) + " larger than the " +
              in.shape.str() + " image");
  Node n;
  n.op = Op::kMaxPool;
  n.inputs = {x};
  n.shape = Shape{{in.shape.height() / window, in.shape.width() / window,
                   in.shape.channels()}};
  n.pool = window;
  return append(std::move(n));
}

Graph::NodeId Graph::flatten(NodeId x) {
  const Node& in = producer(x);
  expects(in.shape.is_image(), "flatten input must be an h x w x c image");
  Node n;
  n.op = Op::kFlatten;
  n.inputs = {x};
  n.shape = Shape{{in.shape.size()}};
  return append(std::move(n));
}

Graph::NodeId Graph::softmax(NodeId x) {
  const Node& in = producer(x);
  expects(in.shape.dims.size() == 1, "softmax input must be a feature vector");
  Node n;
  n.op = Op::kSoftmax;
  n.inputs = {x};
  n.shape = in.shape;
  return append(std::move(n));
}

void Graph::mark_output(NodeId id) {
  expects(id < nodes_.size(),
          "output id " + std::to_string(id) + " out of range (graph has " +
              std::to_string(nodes_.size()) + " nodes)");
  output_ = id;
  explicit_output_ = true;
}

Graph::NodeId Graph::output_id() const {
  expects(!nodes_.empty(), "graph is empty");
  return output_;
}

const Shape& Graph::input_shape() const {
  expects(!nodes_.empty(), "graph is empty");
  return nodes_.front().shape;
}

const Shape& Graph::output_shape() const {
  return nodes_[output_id()].shape;
}

std::string Graph::dump() const {
  std::ostringstream out;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    out << "%" << id << " = " << op_name(n.op);
    if (n.op == Op::kMatmul) {
      out << " [" << n.weights.rows() << "x" << n.weights.cols() << "]";
    } else if (n.op == Op::kConv2d) {
      out << " [" << n.kernel << "x" << n.kernel << ", "
          << n.weights.cols() << " ch]";
    } else if (n.op == Op::kMaxPool) {
      out << " [" << n.pool << "x" << n.pool << "]";
    }
    if (!n.inputs.empty()) {
      out << " (";
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        out << (i > 0 ? ", %" : "%") << n.inputs[i];
      }
      out << ")";
    }
    out << " : " << n.shape.str();
    if (id == output_) out << "  <- output";
    out << "\n";
  }
  return out.str();
}

}  // namespace ptc::graph
