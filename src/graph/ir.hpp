#ifndef PTC_GRAPH_IR_HPP
#define PTC_GRAPH_IR_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "common/linalg.hpp"

/// Dataflow IR for the graph compiler: a chain of tensor ops (dense,
/// convolutional, elementwise, structural) from one input, which the
/// compiler in compile.hpp lowers onto the accelerator's weight-tile pass
/// schedule.
/// Transformers do not run through it: nn::TransformerModel::decode_step
/// drives the backend directly, one token at a time.
///
/// Values flowing along edges are per-sample tensors of rank 1 ({features})
/// or rank 3 ({h, w, c} images), stored flattened row-major with channels
/// fastest: index = (i * w + j) * c + ch.  Rank-1 vectors use the same
/// storage, which is what makes `flatten` a pure metadata operation.
///
/// Graphs are built through the typed builder methods below; every method
/// runs shape inference eagerly and rejects ill-formed wiring via expects(),
/// so a Graph that exists is a Graph that compiles and runs on every
/// backend.  Every node reads one earlier node and the last node added is
/// the output: the compiler walks back from it along inputs, so nodes off
/// that chain are dead code.
///
/// The photonic input is intensity-encoded, so `matmul` and `conv2d` accept
/// only an operand that is provably non-negative: the graph input, a relu
/// output, or a maxpool / flatten of one.
namespace ptc::graph {

/// Per-sample tensor shape: {n} features or {h, w, c} images.
struct Shape {
  std::vector<std::size_t> dims;

  /// Flattened element count (product of dims; 0 for an empty shape).
  std::size_t size() const;

  bool is_image() const { return dims.size() == 3; }
  std::size_t height() const { return dims.size() == 3 ? dims[0] : 1; }
  std::size_t width() const { return dims.size() == 3 ? dims[1] : 1; }
  /// Innermost dimension: channels for images, features for vectors.
  std::size_t channels() const;

  bool operator==(const Shape& other) const { return dims == other.dims; }

  /// "8x8x1" / "64" — used in dumps and error messages.
  std::string str() const;
};

/// Operator set: everything an MLP / CNN chain needs.
enum class Op {
  kInput,    ///< the graph's single entry point
  kMatmul,   ///< dense y = x W (weights k x m; x rank 1)
  kConv2d,   ///< valid square conv (weights (k*k*c_in) x c_out)
  kRelu,     ///< elementwise max(0, x)
  kBias,     ///< per-channel (or per-feature) additive bias
  kMaxPool,  ///< non-overlapping window max per channel
  kFlatten,  ///< {h, w, c} -> {h*w*c} (metadata only)
};

const char* op_name(Op op);

/// One IR node.  Only the fields relevant to `op` are populated.
struct Node {
  Op op = Op::kInput;
  std::size_t input = 0;  ///< producer node id (< own id; unused by kInput)
  Shape shape;            ///< inferred output shape

  Matrix weights;            ///< kMatmul: k x m; kConv2d: (k*k*c_in) x c_out
  std::vector<double> bias;  ///< kBias: length channels()
  std::size_t kernel = 0;    ///< kConv2d: square kernel side
  std::size_t pool = 0;      ///< kMaxPool: window == stride
};

/// Builder + container.  The last node added is the graph output.
class Graph {
 public:
  using NodeId = std::size_t;

  /// The single entry point; must be the first node added.
  NodeId input(Shape shape);

  /// Dense product with a k x m weight matrix: a rank-1, non-negative input
  /// of width k yields {m}.
  NodeId matmul(NodeId x, Matrix w);

  /// Valid square convolution: non-negative input {h, w, c_in}, kernels is
  /// the im2col weight matrix (kernel_side^2 * c_in) x c_out with patch
  /// entries ordered (di, dj, ch) — the layout the compiler's im2col emits.
  /// Output is {h-k+1, w-k+1, c_out}.
  NodeId conv2d(NodeId x, Matrix kernels, std::size_t kernel_side);

  /// Adds b[ch] to every position of channel ch (features for rank 1).
  NodeId bias(NodeId x, std::vector<double> b);

  NodeId relu(NodeId x);

  /// Non-overlapping window max per channel; trailing rows/cols that do not
  /// fill a window are dropped (floor semantics).
  NodeId maxpool(NodeId x, std::size_t window);

  /// {h, w, c} -> {h*w*c}.  Free: storage is already flat.
  NodeId flatten(NodeId x);

  const std::vector<Node>& nodes() const { return nodes_; }
  /// nodes()[id], rejecting an id not built yet.
  const Node& node(NodeId id) const;
  std::size_t size() const { return nodes_.size(); }
  NodeId output_id() const;
  const Shape& input_shape() const;
  const Shape& output_shape() const;

 private:
  NodeId append(Node node);
  /// node(id), which must be provably non-negative to feed `op`.
  const Node& photonic_operand(NodeId id, const char* op) const;

  std::vector<Node> nodes_;
};

}  // namespace ptc::graph

#endif  // PTC_GRAPH_IR_HPP
