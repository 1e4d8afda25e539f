#ifndef PTC_GRAPH_GRAPH_HPP
#define PTC_GRAPH_GRAPH_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/linalg.hpp"

namespace ptc::nn {
class WeightPlanCache;
}  // namespace ptc::nn

/// The graph compiler: a chain of tensor ops (dense, convolutional,
/// elementwise, structural) from one input, built straight into the flat
/// schedule of steps that the executor interprets against any
/// nn::MatmulBackend (and the serve layer costs against the fleet).
/// Transformers do not run through it: nn::TransformerModel::decode_step
/// drives the backend directly, one token at a time.
///
/// Values are per-sample tensors of rank 1 ({features}) or rank 3
/// ({h, w, c} images), stored flattened row-major with channels fastest:
/// index = (i * w + j) * c + ch.  Rank-1 vectors use the same storage,
/// which is what makes `flatten` a pure metadata operation.
///
/// Each builder call applies to the chain's current value, runs shape
/// inference eagerly and rejects ill-formed wiring via expects() before the
/// graph changes, so a Graph that exists is a schedule that runs on every
/// backend.  The calls lower as they are made:
///  - `matmul` opens a kMatmul step: one tiled weight-matrix product on
///    the accelerator (ceil(k/tile_k) * ceil(m/tile_m) weight-tile passes,
///    doubled under differential encoding).
///  - `conv2d` opens a kConv2d step: im2col gathers every output position
///    of every sample into one stacked activation matrix, so the whole
///    batch streams through each kernel-tile residency in a single pass —
///    the conv lowering that maximizes the paper's reload amortization
///    (positions-per-sample rows per request instead of 1).
///  - `bias` and `relu` are FUSED into the last step as its epilogue; they
///    cost no extra accelerator passes.  On the bare input they open a
///    host-side kElementwise step.
///  - `maxpool` opens a host-side kMaxPool step (data marshalling between
///    accelerator passes), and `flatten` opens nothing: storage is already
///    flat, so it only rewrites the value's shape.
///
/// The photonic input is intensity-encoded, so `matmul` and `conv2d` accept
/// only a value that is provably non-negative: the graph input, a relu
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

/// One fused elementwise operation applied in a step's epilogue, in order.
struct EpilogueOp {
  enum class Kind {
    kBias,
    kRelu,
  };
  Kind kind = Kind::kRelu;
  std::vector<double> bias;  ///< kBias: per-channel addends
};

/// One schedule step: it reads the previous step's value (the graph input
/// for the first) and produces the next.  kMatmul / kConv2d run on the
/// accelerator backend; kMaxPool / kElementwise are host-side data
/// marshalling.
struct Step {
  enum class Kind {
    kMatmul,
    kConv2d,
    kMaxPool,
    kElementwise,
  };
  Kind kind = Kind::kElementwise;

  Shape in_shape;   ///< shape of the consumed value
  Shape out_shape;  ///< shape after the step + its epilogue

  Matrix weights;          ///< kMatmul: k x m; kConv2d: (k*k*c_in) x c_out
  std::size_t kernel = 0;  ///< kConv2d: square kernel side
  std::size_t pool = 0;    ///< kMaxPool: window == stride

  std::vector<EpilogueOp> epilogue;  ///< fused elementwise tail, in order
  std::string label;                 ///< e.g. "conv2d 3x3 -> 6ch +bias +relu"

  /// Weight-plan cache for this step's (immutable) weights, created when
  /// the accelerator step is built.  The executor hands it to the backend
  /// so the signed mapping, pass list, and encoded unit-weight blocks are
  /// built once per weight version instead of once per batch — serving
  /// steady-state does zero re-planning and zero re-encoding.  Shared (not
  /// deep-copied) when the graph is copied: the cache is keyed by weight
  /// contents, so sharing is always safe.
  std::shared_ptr<nn::WeightPlanCache> plan_cache;

  bool on_accelerator() const {
    return kind == Kind::kMatmul || kind == Kind::kConv2d;
  }

  /// Matmul rows one sample streams through this step: im2col positions for
  /// kConv2d, 1 for kMatmul.
  std::size_t rows_per_sample() const;
};

/// Weight-tile residency footprint of one accelerator step, for a given
/// core geometry — the metadata the serve layer's warm/resident accounting
/// consumes.
struct StepPasses {
  std::size_t step = 0;             ///< index into Graph::steps()
  std::size_t passes = 0;           ///< weight-tile residencies per dispatch
  std::size_t rows_per_sample = 1;  ///< matmul rows streamed per request row
};

struct PassProfile {
  std::vector<StepPasses> steps;  ///< accelerator steps in schedule order
  std::size_t total_passes = 0;   ///< simultaneous residencies of one dispatch
};

/// Chain builder and the schedule it builds, read in order:
/// Graph(Shape{{64}}).matmul(w1).bias(b1).relu().matmul(w2).
class Graph {
 public:
  /// The chain's input: rank 1 (features) or rank 3 (h x w x c), non-empty.
  explicit Graph(Shape input);

  /// Dense product with a k x m weight matrix: a rank-1, non-negative value
  /// of width k becomes {m}.
  Graph& matmul(Matrix w);

  /// Valid square convolution: a non-negative {h, w, c_in} value, kernels
  /// is the im2col weight matrix (kernel_side^2 * c_in) x c_out with patch
  /// entries ordered (di, dj, ch) — the layout the executor's im2col emits.
  /// The value becomes {h-k+1, w-k+1, c_out}.
  Graph& conv2d(Matrix kernels, std::size_t kernel_side);

  /// Adds b[ch] to every position of channel ch (features for rank 1).
  Graph& bias(std::vector<double> b);

  Graph& relu();

  /// Non-overlapping window max per channel; trailing rows/cols that do not
  /// fill a window are dropped (floor semantics).
  Graph& maxpool(std::size_t window);

  /// {h, w, c} -> {h*w*c}.  Free: storage is already flat.
  Graph& flatten();

  const std::vector<Step>& steps() const { return steps_; }
  const Shape& input_shape() const { return input_; }
  const Shape& output_shape() const { return shape_; }
  std::size_t input_size() const { return input_.size(); }
  std::size_t output_size() const { return shape_.size(); }

  /// Residency metadata for cores with tile_m rows x tile_k cols, mirroring
  /// nn::build_weight_plan's tile counts (doubled under differential
  /// weight encoding).
  PassProfile pass_profile(std::size_t tile_m, std::size_t tile_k,
                           bool differential) const;

  /// Printable per-pass schedule for the same geometry: one line per step
  /// with its tile passes and streamed rows.
  std::string schedule_dump(std::size_t tile_m, std::size_t tile_k,
                            bool differential) const;

 private:
  /// Appends a step of `kind` that consumes the current value and leaves
  /// one of shape `out`.
  Step& open(Step::Kind kind, std::string label, Shape out);
  /// Fuses `op` into the last step (opening a host step on the bare input).
  void fuse(EpilogueOp op, const char* name);
  /// Rejects feeding the current value to the photonic input of `op`.
  void expect_non_negative(const char* op) const;

  Shape input_;
  Shape shape_;               ///< the current value's shape
  bool non_negative_ = true;  ///< the current value is provably >= 0
  std::vector<Step> steps_;
};

}  // namespace ptc::graph

#endif  // PTC_GRAPH_GRAPH_HPP
