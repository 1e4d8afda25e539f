#ifndef PTC_GRAPH_COMPILE_HPP
#define PTC_GRAPH_COMPILE_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/ir.hpp"

namespace ptc::nn {
class WeightPlanCache;
}  // namespace ptc::nn

/// Lowering pass pipeline: Graph -> CompiledGraph, a flat schedule of steps
/// the executor interprets against any nn::MatmulBackend (and the serve
/// layer costs against the accelerator fleet).
///
/// Lowering rules, applied along the chain from the input to the output:
///  - `matmul` becomes a kMatmul step: one tiled weight-matrix product on
///    the accelerator (ceil(k/tile_k) * ceil(m/tile_m) weight-tile passes,
///    doubled under differential encoding).
///  - `conv2d` becomes a kConv2d step: im2col gathers every output position
///    of every sample into one stacked activation matrix, so the whole
///    batch streams through each kernel-tile residency in a single pass —
///    the conv lowering that maximizes the paper's reload amortization
///    (positions-per-sample rows per request instead of 1).
///  - `bias` and `relu` are FUSED into the step before them as its
///    epilogue; they cost no extra accelerator passes.  One with no step
///    before it (directly on the input) lowers to a host-side kElementwise
///    step.
///  - `maxpool` is a host-side kMaxPool step (data marshalling between
///    accelerator passes), and `flatten` disappears entirely: storage is
///    already flat, so it only rewrites the value's shape metadata.
/// Nodes off the chain that ends at the output are dead code and emit
/// nothing.
namespace ptc::graph {

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

  /// Weight-plan cache for this step's (immutable) weights, created at
  /// compile time for accelerator steps.  The executor hands it to the
  /// backend so the signed mapping, pass list, and encoded unit-weight
  /// blocks are built once per weight version instead of once per batch —
  /// serving steady-state does zero re-planning and zero re-encoding.
  /// Shared (not deep-copied) when the compiled graph is copied: the cache
  /// is keyed by weight contents, so sharing is always safe.
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
  std::size_t step = 0;             ///< index into CompiledGraph::steps
  std::size_t passes = 0;           ///< weight-tile residencies per dispatch
  std::size_t rows_per_sample = 1;  ///< matmul rows streamed per request row
};

struct PassProfile {
  std::vector<StepPasses> steps;  ///< accelerator steps in schedule order
  std::size_t total_passes = 0;   ///< simultaneous residencies of one dispatch
};

/// The flat schedule plus everything needed to execute and cost it.
struct CompiledGraph {
  std::vector<Step> steps;
  Shape input_shape;
  Shape output_shape;

  std::size_t input_size() const { return input_shape.size(); }
  std::size_t output_size() const { return output_shape.size(); }

  /// Residency metadata for cores with tile_m rows x tile_k cols, mirroring
  /// nn::build_weight_plan's tile counts (doubled under differential
  /// weight encoding).
  PassProfile pass_profile(std::size_t tile_m, std::size_t tile_k,
                           bool differential) const;

  /// Printable per-pass schedule for the same geometry: one line per step
  /// with its tile passes and streamed rows.
  std::string schedule_dump(std::size_t tile_m, std::size_t tile_k,
                            bool differential) const;
};

/// Lowers `g` (see the rules above).  Pure function of the graph.
CompiledGraph compile(const Graph& g);

}  // namespace ptc::graph

#endif  // PTC_GRAPH_COMPILE_HPP
