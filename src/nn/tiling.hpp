#ifndef PTC_NN_TILING_HPP
#define PTC_NN_TILING_HPP

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/linalg.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"
#include "nn/quant.hpp"

/// Matmul tiling shared by the single-core PhotonicBackend and the
/// multi-core runtime::Accelerator.
///
/// An (s x k) * (k x m) matmul decomposes into *passes*: one pSRAM residency
/// of one rows x cols weight block during which the whole input batch is
/// streamed through the core (the schedule that amortizes each 20 GHz
/// optical reload over the maximum number of 8 GS/s compute samples).
/// Every pass is independent of core state left by other passes, so passes
/// can execute on any core of an identical-device pool; summing the per-pass
/// contribution matrices in the canonical `TilePlan::passes` order
/// reproduces the sequential single-core accumulation bit for bit — the
/// determinism contract the runtime's tests pin down.
///
/// Planning splits into a weight half and an input half.  The weight half —
/// signed mapping, pass list, encoded unit-weight blocks — is a pure
/// function of (w, tile geometry, encoding) and is built once per weight
/// version as a WeightPlan, cached by nn::WeightPlanCache; per matmul only
/// the input half (batch size, activation scale) is computed.
namespace ptc::nn {

/// One weight-block residency.
struct TilePass {
  std::size_t mt = 0;  ///< output (column-of-w) tile index
  std::size_t kt = 0;  ///< inner (row-of-w) tile index
  /// How signed weights map onto the unsigned optical domain for this pass.
  enum class Encoding {
    kOffset,    ///< w -> (w/scale + 1)/2 with digital -sum(x) correction
    kPositive,  ///< differential W+ pass: max(0, w) / scale
    kNegative,  ///< differential W- pass: max(0, -w) / scale
  };
  Encoding encoding = Encoding::kOffset;
  double sign = 1.0;       ///< contribution sign (-1 for the W- pass)
  double pad_value = 0.5;  ///< encoding of the padding cells at tile edges
};

/// The weight-dependent half of a tiled matmul: everything that only
/// changes when the weights (or the tile geometry / encoding) change.
/// `passes` is in canonical order: mt-major, kt-minor, with the
/// differential W+ pass preceding W-; `encoded[i]` is the pre-encoded
/// [0, 1] unit-weight block pass i loads.
struct WeightPlan {
  std::size_t k = 0;       ///< inner dimension
  std::size_t m = 0;       ///< output dimension
  std::size_t tile_k = 0;  ///< core cols (inputs per tile)
  std::size_t tile_m = 0;  ///< core rows (outputs per tile)
  bool differential = false;
  SignedMapping mapping{};
  std::vector<TilePass> passes;
  std::vector<Matrix> encoded;  ///< per pass: tile_m x tile_k unit weights
  Matrix source;                ///< the weights this plan encodes (cache key)

  std::size_t k_tiles() const { return (k + tile_k - 1) / tile_k; }
  std::size_t m_tiles() const { return (m + tile_m - 1) / tile_m; }
};

/// Tile passes of a k x m weight matrix on tile_m x tile_k cores — the size
/// of build_weight_plan's pass list: ceil(k / tile_k) * ceil(m / tile_m)
/// blocks, twice under the differential W+/W- encoding.
std::size_t tile_passes(std::size_t k, std::size_t m, std::size_t tile_m,
                        std::size_t tile_k, bool differential);

/// Builds the weight half for an (s x k) times w (k x m) matmul on cores
/// with tile_m rows and tile_k cols.  Pure function of its arguments.
std::shared_ptr<const WeightPlan> build_weight_plan(const Matrix& w,
                                                    std::size_t tile_m,
                                                    std::size_t tile_k,
                                                    bool differential);

/// Full decomposition of one matmul: a shared weight half plus the
/// input-dependent fields.  `passes` is in canonical order (see WeightPlan).
struct TilePlan {
  std::size_t samples = 0;  ///< s: input vectors in the batch
  std::size_t k = 0;        ///< inner dimension
  std::size_t m = 0;        ///< output dimension
  std::size_t tile_k = 0;   ///< core cols (inputs per tile)
  std::size_t tile_m = 0;   ///< core rows (outputs per tile)
  double x_scale = 1.0;     ///< activation normalization scale
  SignedMapping mapping{};  ///< signed-weight mapping for the whole tensor
  /// A view of weights->passes; `weights` keeps the list alive.
  std::span<const TilePass> passes;
  /// Weight half this plan was derived from (holds the encoded blocks).
  std::shared_ptr<const WeightPlan> weights;

  std::size_t k_tiles() const { return (k + tile_k - 1) / tile_k; }
  std::size_t m_tiles() const { return (m + tile_m - 1) / tile_m; }
};

/// Completes a cached weight plan into a full TilePlan for the batch `x`:
/// writes the normalized activations into `x_norm` (reusing its storage —
/// no intermediate full copy) and records the scale.  The plan views the
/// weight plan's pass list rather than copying it.
TilePlan plan_from_weights(std::shared_ptr<const WeightPlan> weights,
                           const Matrix& x, Matrix& x_norm);

/// Encodes the (tile_m x tile_k) weight block of `pass` into [0, 1] unit
/// weights, padding out-of-range cells with the pass pad value.  `w` must
/// be the plan's k x m weights; its shape is checked once.
Matrix encode_weight_block(const WeightPlan& plan, const TilePass& pass,
                           const Matrix& w);

/// Output of one pass: the signed, scaled contribution of this weight block
/// to the result, plus the modeled pSRAM reload latency it cost.
struct TilePassResult {
  Matrix contribution;      ///< samples x tile_m
  double reload_time = 0.0; ///< [s]
};

/// Gather buffers of a tile-pass executor, reused from pass to pass: the
/// pass's input slice and the per-sample input sums.  A set serves one
/// pass at a time, so whoever runs passes concurrently owns one set per
/// executing core.
struct TilePassBuffers {
  std::vector<double> block;       ///< samples x tile_k, zero-padded
  std::vector<double> input_sums;  ///< one per sample
};

/// Runs pass `pass_index` on `core`: loads the pre-encoded weight block and
/// streams the whole normalized batch through it in one call (readout gain
/// programmed once per pass), writing the contribution into
/// `result.contribution` (reshaped to samples x tile_m, its storage
/// reused; the padded rows beyond m read zero) and the reload latency into
/// `result.reload_time`.  Gathers into `buffers`; with buffers and result
/// kept across passes it allocates nothing once they have grown.  Only the
/// executing core's state is touched.
void run_tile_pass(core::TensorCore& core, const TilePlan& plan,
                   std::size_t pass_index, const Matrix& x_norm,
                   const PhotonicBackendOptions& options,
                   TilePassBuffers& buffers, TilePassResult& result);

/// Value form: the pass above into fresh buffers and a fresh result.
TilePassResult run_tile_pass(core::TensorCore& core, const TilePlan& plan,
                             std::size_t pass_index, const Matrix& x_norm,
                             const PhotonicBackendOptions& options);

/// Adds a pass contribution into the result matrix y (samples x m).
/// Accumulating in canonical pass order is bit-identical to the sequential
/// single-core loop.
void accumulate_pass(Matrix& y, const TilePlan& plan, const TilePass& pass,
                     const Matrix& contribution);

}  // namespace ptc::nn

#endif  // PTC_NN_TILING_HPP
