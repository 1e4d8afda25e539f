#include "nn/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/expects.hpp"

namespace ptc::nn {

WeightPlanCache::WeightPlanCache(std::size_t capacity) : capacity_(capacity) {
  expects(capacity >= 1, "plan cache needs at least one slot");
}

std::shared_ptr<const WeightPlan> WeightPlanCache::get(const Matrix& w,
                                                       std::size_t tile_m,
                                                       std::size_t tile_k,
                                                       bool differential) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const WeightPlan& p = **it;
    // Content-keyed: geometry probe first, then element equality.  A weight
    // matrix whose values changed can never be served a stale plan.
    if (p.tile_m == tile_m && p.tile_k == tile_k &&
        p.differential == differential && p.source.rows() == w.rows() &&
        p.source.cols() == w.cols() && p.source.data() == w.data()) {
      // Promote the hit to most-recently-used in place.
      std::rotate(entries_.begin(), it, std::next(it));
      return entries_.front();
    }
  }
  std::shared_ptr<const WeightPlan> built =
      build_weight_plan(w, tile_m, tile_k, differential);
  ++builds_;
  entries_.insert(entries_.begin(), built);
  if (entries_.size() > capacity_) entries_.pop_back();
  return built;
}

std::size_t WeightPlanCache::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

std::size_t tile_passes(std::size_t k, std::size_t m, std::size_t tile_m,
                        std::size_t tile_k, bool differential) {
  return (k + tile_k - 1) / tile_k * ((m + tile_m - 1) / tile_m) *
         (differential ? 2 : 1);
}

std::shared_ptr<const WeightPlan> build_weight_plan(const Matrix& w,
                                                    std::size_t tile_m,
                                                    std::size_t tile_k,
                                                    bool differential) {
  expects(tile_m >= 1 && tile_k >= 1, "tile geometry must be positive");

  auto plan = std::make_shared<WeightPlan>();
  plan->k = w.rows();
  plan->m = w.cols();
  plan->tile_k = tile_k;
  plan->tile_m = tile_m;
  plan->differential = differential;
  plan->mapping = signed_mapping_for(w);
  plan->source = w;

  plan->passes.reserve(
      tile_passes(plan->k, plan->m, tile_m, tile_k, differential));
  for (std::size_t mt = 0; mt < plan->m_tiles(); ++mt) {
    for (std::size_t kt = 0; kt < plan->k_tiles(); ++kt) {
      if (differential) {
        // W+ pass then W- pass; padded cells are exact zeros.
        plan->passes.push_back(
            {mt, kt, TilePass::Encoding::kPositive, +1.0, 0.0});
        plan->passes.push_back(
            {mt, kt, TilePass::Encoding::kNegative, -1.0, 0.0});
      } else {
        // Offset encoding; padded cells carry the encoding of w = 0 (0.5)
        // but see zero input, so they contribute nothing.
        plan->passes.push_back(
            {mt, kt, TilePass::Encoding::kOffset, +1.0, 0.5});
      }
    }
  }

  plan->encoded.reserve(plan->passes.size());
  for (const TilePass& pass : plan->passes) {
    plan->encoded.push_back(encode_weight_block(*plan, pass, w));
  }
  return plan;
}

TilePlan plan_from_weights(std::shared_ptr<const WeightPlan> weights,
                           const Matrix& x, Matrix& x_norm) {
  expects(weights != nullptr, "weight plan must be non-null");
  expects(x.cols() == weights->k, "matmul inner dimensions must agree");

  TilePlan plan;
  plan.samples = x.rows();
  plan.k = weights->k;
  plan.m = weights->m;
  plan.tile_k = weights->tile_k;
  plan.tile_m = weights->tile_m;
  plan.mapping = weights->mapping;
  plan.passes = weights->passes;  // a view; plan.weights keeps it alive
  plan.x_scale = normalized_activations(x, x_norm);
  plan.weights = std::move(weights);
  return plan;
}

Matrix encode_weight_block(const WeightPlan& plan, const TilePass& pass,
                           const Matrix& w) {
  expects(w.rows() == plan.k && w.cols() == plan.m,
          "weights must be the plan's k x m matrix");
  Matrix block(plan.tile_m, plan.tile_k, pass.pad_value);
  // The block's cells inside w; the rest keep the pad value.
  const std::size_t m_begin = pass.mt * plan.tile_m;
  const std::size_t k_begin = pass.kt * plan.tile_k;
  const std::size_t m_count =
      m_begin < plan.m ? std::min(plan.tile_m, plan.m - m_begin) : 0;
  const std::size_t k_count =
      k_begin < plan.k ? std::min(plan.tile_k, plan.k - k_begin) : 0;
  const double* source = w.data().data();
  for (std::size_t r = 0; r < m_count; ++r) {
    double* block_row = block.data().data() + r * plan.tile_k;
    for (std::size_t c = 0; c < k_count; ++c) {
      const double v = source[(k_begin + c) * plan.m + m_begin + r];
      switch (pass.encoding) {
        case TilePass::Encoding::kOffset:
          block_row[c] = plan.mapping.to_unit(v);
          break;
        case TilePass::Encoding::kPositive:
          block_row[c] = std::max(0.0, v) / plan.mapping.scale;
          break;
        case TilePass::Encoding::kNegative:
          block_row[c] = std::max(0.0, -v) / plan.mapping.scale;
          break;
      }
    }
  }
  return block;
}

namespace {

/// Throws unless `pass` addresses a tile of `plan`.
void expect_pass_in_plan(const TilePlan& plan, const TilePass& pass) {
  expects(pass.kt < plan.k_tiles() && pass.mt < plan.m_tiles(),
          "pass tile out of range for the tile plan");
}

}  // namespace

void run_tile_pass(core::TensorCore& core, const TilePlan& plan,
                   std::size_t pass_index, const Matrix& x_norm,
                   const PhotonicBackendOptions& options,
                   TilePassBuffers& buffers, TilePassResult& result) {
  expects(core.rows() == plan.tile_m && core.cols() == plan.tile_k,
          "core geometry must match the tile plan");
  expects(plan.weights != nullptr && pass_index < plan.passes.size(),
          "pass index out of range for the tile plan");
  expects(x_norm.rows() == plan.samples && x_norm.cols() == plan.k,
          "normalized input shape must be samples x k");
  const TilePass& pass = plan.passes[pass_index];
  expect_pass_in_plan(plan, pass);

  result.reload_time =
      core.load_weights_normalized(plan.weights->encoded[pass_index]);

  // Gather this pass's input slice once — samples x tile_k, zero-padded at
  // the tile edge — along with the per-sample input sums the offset
  // encoding's digital correction needs.  The buffers outlive the pass, so
  // every row's padding is rewritten: an earlier, wider pass left data
  // there.
  buffers.block.resize(plan.samples * plan.tile_k);
  buffers.input_sums.resize(plan.samples);
  const std::size_t k_begin = pass.kt * plan.tile_k;
  const std::size_t k_count = std::min(plan.tile_k, plan.k - k_begin);
  for (std::size_t s = 0; s < plan.samples; ++s) {
    const double* x_row = x_norm.data().data() + s * plan.k + k_begin;
    double* block_row = buffers.block.data() + s * plan.tile_k;
    double input_sum = 0.0;
    for (std::size_t c = 0; c < k_count; ++c) {
      block_row[c] = x_row[c];
      input_sum += x_row[c];
    }
    std::fill(block_row + k_count, block_row + plan.tile_k, 0.0);
    buffers.input_sums[s] = input_sum;
  }

  // Row value t_r ~= sum_c in_c * w_unit_rc / tile_k (normalized).  The
  // whole batch streams through the residency in one call, reading out
  // straight into the contribution rows; under quantization the readout
  // gain is programmed once for the pass instead of being toggled around
  // every sample.
  Matrix& contribution = result.contribution;
  contribution.assign(plan.samples, plan.tile_m);
  if (options.quantize_output) {
    core.set_readout_gain(options.adc_range_gain);
    core.multiply_batch(buffers.block, contribution.data());
    core.set_readout_gain(1.0);
  } else {
    core.multiply_analog_batch(buffers.block, contribution.data());
  }

  // Each row value becomes its contribution in place; only the pass's
  // valid output rows carry one, and the padded rows are zeroed.
  const bool offset_correct = pass.encoding == TilePass::Encoding::kOffset;
  const std::size_t m_count =
      std::min(plan.tile_m, plan.m - pass.mt * plan.tile_m);
  for (std::size_t s = 0; s < plan.samples; ++s) {
    double* out_row = contribution.data().data() + s * plan.tile_m;
    for (std::size_t r = 0; r < m_count; ++r) {
      const double t_r = options.quantize_output
                             ? out_row[r] / options.adc_range_gain
                             : out_row[r];
      const double unit_dot = t_r * static_cast<double>(plan.tile_k);
      // Offset encoding: sum w * in = scale * (2 * unit_dot - sum in).
      // Differential encoding: the pass directly yields scale * unit_dot.
      const double dot =
          offset_correct
              ? plan.mapping.scale * (2.0 * unit_dot - buffers.input_sums[s])
              : plan.mapping.scale * unit_dot;
      out_row[r] = pass.sign * plan.x_scale * dot;
    }
    std::fill(out_row + m_count, out_row + plan.tile_m, 0.0);
  }
}

TilePassResult run_tile_pass(core::TensorCore& core, const TilePlan& plan,
                             std::size_t pass_index, const Matrix& x_norm,
                             const PhotonicBackendOptions& options) {
  TilePassBuffers buffers;
  TilePassResult result;
  run_tile_pass(core, plan, pass_index, x_norm, options, buffers, result);
  return result;
}

void accumulate_pass(Matrix& y, const TilePlan& plan, const TilePass& pass,
                     const Matrix& contribution) {
  expects(y.rows() == plan.samples && y.cols() == plan.m,
          "result shape must match the tile plan");
  expects(contribution.rows() == plan.samples &&
              contribution.cols() == plan.tile_m,
          "contribution shape must be samples x tile_m");
  expect_pass_in_plan(plan, pass);
  const std::size_t m_begin = pass.mt * plan.tile_m;
  const std::size_t m_count = std::min(plan.tile_m, plan.m - m_begin);
  for (std::size_t s = 0; s < plan.samples; ++s) {
    double* y_row = y.data().data() + s * plan.m + m_begin;
    const double* c_row = contribution.data().data() + s * plan.tile_m;
    for (std::size_t r = 0; r < m_count; ++r) y_row[r] += c_row[r];
  }
}

}  // namespace ptc::nn
