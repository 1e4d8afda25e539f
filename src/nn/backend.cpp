#include "nn/backend.hpp"

#include "common/expects.hpp"
#include "nn/tiling.hpp"

namespace ptc::nn {

Matrix FloatBackend::matmul(const Matrix& x, const Matrix& w) {
  return ptc::matmul(x, w);
}

PhotonicBackend::PhotonicBackend(core::TensorCore& core,
                                 const PhotonicBackendOptions& options)
    : core_(core), options_(options) {}

Matrix PhotonicBackend::matmul(const Matrix& x, const Matrix& w) {
  return matmul_cached(x, w, plan_cache_);
}

Matrix PhotonicBackend::matmul_cached(const Matrix& x, const Matrix& w,
                                      WeightPlanCache& cache) {
  Matrix x_norm;
  const TilePlan plan = plan_from_weights(
      cache.get(w, core_.rows(), core_.cols(), options_.differential_weights),
      x, x_norm);

  Matrix y(plan.samples, plan.m, 0.0);
  // The passes run one after another, so one set of buffers serves them.
  TilePassBuffers buffers;
  TilePassResult result;
  for (std::size_t i = 0; i < plan.passes.size(); ++i) {
    run_tile_pass(core_, plan, i, x_norm, options_, buffers, result);
    accumulate_pass(y, plan, plan.passes[i], result.contribution);
    reload_time_ += result.reload_time;
    ++tile_loads_;
  }
  return y;
}

}  // namespace ptc::nn
