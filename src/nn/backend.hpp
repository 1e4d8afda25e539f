#ifndef PTC_NN_BACKEND_HPP
#define PTC_NN_BACKEND_HPP

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/linalg.hpp"
#include "core/tensor_core.hpp"

namespace ptc::telemetry {
class Tracer;
}  // namespace ptc::telemetry

/// Pluggable matrix-multiply execution backends: a float reference and the
/// photonic tensor core.  Networks talk to the backend interface, so the
/// same model runs digitally or on the simulated hardware.
namespace ptc::nn {

struct WeightPlan;

/// Content-keyed store of weight-dependent tile plans (see nn/tiling.hpp).
/// Planning a tiled matmul splits into a weight half — signed mapping, pass
/// list, encoded unit-weight blocks — and an input half (batch size,
/// activation scale).  The weight half is cached here so serving
/// steady-state pays zero re-planning and zero re-encoding per dispatch.
///
/// Entries are keyed by tile geometry, encoding mode, and the *contents* of
/// the weight matrix: a changed weight (new model version, a training step)
/// can never be served a stale plan — the equality probe misses and the
/// plan is rebuilt.  Thread-safe; share one cache per weight tensor (the
/// graph compiler attaches one to every accelerator step) or per backend.
class WeightPlanCache {
 public:
  /// Plans are dropped least-recently-used beyond `capacity` entries.
  explicit WeightPlanCache(std::size_t capacity = 8);

  /// Returns the cached plan for (w, geometry, encoding), building it on
  /// the first call and after any change to w's contents.
  std::shared_ptr<const WeightPlan> get(const Matrix& w, std::size_t tile_m,
                                        std::size_t tile_k, bool differential);

  /// Number of plan builds performed (misses), for tests and diagnostics.
  std::size_t builds() const;

 private:
  mutable std::mutex mu_;
  /// Most-recently-used first.
  std::vector<std::shared_ptr<const WeightPlan>> entries_;
  std::size_t capacity_;
  std::size_t builds_ = 0;
};

class MatmulBackend {
 public:
  virtual ~MatmulBackend() = default;

  /// Computes x (s x k) times w (k x m) -> (s x m).  `x` must be
  /// non-negative (intensity-encoded); `w` may be signed.
  virtual Matrix matmul(const Matrix& x, const Matrix& w) = 0;

  /// Like matmul, with a caller-owned plan cache for the weight-dependent
  /// tiling work (the graph executor passes each step's cache).  Backends
  /// that do not tile ignore the cache.
  virtual Matrix matmul_cached(const Matrix& x, const Matrix& w,
                               WeightPlanCache& cache) {
    (void)cache;
    return matmul(x, w);
  }

  virtual const char* name() const = 0;

  /// Telemetry hooks: backends with a modeled hardware clock and an
  /// attached span tracer expose them so the graph executor can wrap each
  /// schedule step in a span.  The default (digital backends, no sink) is
  /// the zero-overhead no-op path.
  virtual telemetry::Tracer* tracer() const { return nullptr; }
  /// Modeled-time cursor [s]; meaningful only when tracer() is attached.
  virtual double modeled_time() const { return 0.0; }
};

/// Exact floating-point reference.
class FloatBackend final : public MatmulBackend {
 public:
  Matrix matmul(const Matrix& x, const Matrix& w) override;
  const char* name() const override { return "float"; }
};

struct PhotonicBackendOptions {
  /// When true, row outputs pass through the 3-bit eoADC (full hardware
  /// path).  When false, the analog row value is read out directly —
  /// modelling a high-resolution ADC for accuracy ablations.
  bool quantize_output = true;
  /// Signed-weight handling.  false: offset encoding w -> (w+1)/2 with a
  /// digital -sum(x) correction (one pass, but an even level count cannot
  /// represent w = 0 exactly).  true: differential W+/W- double-pass — zero
  /// weights are exact and quantization bias largely cancels, at twice the
  /// tile loads (the standard photonic-IMC differential trick).
  bool differential_weights = false;
  /// Programmable readout gain (row-TIA ranging) applied while quantizing,
  /// so sparse dot products occupy the full eoADC range; codes are divided
  /// back by the gain digitally.  Must be >= 1.
  double adc_range_gain = 1.0;
};

/// Executes matmuls on the photonic tensor core by tiling: the weight
/// matrix is cut into rows x cols blocks (zero-padded at the edges), loaded
/// into the pSRAM via optical writes, and partial products are accumulated
/// digitally.  Signed weights use the offset encoding w -> (w+1)/2 with a
/// digital correction of -sum(x) per output.
class PhotonicBackend final : public MatmulBackend {
 public:
  PhotonicBackend(core::TensorCore& core,
                  const PhotonicBackendOptions& options = {});

  Matrix matmul(const Matrix& x, const Matrix& w) override;
  Matrix matmul_cached(const Matrix& x, const Matrix& w,
                       WeightPlanCache& cache) override;
  const char* name() const override { return "photonic"; }

  /// Number of weight-tile loads performed so far (each one is a full
  /// optical pSRAM reload — the operation the 20 GHz update rate makes
  /// cheap).
  std::size_t tile_loads() const { return tile_loads_; }

  /// Cumulative pSRAM reload latency across all tile loads [s].
  double reload_time() const { return reload_time_; }

 private:
  core::TensorCore& core_;
  PhotonicBackendOptions options_;
  WeightPlanCache plan_cache_;
  std::size_t tile_loads_ = 0;
  double reload_time_ = 0.0;
};

}  // namespace ptc::nn

#endif  // PTC_NN_BACKEND_HPP
