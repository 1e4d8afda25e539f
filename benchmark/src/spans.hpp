#ifndef PTC_BENCHMARK_SPANS_HPP
#define PTC_BENCHMARK_SPANS_HPP

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "common/linalg.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"

/// Host-time spans taken from the benchmark's own code, around calls into
/// each layer's public functions — the library itself carries no tracing.
/// Where a layer is reachable only from inside the program, the benchmark
/// re-enters the same work one layer down and takes the difference (the
/// "peel", see README.md); the helpers for that live here too.
namespace ptc::benchmark {

/// One host-time interval [s since the log was created].
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;  ///< index of the enclosing span, -1 at top level
  double duration() const { return end - start; }
};

/// Spans of one traced round, kept in memory until the round ends.  Spans
/// nest where the benchmark's own calls nest: a span opened while another
/// is open becomes its child.  Single-threaded by design — every span is
/// opened on the thread that drives the workload.
class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  std::size_t open(const char* name);
  void close(std::size_t id);

  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;
  /// Durations of every span called `name`, in opening order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes {"spans": [{name, start, end, parent, workload}, ...]} with
  /// times in seconds.  Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_;
};

/// The L2 and L3 levels of the peel for matmuls seen at the runtime
/// boundary.  Each matmul is replayed as soon as the fleet has run it, so
/// the fleet call, L2 and L3 see the same host speed and their differences
/// are not swamped by the machine's drift.
///  - L2: serially on one fresh TensorCore, through the plan cache,
///    plan_from_weights, run_tile_pass and accumulate_pass.  Plan caches
///    mirror the live path: a large one for graph-step calls (their
///    per-step caches always hit) and a default-sized one for direct calls
///    (the accelerator's own cache).
///  - L3: the same passes on another fresh TensorCore, calling
///    load_weights_normalized and multiply_batch (or multiply_analog_batch)
///    directly; only those calls count as core time.  The contribution
///    arithmetic mirrors nn::run_tile_pass so L3 can equal L2 bit for bit.
class Replayer {
 public:
  /// `bitwise`: L2 must equal the fleet's output bit for bit (a fleet
  /// without device variation); otherwise it must match the float product
  /// within float_tolerance().
  Replayer(const core::TensorCoreConfig& config,
           const nn::PhotonicBackendOptions& options, bool bitwise);

  /// Replays x * w at L2 and L3 and checks both against the fleet's `y`.
  void replay(const Matrix& x, const Matrix& w, const Matrix& y, bool cached);

  double l2_seconds() const { return l2_seconds_; }
  double core_seconds() const { return core_seconds_; }
  double load_seconds() const { return load_seconds_; }
  std::size_t loads() const { return loads_; }      ///< tile passes replayed
  std::size_t samples() const { return samples_; }  ///< ADC sample windows
  std::size_t calls() const { return calls_; }
  std::size_t l2_mismatches() const { return l2_mismatches_; }
  std::size_t l3_mismatches() const { return l3_mismatches_; }
  bool bitwise() const { return bitwise_; }

 private:
  Matrix tiling_level(const Matrix& x, const Matrix& w, bool cached);
  Matrix core_level(const Matrix& x, const Matrix& w, bool cached);

  nn::PhotonicBackendOptions options_;
  bool bitwise_;
  core::TensorCore tiling_core_;
  core::TensorCore core_core_;
  nn::WeightPlanCache tiling_step_cache_;
  nn::WeightPlanCache tiling_direct_cache_;
  nn::WeightPlanCache core_step_cache_;
  nn::WeightPlanCache core_direct_cache_;
  double l2_seconds_ = 0.0;
  double core_seconds_ = 0.0;
  double load_seconds_ = 0.0;
  std::size_t loads_ = 0;
  std::size_t samples_ = 0;
  std::size_t calls_ = 0;
  std::size_t l2_mismatches_ = 0;
  std::size_t l3_mismatches_ = 0;
};

/// nn::MatmulBackend decorator used for the L1 peel: forwards every call to
/// `inner` under a `runtime.matmul` span, then hands it to the replayer
/// under a `bench.replay` span, which the self-time arithmetic excludes.
class PeelingBackend final : public nn::MatmulBackend {
 public:
  PeelingBackend(nn::MatmulBackend& inner, SpanLog& log, Replayer& replayer)
      : inner_(inner), log_(log), replayer_(replayer) {}

  Matrix matmul(const Matrix& x, const Matrix& w) override;
  Matrix matmul_cached(const Matrix& x, const Matrix& w,
                       nn::WeightPlanCache& cache) override;
  const char* name() const override { return inner_.name(); }

 private:
  nn::MatmulBackend& inner_;
  SpanLog& log_;
  Replayer& replayer_;
};

/// Largest error a correct tiled matmul of x (non-negative) by w may show
/// against the float product — the bound tests/test_property_tiling.cpp
/// uses, scaled by the activation range (that test draws x in [0, 1)).
double float_tolerance(const Matrix& x, const Matrix& w, bool quantize);

}  // namespace ptc::benchmark

#endif  // PTC_BENCHMARK_SPANS_HPP
