#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "common/expects.hpp"
#include "common/json.hpp"
#include "nn/quant.hpp"
#include "nn/tiling.hpp"

namespace ptc::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Graph steps each own a plan cache that registration pre-warms, so they
/// always hit; one cache this large holds every step weight of the
/// benchmark's models at once.
constexpr std::size_t kStepCacheCapacity = 64;

}  // namespace

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

std::size_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  span.start = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  const double now = seconds_between(origin_, Clock::now());
  expects(!open_.empty() && open_.back() == id,
          "spans must close innermost first");
  spans_[id].end = now;
  open_.pop_back();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& span : spans_)
    if (span.name == name) sum += span.duration();
  return sum;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.duration());
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": " << json::quote(span.name)
        << ", \"start\": " << json::format_number(span.start)
        << ", \"end\": " << json::format_number(span.end)
        << ", \"parent\": " << span.parent
        << ", \"workload\": " << json::quote(workload_) << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Replayer::Replayer(const core::TensorCoreConfig& config,
                   const nn::PhotonicBackendOptions& options, bool bitwise)
    : options_(options),
      bitwise_(bitwise),
      tiling_core_(config),
      core_core_(config),
      tiling_step_cache_(kStepCacheCapacity),
      core_step_cache_(kStepCacheCapacity) {}

void Replayer::replay(const Matrix& x, const Matrix& w, const Matrix& y,
                      bool cached) {
  const Clock::time_point begin = Clock::now();
  const Matrix tiled = tiling_level(x, w, cached);
  l2_seconds_ += seconds_between(begin, Clock::now());
  const Matrix direct = core_level(x, w, cached);
  ++calls_;

  const bool l2_ok =
      bitwise_ ? tiled.rows() == y.rows() && tiled.cols() == y.cols() &&
                     tiled.data() == y.data()
               : tiled.max_abs_diff(matmul(x, w)) <=
                     float_tolerance(x, w, options_.quantize_output);
  l2_mismatches_ += l2_ok ? 0 : 1;
  l3_mismatches_ += direct.data() == tiled.data() ? 0 : 1;
}

Matrix Replayer::tiling_level(const Matrix& x, const Matrix& w, bool cached) {
  nn::WeightPlanCache& cache =
      cached ? tiling_step_cache_ : tiling_direct_cache_;
  Matrix x_norm;
  const nn::TilePlan plan = nn::plan_from_weights(
      cache.get(w, tiling_core_.rows(), tiling_core_.cols(),
                options_.differential_weights),
      x, x_norm);
  Matrix out(plan.samples, plan.m, 0.0);
  for (std::size_t i = 0; i < plan.passes.size(); ++i) {
    const nn::TilePassResult pass =
        nn::run_tile_pass(tiling_core_, plan, i, x_norm, options_);
    nn::accumulate_pass(out, plan, plan.passes[i], pass.contribution);
  }
  return out;
}

Matrix Replayer::core_level(const Matrix& x, const Matrix& w, bool cached) {
  nn::WeightPlanCache& cache = cached ? core_step_cache_ : core_direct_cache_;
  Matrix x_norm;
  const nn::TilePlan plan = nn::plan_from_weights(
      cache.get(w, core_core_.rows(), core_core_.cols(),
                options_.differential_weights),
      x, x_norm);
  Matrix out(plan.samples, plan.m, 0.0);
  for (std::size_t i = 0; i < plan.passes.size(); ++i) {
    const nn::TilePass& pass = plan.passes[i];
    // Input slice and per-sample sums, gathered as nn::run_tile_pass does.
    Matrix block(plan.samples, plan.tile_k, 0.0);
    std::vector<double> input_sums(plan.samples, 0.0);
    const std::size_t k_begin = pass.kt * plan.tile_k;
    const std::size_t k_count = std::min(plan.tile_k, plan.k - k_begin);
    for (std::size_t s = 0; s < plan.samples; ++s) {
      double input_sum = 0.0;
      for (std::size_t c = 0; c < k_count; ++c) {
        const double v = x_norm(s, k_begin + c);
        block(s, c) = v;
        input_sum += v;
      }
      input_sums[s] = input_sum;
    }

    const Clock::time_point t0 = Clock::now();
    core_core_.load_weights_normalized(plan.weights->encoded[i]);
    const Clock::time_point t1 = Clock::now();
    Matrix t;
    if (options_.quantize_output) {
      core_core_.set_readout_gain(options_.adc_range_gain);
      t = core_core_.multiply_batch(block);
      core_core_.set_readout_gain(1.0);
    } else {
      t = core_core_.multiply_analog_batch(block);
    }
    const Clock::time_point t2 = Clock::now();
    load_seconds_ += seconds_between(t0, t1);
    core_seconds_ += seconds_between(t0, t2);

    // The contribution arithmetic of nn::run_tile_pass +
    // nn::accumulate_pass, in the same operation order.
    const bool offset = pass.encoding == nn::TilePass::Encoding::kOffset;
    for (std::size_t s = 0; s < plan.samples; ++s) {
      for (std::size_t r = 0; r < plan.tile_m; ++r) {
        const std::size_t out_idx = pass.mt * plan.tile_m + r;
        if (out_idx >= plan.m) continue;
        const double t_r = options_.quantize_output
                               ? t(s, r) / options_.adc_range_gain
                               : t(s, r);
        const double unit_dot = t_r * static_cast<double>(plan.tile_k);
        const double dot =
            offset ? plan.mapping.scale * (2.0 * unit_dot - input_sums[s])
                   : plan.mapping.scale * unit_dot;
        const double contribution = pass.sign * plan.x_scale * dot;
        out(s, out_idx) += contribution;
      }
    }
  }
  loads_ += plan.passes.size();
  samples_ += plan.passes.size() * plan.samples;
  return out;
}

Matrix PeelingBackend::matmul(const Matrix& x, const Matrix& w) {
  Matrix y;
  {
    ScopedSpan span(log_, "runtime.matmul");
    y = inner_.matmul(x, w);
  }
  ScopedSpan span(log_, "bench.replay");
  replayer_.replay(x, w, y, /*cached=*/false);
  return y;
}

Matrix PeelingBackend::matmul_cached(const Matrix& x, const Matrix& w,
                                     nn::WeightPlanCache& cache) {
  Matrix y;
  {
    ScopedSpan span(log_, "runtime.matmul");
    y = inner_.matmul_cached(x, w, cache);
  }
  ScopedSpan span(log_, "bench.replay");
  replayer_.replay(x, w, y, /*cached=*/true);
  return y;
}

double float_tolerance(const Matrix& x, const Matrix& w, bool quantize) {
  double x_max = 0.0;
  for (double v : x.data()) x_max = std::max(x_max, v);
  const double x_scale = x_max > 0.0 ? x_max : 1.0;
  // The encoding's full scale: max |w|, or 1 for an all-zero w, which the
  // offset encoding cannot represent exactly (quantized outputs make such
  // w in attention).
  const double w_max = nn::signed_mapping_for(w).scale;
  const double k = static_cast<double>(w.rows());
  double tolerance = w_max * (0.35 * std::sqrt(k) + 0.03 * k) + 1e-12;
  if (quantize) {
    const double k_tiles = std::ceil(k / 16.0);
    tolerance += w_max * 2.0 * (16.0 / 7.0) * k_tiles;
  }
  return x_scale * tolerance;
}

}  // namespace ptc::benchmark
