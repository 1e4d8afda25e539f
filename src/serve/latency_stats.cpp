#include "serve/latency_stats.hpp"

#include <algorithm>

#include "common/statistics.hpp"

namespace ptc::serve {

LatencyStats LatencyStats::from(std::vector<double> xs) {
  LatencyStats stats;
  if (xs.empty()) return stats;
  std::sort(xs.begin(), xs.end());
  stats.count = xs.size();
  stats.mean = ptc::mean(xs);
  stats.p50 = percentile_sorted(xs, 50.0);
  stats.p95 = percentile_sorted(xs, 95.0);
  stats.p99 = percentile_sorted(xs, 99.0);
  stats.max = xs.back();
  return stats;
}

double ServeReport::throughput() const {
  return makespan > 0.0 ? static_cast<double>(completed) / makespan : 0.0;
}

double ServeReport::energy_per_request() const {
  return completed == 0 ? 0.0 : energy / static_cast<double>(completed);
}

double ServeReport::utilization() const {
  if (cores == 0 || makespan <= 0.0) return 0.0;
  return busy / (static_cast<double>(cores) * makespan);
}

double ServeReport::accuracy() const {
  return completed == 0 ? 0.0
                        : static_cast<double>(reference_matches) /
                              static_cast<double>(completed);
}

double ServeReport::availability() const {
  const std::size_t offered = completed + shed;
  return offered == 0 ? 1.0
                      : static_cast<double>(completed) /
                            static_cast<double>(offered);
}

double ServeReport::mean_batch() const {
  return dispatched_batches == 0 ? 0.0
                                 : static_cast<double>(completed) /
                                       static_cast<double>(dispatched_batches);
}

}  // namespace ptc::serve
