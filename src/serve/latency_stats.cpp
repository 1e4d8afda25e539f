#include "serve/latency_stats.hpp"

#include <algorithm>

#include "common/statistics.hpp"

namespace ptc::serve {

LatencyStats LatencyStats::from_histogram(const telemetry::Histogram& h) {
  LatencyStats stats;
  if (h.count() == 0) return stats;
  stats.count = h.count();
  stats.mean = h.mean();
  stats.p50 = h.percentile(50.0);
  stats.p95 = h.percentile(95.0);
  stats.p99 = h.percentile(99.0);
  stats.max = h.max_value();
  return stats;
}

LatencyStats LatencyStats::from(const std::vector<double>& xs) {
  LatencyStats stats;
  if (xs.empty()) return stats;
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  stats.count = sorted.size();
  stats.mean = ptc::mean(sorted);
  stats.p50 = percentile_sorted(sorted, 50.0);
  stats.p95 = percentile_sorted(sorted, 95.0);
  stats.p99 = percentile_sorted(sorted, 99.0);
  stats.max = sorted.back();
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

double ServeReport::warm_fraction() const {
  return passes > 0 ? static_cast<double>(warm_passes) /
                          static_cast<double>(passes)
                    : 0.0;
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

LatencyStats ServeReport::tenant_total(const std::string& tenant) const {
  std::vector<double> totals;
  for (const RequestRecord& record : requests) {
    if (record.tenant == tenant) totals.push_back(record.total());
  }
  return LatencyStats::from(totals);
}

}  // namespace ptc::serve
