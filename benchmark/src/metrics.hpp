#ifndef PTC_BENCHMARK_METRICS_HPP
#define PTC_BENCHMARK_METRICS_HPP

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hpp"

/// The benchmark's metric catalogue (mirrored by BENCHMARK.json, which
/// `--check` verifies against it), the round-to-run aggregation, and the
/// results-file comparison behind `--compare`.
namespace ptc::benchmark {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  /// Share of the baseline median by which the metric may worsen before a
  /// change counts as a regression (end-to-end metrics only).
  double bound;
};

/// End-to-end metrics, reported for every workload with tracing off.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported for every workload by the traced round.
const std::vector<MetricSpec>& per_layer_metrics();

/// End-to-end metrics that are pure functions of (workload, seed): they
/// must repeat bit for bit in every round and at every host thread count.
bool is_deterministic(const std::string& metric);

/// First quartile, median and third quartile as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method)
/// gives them; a single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median, 0 when the median is 0.
  double spread() const;
};
Quartiles quartiles(std::vector<double> values);

/// Compares two results files (written by ptc_benchmark) and prints one
/// row per (end-to-end metric, workload) with both medians, quartiles, the
/// bound and a verdict:
///  - better / worse: the candidate median moved past the bound;
///  - same: within the bound;
///  - unresolved: the run-to-run spread (q3 - q1) / median of either side
///    exceeds the bound, unless every candidate value beats — or loses to —
///    every baseline value by more than the bound.
/// Returns the process exit code: nonzero when any row is "worse" or a
/// file cannot be read.
int compare_results(const std::string& baseline_path,
                    const std::string& candidate_path);

/// Reads and parses a JSON file; throws std::invalid_argument when the
/// file is missing or malformed.
json::Value read_json_file(const std::string& path);

/// Writes `items` as a JSON array of strings.
void write_json_strings(std::ostream& out,
                        const std::vector<std::string>& items);

}  // namespace ptc::benchmark

#endif  // PTC_BENCHMARK_METRICS_HPP
