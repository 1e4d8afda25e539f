#ifndef PTC_TELEMETRY_BENCH_REPORT_HPP
#define PTC_TELEMETRY_BENCH_REPORT_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"

/// Schema-versioned machine-readable bench artifacts (BENCH_*.json) and the
/// baseline comparison behind bench/bench_compare — the in-repo perf
/// trajectory.  Each bench emits a flat list of named metrics; metrics with
/// a direction and tolerance are *gated*: bench_compare diffs them against
/// the committed baseline and fails CI when the current value regresses
/// beyond tolerance.  Informational metrics (direction 0) are recorded in
/// the trajectory but never gate.
///
/// Schema (docs/telemetry.md documents it in full):
///   {"schema_version": 1, "bench": "<name>",
///    "meta": {"<key>": <string|number>, ...},
///    "metrics": [{"name": ..., "value": ..., "unit": ...,
///                 "direction": "higher"|"lower"|"none",
///                 "tolerance": <relative slack>}, ...]}
namespace ptc::telemetry {

/// Which way "better" points for a gated metric.
enum class Direction {
  kHigherIsBetter,
  kLowerIsBetter,
  kInformational,  ///< recorded, never gated
};

struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Direction direction = Direction::kInformational;
  /// Relative slack before a regression trips: higher-is-better fails when
  /// current < baseline * (1 - tolerance); lower-is-better fails when
  /// current > baseline * (1 + tolerance).
  double tolerance = 0.0;
};

/// Builder for one BENCH_*.json artifact.
class BenchReport {
 public:
  static constexpr int kSchemaVersion = 1;

  explicit BenchReport(std::string bench_name);

  /// Numeric context (matrix shape, request counts, ...) — recorded, not
  /// compared.
  void set_meta(const std::string& key, double value);

  /// Adds a gated metric.
  void add_metric(const std::string& name, double value,
                  const std::string& unit, Direction direction,
                  double tolerance);
  /// Adds an informational (never gated) metric.
  void add_info(const std::string& name, double value,
                const std::string& unit);

  const std::string& bench_name() const { return bench_name_; }
  const std::vector<BenchMetric>& metrics() const { return metrics_; }

  std::string to_json() const;
  /// Writes to_json() to `path`; throws std::runtime_error on IO error.
  void write(const std::string& path) const;

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> meta_;  ///< pre-rendered
  std::vector<BenchMetric> metrics_;
};

/// One metric's baseline-vs-current comparison.
struct MetricComparison {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  ///< current / baseline (0 when baseline is 0)
  bool gated = false;
  /// Baseline-declared relative slack (0 for informational metrics).
  double tolerance = 0.0;
  /// The pass/fail threshold the tolerance implies: the floor
  /// (higher-is-better) or ceiling (lower-is-better) the current value was
  /// held against; 0 for informational metrics.
  double bound = 0.0;
  bool regressed = false;
  std::string note;  ///< human-readable verdict
};

struct BenchComparison {
  bool pass = true;  ///< no gated metric regressed and schemas line up
  std::vector<MetricComparison> metrics;
  std::vector<std::string> problems;  ///< schema, name or metric faults
};

/// Diffs a current BENCH report against the committed baseline.  Gating
/// (direction, tolerance) is read from the *baseline* — the committed
/// trajectory owns the bar; a current run cannot loosen it.  A gated
/// baseline metric missing from the current report is a failure, and so is
/// a metric in either report whose direction is not exactly "higher",
/// "lower" or "none" or whose tolerance is negative or not finite (each
/// named in `problems`).
BenchComparison compare_bench_reports(const json::Value& baseline,
                                      const json::Value& current);

/// Convenience: parse both files and compare; IO/parse problems land in
/// BenchComparison::problems with pass = false.
BenchComparison compare_bench_files(const std::string& baseline_path,
                                    const std::string& current_path);

}  // namespace ptc::telemetry

#endif  // PTC_TELEMETRY_BENCH_REPORT_HPP
