#include "telemetry/bench_report.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/expects.hpp"

namespace ptc::telemetry {
namespace {

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kLowerIsBetter: return "lower";
    case Direction::kInformational: return "none";
  }
  return "none";
}

}  // namespace

BenchReport::BenchReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  expects(!bench_name_.empty(), "bench name must be non-empty");
}

void BenchReport::set_meta(const std::string& key, double value) {
  meta_.emplace_back(key, json::format_number(value));
}

void BenchReport::add_metric(const std::string& name, double value,
                             const std::string& unit, Direction direction,
                             double tolerance) {
  expects(tolerance >= 0.0, "tolerance must be >= 0");
  for (const BenchMetric& metric : metrics_) {
    expects(metric.name != name, "duplicate bench metric name");
  }
  metrics_.push_back({name, value, unit, direction, tolerance});
}

void BenchReport::add_info(const std::string& name, double value,
                           const std::string& unit) {
  add_metric(name, value, unit, Direction::kInformational, 0.0);
}

std::string BenchReport::to_json() const {
  std::ostringstream out;
  out << "{\n  \"schema_version\": " << kSchemaVersion << ",\n"
      << "  \"bench\": " << json::quote(bench_name_) << ",\n"
      << "  \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json::quote(meta_[i].first) << ": "
        << meta_[i].second;
  }
  out << "},\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const BenchMetric& m = metrics_[i];
    out << "    {\"name\": " << json::quote(m.name)
        << ", \"value\": " << json::format_number(m.value)
        << ", \"unit\": " << json::quote(m.unit)
        << ", \"direction\": \"" << direction_name(m.direction) << "\""
        << ", \"tolerance\": " << json::format_number(m.tolerance) << "}"
        << (i + 1 < metrics_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

void BenchReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("bench_report: cannot open " + path);
  }
  out << to_json();
  if (!out.good()) {
    throw std::runtime_error("bench_report: failed writing " + path);
  }
}

namespace {

struct ParsedMetric {
  double value = 0.0;
  Direction direction = Direction::kInformational;
  double tolerance = 0.0;
};

bool parse_metrics(const json::Value& report, const char* which,
                   std::map<std::string, ParsedMetric>& out,
                   std::vector<std::string>& problems) {
  try {
    const double version = report.at("schema_version").as_number();
    if (version != BenchReport::kSchemaVersion) {
      problems.push_back(std::string(which) + ": unsupported schema_version " +
                         json::format_number(version));
      return false;
    }
    const std::size_t problems_before = problems.size();
    for (const json::Value& metric : report.at("metrics").as_array()) {
      const std::string& name = metric.at("name").as_string();
      const std::string where =
          std::string(which) + ": metric \"" + name + "\": ";
      ParsedMetric parsed;
      parsed.value = metric.at("value").as_number();
      // A misspelt direction must not turn a gate into an informational row.
      const std::string& direction = metric.at("direction").as_string();
      if (direction == "higher") {
        parsed.direction = Direction::kHigherIsBetter;
      } else if (direction == "lower") {
        parsed.direction = Direction::kLowerIsBetter;
      } else if (direction == "none") {
        parsed.direction = Direction::kInformational;
      } else {
        problems.push_back(where + "unknown direction \"" + direction +
                           "\" (expected higher, lower or none)");
      }
      parsed.tolerance =
          metric.contains("tolerance") ? metric.at("tolerance").as_number()
                                       : 0.0;
      if (!(parsed.tolerance >= 0.0 && std::isfinite(parsed.tolerance))) {
        problems.push_back(where + "tolerance " +
                           json::format_number(parsed.tolerance) +
                           " is not a finite value >= 0");
      }
      out[name] = parsed;
    }
    return problems.size() == problems_before;
  } catch (const std::exception& e) {
    problems.push_back(std::string(which) + ": " + e.what());
    return false;
  }
}

}  // namespace

BenchComparison compare_bench_reports(const json::Value& baseline,
                                      const json::Value& current) {
  BenchComparison comparison;
  std::map<std::string, ParsedMetric> base_metrics, cur_metrics;
  if (!parse_metrics(baseline, "baseline", base_metrics,
                     comparison.problems) ||
      !parse_metrics(current, "current", cur_metrics, comparison.problems)) {
    comparison.pass = false;
    return comparison;
  }
  try {
    if (baseline.at("bench").as_string() != current.at("bench").as_string()) {
      comparison.problems.push_back(
          "bench name mismatch: baseline \"" +
          baseline.at("bench").as_string() + "\" vs current \"" +
          current.at("bench").as_string() + "\"");
      comparison.pass = false;
      return comparison;
    }
  } catch (const std::exception& e) {
    comparison.problems.push_back(e.what());
    comparison.pass = false;
    return comparison;
  }

  for (const auto& [name, base] : base_metrics) {
    MetricComparison mc;
    mc.name = name;
    mc.baseline = base.value;
    mc.gated = base.direction != Direction::kInformational;
    if (mc.gated) mc.tolerance = base.tolerance;

    const auto it = cur_metrics.find(name);
    if (it == cur_metrics.end()) {
      if (mc.gated) {
        mc.regressed = true;
        mc.note = "gated metric missing from current report";
        comparison.pass = false;
      } else {
        mc.note = "missing from current report (informational)";
      }
      comparison.metrics.push_back(std::move(mc));
      continue;
    }
    mc.current = it->second.value;
    mc.ratio = base.value != 0.0 ? mc.current / base.value : 0.0;

    if (mc.gated) {
      if (base.direction == Direction::kHigherIsBetter) {
        const double floor = base.value * (1.0 - base.tolerance);
        mc.bound = floor;
        mc.regressed = mc.current < floor;
        mc.note = mc.regressed
                      ? "regressed: " + json::format_number(mc.current) +
                            " < floor " + json::format_number(floor)
                      : "ok (floor " + json::format_number(floor) + ")";
      } else {
        const double ceiling = base.value * (1.0 + base.tolerance);
        mc.bound = ceiling;
        mc.regressed = mc.current > ceiling;
        mc.note = mc.regressed
                      ? "regressed: " + json::format_number(mc.current) +
                            " > ceiling " + json::format_number(ceiling)
                      : "ok (ceiling " + json::format_number(ceiling) + ")";
      }
      if (mc.regressed) comparison.pass = false;
    } else {
      mc.note = "informational";
    }
    comparison.metrics.push_back(std::move(mc));
  }
  return comparison;
}

namespace {

bool read_file(const std::string& path, std::string& out,
               std::vector<std::string>& problems) {
  std::ifstream in(path);
  if (!in) {
    problems.push_back("cannot open " + path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

BenchComparison compare_bench_files(const std::string& baseline_path,
                                    const std::string& current_path) {
  BenchComparison comparison;
  std::string baseline_text, current_text;
  if (!read_file(baseline_path, baseline_text, comparison.problems) ||
      !read_file(current_path, current_text, comparison.problems)) {
    comparison.pass = false;
    return comparison;
  }
  try {
    return compare_bench_reports(json::parse(baseline_text),
                                 json::parse(current_text));
  } catch (const std::invalid_argument& e) {
    comparison.problems.push_back(e.what());
    comparison.pass = false;
    return comparison;
  }
}

}  // namespace ptc::telemetry
