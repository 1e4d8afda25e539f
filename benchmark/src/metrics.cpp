#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/table.hpp"

namespace ptc::benchmark {
namespace {

constexpr bool kHigher = true;
constexpr bool kLower = false;

/// Signed relative change of `candidate` against `baseline`, positive when
/// the candidate is worse.
double worsening(const MetricSpec& spec, double baseline, double candidate) {
  if (baseline == candidate) return 0.0;
  const double scale = std::abs(baseline);
  const double delta = scale > 0.0
                           ? (candidate - baseline) / scale
                           : std::copysign(
                                 std::numeric_limits<double>::infinity(),
                                 candidate - baseline);
  return spec.higher_is_better ? -delta : delta;
}

std::string verdict(const MetricSpec& spec, const std::vector<double>& base,
                    const std::vector<double>& cand) {
  const Quartiles b = quartiles(base);
  const Quartiles c = quartiles(cand);
  const double worse = worsening(spec, b.median, c.median);
  if (std::max(b.spread(), c.spread()) > spec.bound) {
    // Every candidate value past every baseline value by more than the
    // bound is a verdict no spread can blur.
    bool all_better = true;
    bool all_worse = true;
    for (const double bv : base) {
      for (const double cv : cand) {
        const double w = worsening(spec, bv, cv);
        all_better = all_better && w < -spec.bound;
        all_worse = all_worse && w > spec.bound;
      }
    }
    if (all_better) return "better";
    if (all_worse) return "worse";
    return "unresolved";
  }
  if (worse > spec.bound) return "worse";
  if (worse < -spec.bound) return "better";
  return "same";
}

std::vector<double> round_values(const json::Value& metric) {
  std::vector<double> out;
  for (const json::Value& v : metric.at("values").as_array())
    out.push_back(v.as_number());
  return out;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  // A run of the benchmark takes a new load seed, so each bound has to hold
  // the metric's spread across seeds with room to spare: about three times
  // the widest interquartile spread measured over 10-seed windows.  The
  // deterministic metrics repeat bit for bit at one seed, and --compare of
  // two files run at the same seed holds them to exact equality instead.
  // Host times, even at reference speed, carry this machine's noise
  // (README.md, "Host noise").
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", kLower, 0.25},
      {"host_items_per_s", "items/s", kHigher, 0.25},
      {"peak_rss_mb", "MB", kLower, 0.10},
      {"modeled_p50_cycles", "cycles", kLower, 0.16},
      {"modeled_tail_cycles", "cycles", kLower, 0.18},
      {"modeled_items_per_s", "items/s", kHigher, 0.15},
      {"modeled_tops", "op/s", kHigher, 0.12},
      {"modeled_tops_per_w", "op/s/W", kHigher, 0.12},
      {"served_rank", "rank", kLower, 0.15},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.self_s", "s", kLower, 0.0},
      {"core.share", "frac", kLower, 0.0},
      {"core.ns_per_sample", "ns", kLower, 0.0},
      {"core.samples", "count", kLower, 0.0},
      {"core.adc_saturation_rate", "frac", kLower, 0.0},
      {"core.load_us", "us", kLower, 0.0},
      {"core.peak_fraction", "frac", kHigher, 0.0},
      {"core.reload_fraction", "frac", kLower, 0.0},
      {"runtime.self_s", "s", kLower, 0.0},
      {"runtime.share", "frac", kLower, 0.0},
      {"runtime.parallel_speedup", "x", kHigher, 0.0},
      {"runtime.matmuls", "count", kLower, 0.0},
      {"runtime.tile_passes", "count", kLower, 0.0},
      {"runtime.matmul_p50_s", "s", kLower, 0.0},
      {"runtime.matmul_p90_s", "s", kLower, 0.0},
      {"nn.tiling_self_s", "s", kLower, 0.0},
      {"nn.share", "frac", kLower, 0.0},
      {"nn.plan_builds", "count", kLower, 0.0},
      {"nn.plan_hit_ratio", "frac", kHigher, 0.0},
      {"nn.decode_self_s", "s", kLower, 0.0},
      {"nn.decode_steps", "count", kLower, 0.0},
      {"graph.self_s", "s", kLower, 0.0},
      {"graph.share", "frac", kLower, 0.0},
      {"graph.calls", "count", kLower, 0.0},
      {"serve.self_s", "s", kLower, 0.0},
      {"serve.share", "frac", kLower, 0.0},
      {"serve.batches", "count", kLower, 0.0},
      {"serve.mean_batch", "count", kHigher, 0.0},
      {"serve.warm_fraction", "frac", kHigher, 0.0},
      {"serve.queue_wait_p99_cycles", "cycles", kLower, 0.0},
      {"serve.ttft_p80_cycles", "cycles", kLower, 0.0},
      {"serve.shed", "count", kLower, 0.0},
      {"serve.j_per_item", "J", kLower, 0.0},
      {"fleet.probes", "count", kLower, 0.0},
      {"fleet.probe_overhead", "frac", kLower, 0.0},
      {"fleet.recalibrations", "count", kLower, 0.0},
      {"trace.overhead", "frac", kLower, 0.0},
  };
  return specs;
}

bool is_deterministic(const std::string& metric) {
  return metric.rfind("modeled_", 0) == 0 || metric == "served_rank";
}

double Quartiles::spread() const {
  return median != 0.0 ? (q3 - q1) / std::abs(median) : 0.0;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(method="exclusive"): cut point i of 4 sits at
  // position i * (n + 1) / 4 of the 1-based sorted sample, interpolated.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

int compare_results(const std::string& baseline_path,
                    const std::string& candidate_path) {
  TablePrinter table({"metric", "workload", "baseline median", "q1..q3",
                      "candidate median", "q1..q3", "change", "spread",
                      "bound", "verdict"});
  bool any_worse = false;
  std::size_t rows = 0;
  try {
    const json::Value base = read_json_file(baseline_path);
    const json::Value cand = read_json_file(candidate_path);
    // Modeled metrics repeat bit for bit at one seed, so two files run at
    // the same seed must agree on them exactly.
    const json::Value& base_seed = base.at("seed");
    const json::Value& cand_seed = cand.at("seed");
    const bool same_seed =
        base_seed.is_null()
            ? cand_seed.is_null()
            : cand_seed.is_number() &&
                  base_seed.as_number() == cand_seed.as_number();
    const auto& base_workloads = base.at("workloads").as_object();
    const auto& cand_workloads = cand.at("workloads").as_object();
    for (MetricSpec spec : end_to_end_metrics()) {
      const bool exact = same_seed && is_deterministic(spec.name);
      if (exact) spec.bound = 0.0;
      for (const auto& [workload, base_entry] : base_workloads) {
        if (!cand_workloads.count(workload)) continue;
        const json::Value& b_metrics = base_entry.at("metrics");
        const json::Value& c_metrics =
            cand_workloads.at(workload).at("metrics");
        if (!b_metrics.contains(spec.name) || !c_metrics.contains(spec.name))
          continue;
        const std::vector<double> bv = round_values(b_metrics.at(spec.name));
        const std::vector<double> cv = round_values(c_metrics.at(spec.name));
        if (bv.empty() || cv.empty()) continue;
        const Quartiles bq = quartiles(bv);
        const Quartiles cq = quartiles(cv);
        const std::string v = verdict(spec, bv, cv);
        any_worse = any_worse || v == "worse";
        const double change =
            bq.median != 0.0 ? (cq.median - bq.median) / std::abs(bq.median)
                             : 0.0;
        const auto percent = [](double x) {
          return TablePrinter::num(100.0 * x, 3) + " %";
        };
        table.add_row({spec.name, workload, TablePrinter::num(bq.median, 6),
                       TablePrinter::num(bq.q1, 4) + ".." +
                           TablePrinter::num(bq.q3, 4),
                       TablePrinter::num(cq.median, 6),
                       TablePrinter::num(cq.q1, 4) + ".." +
                           TablePrinter::num(cq.q3, 4),
                       percent(change),
                       percent(std::max(bq.spread(), cq.spread())),
                       exact ? "exact" : percent(spec.bound), v});
        ++rows;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "compare: " << e.what() << "\n";
    return 2;
  }
  table.print(std::cout);
  if (rows == 0) {
    std::cerr << "compare: the files share no (metric, workload) pair\n";
    return 2;
  }
  return any_worse ? 1 : 0;
}

json::Value read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

void write_json_strings(std::ostream& out,
                        const std::vector<std::string>& items) {
  out << "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out << (i == 0 ? "" : ", ") << json::quote(items[i]);
  out << "]";
}

}  // namespace ptc::benchmark
