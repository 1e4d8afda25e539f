// Telemetry subsystem tests: histogram bucket semantics, metrics
// exposition, span-trace determinism and linting, the golden Chrome trace
// of a small multi-tenant serve run, the zero-allocation no-op tracing
// path, and the BENCH_*.json comparison gate.
//
// Golden-trace update workflow: when a deliberate serving/trace change
// moves the committed trace, this test writes the observed JSON next to
// the golden file as serve_trace.actual.json — review the diff in
// Perfetto, then copy it over tests/golden/serve_trace.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/token_server.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

// --- global allocation counter (for the zero-allocation no-op check) -------
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer) must come from
// malloc too, since every delete below frees.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ptc;
using namespace ptc::serve;

// --- shared scenario --------------------------------------------------------

/// Small multi-tenant serve run on a drifting 2-core fleet with a periodic
/// recalibration policy: exercises every span kind the telemetry layer
/// emits (request lifecycles, batch windows, per-core passes and reloads,
/// per-step spans, a recalibration window, queue-depth counters).
ServeReport traced_run(telemetry::Tracer* tracer,
                       telemetry::MetricsRegistry* metrics,
                       std::size_t threads = 0) {
  runtime::AcceleratorConfig config;
  config.cores = 2;
  config.threads = threads;
  config.variation.seed = 7;
  config.drift.sigma = 0.5;
  config.drift.tau = 1e-6;
  runtime::Accelerator accelerator(config);
  ModelRegistry registry(accelerator);
  Rng rng(5);
  registry.add("small", nn::Mlp(8, 6, 4, rng));
  registry.add("wide", nn::Mlp(16, 12, 4, rng));
  Server server(registry);
  server.set_tracer(tracer);
  server.set_metrics(metrics);

  const LoadGenerator generator(
      {{.name = "alpha", .model = "small", .rate = 400e6, .requests = 6},
       {.name = "beta", .model = "wide", .rate = 150e6, .requests = 4}},
      99);
  const BatchPolicy policy{.max_batch = 4, .max_wait = 10e-9,
                           .recalibration_period = 10e-9};
  const ServeReport report = server.run(generator.generate(registry), policy);
  server.set_tracer(nullptr);
  server.set_metrics(nullptr);
  return report;
}

std::string golden_trace_path() {
  const std::string self = __FILE__;
  return self.substr(0, self.find_last_of('/')) + "/golden/serve_trace.json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- histogram --------------------------------------------------------------

TEST(Histogram, BucketBoundariesUnderflowAndOverflow) {
  telemetry::HistogramOptions options;
  options.min = 1.0;
  options.max = 1e3;
  options.buckets_per_decade = 1;  // buckets [1,10), [10,100), [100,1000)
  telemetry::Histogram h(options);
  ASSERT_EQ(h.bucket_count(), 3u);

  h.observe(0.0);     // underflow (zeros land below min)
  h.observe(0.999);   // underflow
  h.observe(1.0);     // first bucket's lower edge is inclusive
  h.observe(9.999);   // still first bucket
  h.observe(10.0);    // second bucket (upper edges are exclusive)
  h.observe(999.99);  // third bucket
  h.observe(1e3);     // overflow (max is exclusive)
  h.observe(5e6);     // overflow

  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 8u);
  // count/sum/min/max are exact regardless of bucketing.
  EXPECT_DOUBLE_EQ(h.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 5e6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 0.999 + 1.0 + 9.999 + 10.0 + 999.99 + 1e3 +
                                5e6);
  EXPECT_DOUBLE_EQ(h.bucket_upper_edge(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper_edge(2), 1000.0);
}

TEST(Histogram, PercentileIsClampedToExactExtremes) {
  telemetry::Histogram h;
  h.observe(0.25);  // beyond max (default max = 1.0? no: 0.25 is in range)
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.25);  // single sample: clamp to max
  h.observe(0.5);
  // p100 can never exceed the exact observed maximum.
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.5);
}

TEST(Histogram, PercentilesWithinOneBucketOfExactAtScale) {
  // Satellite check: at 1M+ samples the histogram-backed percentiles stay
  // within one bucket (bucket_width_ratio) of the exact nearest-rank
  // sample while memory stays O(buckets).
  constexpr std::size_t kSamples = 1'000'000;
  telemetry::HistogramOptions options;
  options.min = 1e-9;
  options.max = 1e4;
  telemetry::Histogram h(options);
  Rng rng(11);
  std::vector<double> xs;
  xs.reserve(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    // Log-uniform over ~6 decades with a heavy tail, like a latency mix.
    const double v = 1e-6 * std::pow(10.0, 4.0 * rng.uniform());
    xs.push_back(v);
    h.observe(v);
  }
  EXPECT_EQ(h.count(), kSamples);

  std::sort(xs.begin(), xs.end());
  const double width = h.bucket_width_ratio();
  for (const double p : {50.0, 95.0, 99.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(kSamples))) - 1;
    const double exact = xs[rank];
    const double approx = h.percentile(p);
    EXPECT_LE(approx, exact * width) << "p" << p;
    EXPECT_GE(approx, exact / width) << "p" << p;
  }
}

TEST(Histogram, LatencyStatsFromHistogramTracksExact) {
  const std::vector<double> xs = {1.0, 2.0, 2.0, 3.0, 4.0};
  telemetry::HistogramOptions options;
  options.min = 1e-2;
  options.max = 1e2;
  telemetry::Histogram h(options);
  for (const double x : xs) h.observe(x);

  const LatencyStats exact = LatencyStats::from(xs);
  const LatencyStats approx = LatencyStats::from_histogram(h);
  EXPECT_EQ(approx.count, exact.count);
  EXPECT_DOUBLE_EQ(approx.mean, exact.mean);
  EXPECT_DOUBLE_EQ(approx.max, exact.max);  // max is exact
  const double width = h.bucket_width_ratio();
  EXPECT_LE(approx.p50, exact.p50 * width);
  EXPECT_GE(approx.p50, exact.p50 / width);
  EXPECT_LE(approx.p99, exact.p99 * width);
  EXPECT_GE(approx.p99, exact.p99 / width);
}

// --- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndExposition) {
  telemetry::MetricsRegistry registry;
  registry.counter("requests_total", "requests admitted").inc();
  registry.counter("requests_total").inc(2.0);
  registry.gauge("queue_depth").set(3.0);
  registry.gauge("queue_depth").set(1.0);
  registry.histogram("latency_seconds", "request latency").observe(0.25);

  EXPECT_TRUE(registry.contains("requests_total"));
  EXPECT_FALSE(registry.contains("missing"));
  EXPECT_DOUBLE_EQ(registry.counter("requests_total").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("queue_depth").value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("queue_depth").max(), 3.0);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# HELP requests_total requests admitted"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 1"), std::string::npos);

  // The JSON export parses and carries the same values.
  const json::Value doc = json::parse(registry.to_json());
  EXPECT_DOUBLE_EQ(
      doc.at("counters").at("requests_total").at("value").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(
      doc.at("histograms").at("latency_seconds").at("count").as_number(), 1.0);
}

TEST(MetricsRegistry, LabeledFamiliesCanonicalizeAndAccumulate) {
  telemetry::MetricsRegistry registry;
  // Key order in the call site must not matter: both spellings address the
  // same child.
  registry
      .counter("cost_total", {{"tenant", "mobile"}, {"model", "vision"}},
               "attributed cost")
      .inc(2.0);
  registry.counter("cost_total", {{"model", "vision"}, {"tenant", "mobile"}})
      .inc(3.0);
  registry.counter("cost_total", {{"tenant", "edge"}, {"model", "kw"}}).inc();

  EXPECT_TRUE(registry.contains(
      "cost_total", {{"model", "vision"}, {"tenant", "mobile"}}));
  EXPECT_FALSE(registry.contains("cost_total", {{"tenant", "nobody"}}));
  EXPECT_DOUBLE_EQ(
      registry.counter("cost_total", {{"tenant", "mobile"}, {"model", "vision"}})
          .value(),
      5.0);
  EXPECT_EQ(registry.label_sets("cost_total").size(), 2u);

  registry.gauge("burn", {{"slo", "p99"}, {"window", "short"}}).set(4.5);
  EXPECT_DOUBLE_EQ(
      registry.gauge("burn", {{"window", "short"}, {"slo", "p99"}}).value(),
      4.5);
}

TEST(MetricsRegistry, RenderLabelsFormatsSelectorsAndEscapes) {
  // render_labels takes a canonical (already sorted) set and renders it
  // verbatim; the registry sorts before calling it.
  EXPECT_EQ(telemetry::render_labels({{"a", "1"}, {"b", "2"}}),
            "{a=\"1\",b=\"2\"}");
  // Backslash, quote, and newline escape per the Prometheus text format.
  EXPECT_EQ(telemetry::render_labels({{"k", "a\\b\"c\nd"}}),
            "{k=\"a\\\\b\\\"c\\nd\"}");
}

TEST(MetricsRegistry, LabeledExpositionRoundTripsThroughTextAndJson) {
  telemetry::MetricsRegistry registry;
  registry
      .counter("tenant_energy_joules_total",
               {{"tenant", "mobile"}, {"model", "vision"}}, "energy by tenant")
      .inc(0.25);
  registry
      .counter("tenant_energy_joules_total",
               {{"tenant", "edge"}, {"model", "kw"}})
      .inc(0.75);
  registry.gauge("slo_burn_rate", {{"slo", "p99"}, {"window", "long"}})
      .set(1.5);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE tenant_energy_joules_total counter"),
            std::string::npos);
  // One line per child, labels in canonical (sorted-key) order.
  EXPECT_NE(text.find("tenant_energy_joules_total{model=\"vision\","
                      "tenant=\"mobile\"} 0.25"),
            std::string::npos);
  EXPECT_NE(text.find(
                "tenant_energy_joules_total{model=\"kw\",tenant=\"edge\"} "
                "0.75"),
            std::string::npos);
  EXPECT_NE(text.find("slo_burn_rate{slo=\"p99\",window=\"long\"} 1.5"),
            std::string::npos);

  // JSON: a "series" array of {labels, value} objects that parses back to
  // the exact child values.
  const json::Value doc = json::parse(registry.to_json());
  const json::Value& series =
      doc.at("counters").at("tenant_energy_joules_total").at("series");
  ASSERT_EQ(series.as_array().size(), 2u);
  double mobile = 0.0, edge = 0.0;
  for (const json::Value& child : series.as_array()) {
    const std::string tenant = child.at("labels").at("tenant").as_string();
    if (tenant == "mobile") mobile = child.at("value").as_number();
    if (tenant == "edge") edge = child.at("value").as_number();
  }
  EXPECT_DOUBLE_EQ(mobile, 0.25);
  EXPECT_DOUBLE_EQ(edge, 0.75);
  const json::Value& burn =
      doc.at("gauges").at("slo_burn_rate").at("series").as_array()[0];
  EXPECT_EQ(burn.at("labels").at("window").as_string(), "long");
  EXPECT_DOUBLE_EQ(burn.at("value").as_number(), 1.5);
}

TEST(MetricsRegistry, LabeledHistogramFamiliesRoundTripThroughTextAndJson) {
  telemetry::MetricsRegistry registry;
  telemetry::HistogramOptions options;
  options.min = 1e-9;
  options.max = 1e-6;
  options.buckets_per_decade = 1;
  registry
      .histogram("trigger_lag_seconds", {{"core", "0"}},
                 "threshold-crossing -> re-lock lag [s]", options)
      .observe(5e-9);
  registry.histogram("trigger_lag_seconds", {{"core", "0"}}, "", options)
      .observe(2e-8);
  registry.histogram("trigger_lag_seconds", {{"core", "1"}}, "", options)
      .observe(1e-8);

  EXPECT_TRUE(registry.contains("trigger_lag_seconds", {{"core", "0"}}));
  EXPECT_FALSE(registry.contains("trigger_lag_seconds", {{"core", "7"}}));
  EXPECT_EQ(registry.label_sets("trigger_lag_seconds").size(), 2u);

  // Prometheus text: per-child bucket series with the child labels merged
  // into the `le` selector, and labeled _sum/_count samples.
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE trigger_lag_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("trigger_lag_seconds_bucket{core=\"0\",le=\"1e-08\"} 1"),
            std::string::npos);
  // The decade edge comes out of std::pow, so 1e-7 prints with its ulp.
  EXPECT_NE(text.find("trigger_lag_seconds_bucket{core=\"0\","
                      "le=\"1.0000000000000001e-07\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("trigger_lag_seconds_bucket{core=\"0\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("trigger_lag_seconds_sum{core=\"0\"} 2.5e-08"),
            std::string::npos);
  EXPECT_NE(text.find("trigger_lag_seconds_count{core=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("trigger_lag_seconds_count{core=\"1\"} 1"),
            std::string::npos);

  // JSON: a "series" array of {labels, summary} objects per child.
  const json::Value doc = json::parse(registry.to_json());
  const json::Value& series =
      doc.at("histograms").at("trigger_lag_seconds").at("series");
  ASSERT_EQ(series.as_array().size(), 2u);
  for (const json::Value& child : series.as_array()) {
    const std::string core = child.at("labels").at("core").as_string();
    if (core == "0") {
      EXPECT_DOUBLE_EQ(child.at("count").as_number(), 2.0);
      EXPECT_DOUBLE_EQ(child.at("sum").as_number(), 2.5e-8);
      EXPECT_DOUBLE_EQ(child.at("min").as_number(), 5e-9);
      EXPECT_DOUBLE_EQ(child.at("max").as_number(), 2e-8);
    } else {
      EXPECT_EQ(core, "1");
      EXPECT_DOUBLE_EQ(child.at("count").as_number(), 1.0);
    }
  }

  // Kind collisions still reject across the labeled/plain split.
  EXPECT_THROW(registry.counter("trigger_lag_seconds"), std::invalid_argument);
}

// --- JSON parser ------------------------------------------------------------

TEST(Json, ParsesDocumentsAndRejectsGarbage) {
  const json::Value v = json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\n\"y\"", "t": true, "n": null})");
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_EQ(v.at("s").as_string(), "x\n\"y\"");
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_FALSE(v.contains("missing"));

  EXPECT_THROW(json::parse("{"), std::invalid_argument);
  EXPECT_THROW(json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(v.at("s").as_number(), std::invalid_argument);
  // Deep nesting is refused before it can exhaust the stack.
  EXPECT_THROW(json::parse(std::string(50000, '[')), std::invalid_argument);
}

TEST(Json, NumberFormattingRoundTrips) {
  EXPECT_EQ(json::format_number(0.25), "0.25");
  EXPECT_EQ(json::format_number(3.0), "3");
  EXPECT_EQ(json::format_number(-17.0), "-17");
  for (const double x : {1.0 / 3.0, 6.02e23, 1.602e-19, 5.2210802950884208e-7,
                         123456789.123}) {
    const std::string text = json::format_number(x);
    EXPECT_DOUBLE_EQ(std::strtod(text.c_str(), nullptr), x) << text;
  }
  EXPECT_EQ(json::quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

// --- span tracing -----------------------------------------------------------

TEST(Trace, SpanCountsMatchServeReport) {
  telemetry::Tracer tracer;
  const ServeReport report = traced_run(&tracer, nullptr);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(tracer.count(telemetry::TraceEvent::Phase::kAsyncBegin, "request"),
            report.completed);
  EXPECT_EQ(tracer.count(telemetry::TraceEvent::Phase::kAsyncEnd, "request"),
            report.completed);
  EXPECT_EQ(tracer.count(telemetry::TraceEvent::Phase::kComplete, "batch"),
            report.dispatched_batches);
  // The drifting fleet under the periodic policy recalibrates: the serve
  // track carries one window span per recalibration.
  EXPECT_GT(report.recalibrations, 0u);
  EXPECT_EQ(tracer.count(telemetry::TraceEvent::Phase::kComplete, "serve"),
            report.recalibrations);
  // Hardware + step spans exist and sit inside batch windows by
  // construction (the linter re-checks nesting from the serialized JSON).
  EXPECT_GT(tracer.count(telemetry::TraceEvent::Phase::kComplete, "fleet"),
            0u);
  EXPECT_GT(tracer.count(telemetry::TraceEvent::Phase::kComplete, "step"), 0u);
}

TEST(Trace, EmittedTraceIsLintClean) {
  telemetry::Tracer tracer;
  traced_run(&tracer, nullptr);
  const std::vector<std::string> problems =
      telemetry::lint_chrome_trace(tracer.chrome_json());
  EXPECT_TRUE(problems.empty())
      << "first problem: " << (problems.empty() ? "" : problems.front());
}

TEST(Trace, LintCatchesBadNestingAndUnpairedAsync) {
  // Two overlapping (non-nested) complete spans on one track.
  const std::string overlapping = R"({"traceEvents": [
    {"ph": "X", "name": "a", "cat": "t", "pid": 1, "tid": 1, "ts": 0, "dur": 10},
    {"ph": "X", "name": "b", "cat": "t", "pid": 1, "tid": 1, "ts": 5, "dur": 10}
  ]})";
  EXPECT_FALSE(telemetry::lint_chrome_trace(overlapping).empty());

  const std::string unpaired = R"({"traceEvents": [
    {"ph": "b", "name": "r", "cat": "req", "pid": 1, "id": "7", "ts": 0}
  ]})";
  EXPECT_FALSE(telemetry::lint_chrome_trace(unpaired).empty());

  EXPECT_FALSE(telemetry::lint_chrome_trace("not json").empty());
  EXPECT_FALSE(telemetry::lint_chrome_trace("{}").empty());
}

TEST(Trace, LintCatchesCounterTimeRegression) {
  // A counter sample behind its predecessor on the same (pid, tid, name)
  // is a stale-clock bug the linter must flag.
  const std::string regressing = R"({"traceEvents": [
    {"ph": "C", "name": "queue_depth", "pid": 1, "tid": 3, "ts": 10, "args": {"value": 1}},
    {"ph": "C", "name": "queue_depth", "pid": 1, "tid": 3, "ts": 5, "args": {"value": 2}}
  ]})";
  const std::vector<std::string> problems =
      telemetry::lint_chrome_trace(regressing);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("goes back in time"), std::string::npos);

  // Equal timestamps are fine, and the same counter name on another track
  // is an independent series.
  const std::string clean = R"({"traceEvents": [
    {"ph": "C", "name": "queue_depth", "pid": 1, "tid": 3, "ts": 10, "args": {"value": 1}},
    {"ph": "C", "name": "queue_depth", "pid": 1, "tid": 3, "ts": 10, "args": {"value": 2}},
    {"ph": "C", "name": "queue_depth", "pid": 1, "tid": 4, "ts": 0, "args": {"value": 0}}
  ]})";
  EXPECT_TRUE(telemetry::lint_chrome_trace(clean).empty());
}

TEST(Trace, LintEnforcesHealthAlertArgSchema) {
  // health_alert instants must carry a string "slo" and a numeric "core".
  const std::string missing_args = R"({"traceEvents": [
    {"ph": "i", "name": "health_alert", "cat": "slo", "pid": 1, "tid": 1, "ts": 3}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(missing_args).size(), 2u);

  const std::string wrong_types = R"({"traceEvents": [
    {"ph": "i", "name": "health_alert", "cat": "slo", "pid": 1, "tid": 1,
     "ts": 3, "args": {"slo": 7, "core": "zero"}}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(wrong_types).size(), 2u);

  const std::string conforming = R"({"traceEvents": [
    {"ph": "i", "name": "health_alert", "cat": "slo", "pid": 1, "tid": 1,
     "ts": 3, "args": {"slo": "core0-probe-anomaly", "core": 0, "value": 1.5}}
  ]})";
  EXPECT_TRUE(telemetry::lint_chrome_trace(conforming).empty());

  // Other instants are exempt from the schema.
  const std::string other = R"({"traceEvents": [
    {"ph": "i", "name": "slo_alert", "cat": "slo", "pid": 1, "tid": 1, "ts": 3}
  ]})";
  EXPECT_TRUE(telemetry::lint_chrome_trace(other).empty());
}

TEST(Trace, LintEnforcesFaultInstantArgSchemas) {
  // fault_injected / fault_cleared need a string "kind" and numeric "core".
  const std::string missing_args = R"({"traceEvents": [
    {"ph": "i", "name": "fault_injected", "cat": "fault", "pid": 1, "tid": 1,
     "ts": 3}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(missing_args).size(), 2u);

  const std::string wrong_types = R"({"traceEvents": [
    {"ph": "i", "name": "fault_cleared", "cat": "fault", "pid": 1, "tid": 1,
     "ts": 3, "args": {"kind": 2, "core": "one"}}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(wrong_types).size(), 2u);

  // core_evicted / core_readmitted need a numeric "core".
  const std::string evict_missing = R"({"traceEvents": [
    {"ph": "i", "name": "core_evicted", "cat": "fault", "pid": 1, "tid": 1,
     "ts": 3}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(evict_missing).size(), 1u);

  const std::string readmit_wrong = R"({"traceEvents": [
    {"ph": "i", "name": "core_readmitted", "cat": "fault", "pid": 1,
     "tid": 1, "ts": 3, "args": {"core": "two"}}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(readmit_wrong).size(), 1u);

  const std::string conforming = R"({"traceEvents": [
    {"ph": "i", "name": "fault_injected", "cat": "fault", "pid": 1, "tid": 1,
     "ts": 1, "args": {"kind": "DEADRINGS", "core": 2}},
    {"ph": "i", "name": "core_evicted", "cat": "fault", "pid": 1, "tid": 1,
     "ts": 2, "args": {"core": 2}},
    {"ph": "i", "name": "fault_cleared", "cat": "fault", "pid": 1, "tid": 1,
     "ts": 3, "args": {"kind": "CLEAR", "core": 2}},
    {"ph": "i", "name": "core_readmitted", "cat": "fault", "pid": 1,
     "tid": 1, "ts": 4, "args": {"core": 2}}
  ]})";
  EXPECT_TRUE(telemetry::lint_chrome_trace(conforming).empty());
}

TEST(Trace, LintEnforcesTokenServingInstantArgSchemas) {
  // token_step instants need numeric "batch" and "passes".
  const std::string step_missing = R"({"traceEvents": [
    {"ph": "i", "name": "token_step", "cat": "serve", "pid": 1, "tid": 1,
     "ts": 3}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(step_missing).size(), 2u);

  const std::string step_wrong = R"({"traceEvents": [
    {"ph": "i", "name": "token_step", "cat": "serve", "pid": 1, "tid": 1,
     "ts": 3, "args": {"batch": "four", "passes": "many"}}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(step_wrong).size(), 2u);

  // kv_evicted needs a string "tenant" and numeric "rows".
  const std::string evict_missing = R"({"traceEvents": [
    {"ph": "i", "name": "kv_evicted", "cat": "serve", "pid": 1, "tid": 1,
     "ts": 3, "args": {"rows": 4}}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(evict_missing).size(), 1u);

  const std::string evict_wrong = R"({"traceEvents": [
    {"ph": "i", "name": "kv_evicted", "cat": "serve", "pid": 1, "tid": 1,
     "ts": 3, "args": {"tenant": 7, "rows": "four"}}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(evict_wrong).size(), 2u);

  // request_preempted needs a string "tenant" and numeric "request".
  const std::string preempt_missing = R"({"traceEvents": [
    {"ph": "i", "name": "request_preempted", "cat": "serve", "pid": 1,
     "tid": 1, "ts": 3}
  ]})";
  EXPECT_EQ(telemetry::lint_chrome_trace(preempt_missing).size(), 2u);

  const std::string conforming = R"({"traceEvents": [
    {"ph": "i", "name": "token_step", "cat": "serve", "pid": 1, "tid": 1,
     "ts": 1, "args": {"batch": 4, "passes": 30, "warm_passes": 26}},
    {"ph": "i", "name": "request_preempted", "cat": "serve", "pid": 1,
     "tid": 1, "ts": 2, "args": {"tenant": "acme", "request": 3}},
    {"ph": "i", "name": "kv_evicted", "cat": "serve", "pid": 1, "tid": 1,
     "ts": 2, "args": {"tenant": "acme", "rows": 6}}
  ]})";
  EXPECT_TRUE(telemetry::lint_chrome_trace(conforming).empty());
}

TEST(Trace, TokenServerRunEmitsLintCleanTokenInstants) {
  // An end-to-end token-serving run under a tight KV budget emits
  // token_step / request_preempted / kv_evicted instants that pass the
  // linter's arg schemas.
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.variation.seed = 7;
  runtime::Accelerator accelerator(config);
  serve::ModelRegistry registry(accelerator);
  nn::TransformerConfig tf_config;
  tf_config.vocab = 16;
  tf_config.d_model = 8;
  tf_config.heads = 2;
  tf_config.layers = 2;
  tf_config.d_ff = 12;
  tf_config.max_seq = 24;
  Rng rng(71);
  registry.add_transformer("tf",
                           nn::TransformerModel::random(tf_config, rng));

  std::vector<serve::TokenRequest> requests;
  Rng load(72);
  for (std::size_t i = 0; i < 6; ++i) {
    serve::TokenRequest request;
    request.id = i;
    request.tenant = i % 2 == 0 ? "acme" : "globex";
    request.model = "tf";
    request.arrival = static_cast<double>(i) * 1e-9;
    const std::size_t prompt_len = 1 + load.below(4);
    for (std::size_t t = 0; t < prompt_len; ++t) {
      request.prompt.push_back(load.below(tf_config.vocab));
    }
    request.max_new = 3 + load.below(6);
    requests.push_back(std::move(request));
  }

  serve::TokenServer server(registry);
  telemetry::Tracer tracer;
  server.set_tracer(&tracer);
  serve::TokenPolicy policy;
  policy.schedule = serve::TokenPolicy::Schedule::kContinuous;
  policy.kv_budget_rows = 8 * tf_config.layers;
  const serve::TokenServeReport report = server.run(requests, policy);
  ASSERT_GT(report.preemptions, 0u);

  std::size_t token_steps = 0;
  std::size_t preempts = 0;
  std::size_t evictions = 0;
  for (const telemetry::TraceEvent& event : tracer.events()) {
    if (event.name == "token_step") ++token_steps;
    if (event.name == "request_preempted") ++preempts;
    if (event.name == "kv_evicted") ++evictions;
  }
  EXPECT_EQ(token_steps, report.steps);
  EXPECT_EQ(preempts, report.preemptions);
  EXPECT_EQ(evictions, report.preemptions);  // one eviction per preemption
  const std::vector<std::string> problems =
      telemetry::lint_chrome_trace(tracer.chrome_json());
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(Trace, ServerFaultRunEmitsLintCleanFaultInstants) {
  // An end-to-end fault run's trace carries the fault_injected /
  // core_evicted / fault_cleared / core_readmitted instants and passes the
  // linter's arg schemas.
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.variation.seed = 42;
  runtime::Accelerator accelerator(config);
  serve::ModelRegistry registry(accelerator);
  Rng rng(7);
  registry.add("m", nn::Mlp(32, 16, 10, rng));
  serve::Server server(registry);
  server.set_fault_schedule(
      {{.time = 5e-9, .core = 1,
        .kind = runtime::FaultEvent::Kind::kDeadRings, .count = 64,
        .seed = 3},
       {.time = 200e-9, .core = 1,
        .kind = runtime::FaultEvent::Kind::kClear}});
  telemetry::Tracer tracer;
  server.set_tracer(&tracer);
  const serve::LoadGenerator generator(
      {{.name = "t", .model = "m", .rate = 100e6, .requests = 48}}, 1234);
  server.run(generator.generate(registry),
             {.max_batch = 8, .max_wait = 20e-9, .evict_on_fault = true,
              .recalibrate_on_fault = true});

  std::size_t fault_instants = 0;
  for (const telemetry::TraceEvent& event : tracer.events()) {
    if (event.name == "fault_injected" || event.name == "fault_cleared" ||
        event.name == "core_evicted" || event.name == "core_readmitted") {
      ++fault_instants;
    }
  }
  EXPECT_EQ(fault_instants, 4u);
  const std::vector<std::string> problems =
      telemetry::lint_chrome_trace(tracer.chrome_json());
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(Trace, BitIdenticalAcrossHostThreadCounts) {
  // The determinism contract: the trace and the metrics exposition are
  // pure functions of the modeled schedule, independent of host threading.
  std::vector<std::string> traces, metrics_texts;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    telemetry::Tracer tracer;
    telemetry::MetricsRegistry metrics;
    traced_run(&tracer, &metrics, threads);
    traces.push_back(tracer.chrome_json());
    metrics_texts.push_back(metrics.prometheus_text());
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
  EXPECT_EQ(metrics_texts[0], metrics_texts[1]);
  EXPECT_EQ(metrics_texts[0], metrics_texts[2]);
}

TEST(Trace, MatchesCommittedGoldenChromeTrace) {
  telemetry::Tracer tracer;
  traced_run(&tracer, nullptr);
  const std::string actual = tracer.chrome_json();
  const std::string golden = read_file(golden_trace_path());
  if (actual != golden) {
    const std::string actual_path =
        golden_trace_path() + ".actual";  // next to the golden, for diffing
    std::ofstream(actual_path) << actual;
    FAIL() << "trace diverged from tests/golden/serve_trace.json; wrote "
           << actual_path
           << " — review the diff (ui.perfetto.dev renders both), then copy "
              "it over the golden file if the change is intended";
  }
}

TEST(Trace, UnattachedEmissionSitesDoNotAllocate) {
  // The no-op path every instrumented layer compiles down to: a nullptr
  // guard around the emission call.  Argument lists are initializer_lists
  // of non-owning PODs, so nothing is evaluated or heap-allocated when no
  // sink is attached.
  telemetry::Tracer* tracer = nullptr;
  const std::string name = "pass";  // allocate *before* the measured region
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 1000; ++i) {
    if (tracer != nullptr) {
      tracer->complete(telemetry::track::kCoreBase, name.c_str(), "fleet",
                       1.0 * static_cast<double>(i), 2.0,
                       {{"pass", i}, {"cold", true}});
    }
    if (tracer != nullptr) {
      tracer->async_begin("request", "request", i, 0.0, {{"tenant", "a"}});
    }
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(Trace, ChromeJsonCarriesMetadataAndMicroseconds) {
  telemetry::Tracer tracer;
  tracer.set_track_name(telemetry::track::kServe, "serving");
  tracer.complete(telemetry::track::kServe, "batch", "batch", 1e-6, 3e-6,
                  {{"size", std::size_t{4}}});
  const json::Value doc = json::parse(tracer.chrome_json());
  const auto& events = doc.at("traceEvents").as_array();
  bool found_meta = false, found_span = false;
  for (const json::Value& e : events) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name") {
      found_meta = true;
    }
    if (e.at("ph").as_string() == "X") {
      found_span = true;
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 1.0);   // 1 us
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 2.0);  // 2 us
      EXPECT_DOUBLE_EQ(e.at("args").at("size").as_number(), 4.0);
    }
  }
  EXPECT_TRUE(found_meta);
  EXPECT_TRUE(found_span);
}

// --- serve integration ------------------------------------------------------

TEST(Serve, KeepRecordsFalseDropsTracesButKeepsSummaries) {
  telemetry::Tracer tracer;
  const ServeReport full = traced_run(&tracer, nullptr);

  // Re-run the identical scenario without record retention.
  runtime::AcceleratorConfig config;
  config.cores = 2;
  config.variation.seed = 7;
  config.drift.sigma = 0.5;
  config.drift.tau = 1e-6;
  runtime::Accelerator accelerator(config);
  ModelRegistry registry(accelerator);
  Rng rng(5);
  registry.add("small", nn::Mlp(8, 6, 4, rng));
  registry.add("wide", nn::Mlp(16, 12, 4, rng));
  Server server(registry);
  const LoadGenerator generator(
      {{.name = "alpha", .model = "small", .rate = 400e6, .requests = 6},
       {.name = "beta", .model = "wide", .rate = 150e6, .requests = 4}},
      99);
  const BatchPolicy policy{.max_batch = 4, .max_wait = 10e-9,
                           .recalibration_period = 10e-9};
  const ServeReport lean = server.run(generator.generate(registry), policy,
                                      {.keep_records = false});

  EXPECT_TRUE(lean.requests.empty());
  EXPECT_TRUE(lean.batches.empty());
  EXPECT_EQ(lean.completed, full.completed);
  EXPECT_EQ(lean.dispatched_batches, full.dispatched_batches);
  EXPECT_DOUBLE_EQ(lean.makespan, full.makespan);
  EXPECT_DOUBLE_EQ(lean.total.p99, full.total.p99);
  EXPECT_DOUBLE_EQ(lean.total.mean, full.total.mean);
  EXPECT_EQ(lean.total.count, full.total.count);
  EXPECT_DOUBLE_EQ(lean.throughput(), full.throughput());
  EXPECT_DOUBLE_EQ(lean.mean_batch(), full.mean_batch());
  EXPECT_EQ(lean.reference_matches, full.reference_matches);
}

TEST(Serve, MetricsRegistryCarriesFleetAndServeTallies) {
  telemetry::MetricsRegistry metrics;
  const ServeReport report = traced_run(nullptr, &metrics);
  EXPECT_DOUBLE_EQ(metrics.counter("serve_requests_total").value(),
                   static_cast<double>(report.completed));
  EXPECT_DOUBLE_EQ(metrics.counter("serve_batches_total").value(),
                   static_cast<double>(report.dispatched_batches));
  EXPECT_DOUBLE_EQ(metrics.counter("serve_recalibrations_total").value(),
                   static_cast<double>(report.recalibrations));
  EXPECT_DOUBLE_EQ(metrics.counter("serve_warm_batches_total").value() +
                       metrics.counter("serve_cold_batches_total").value(),
                   static_cast<double>(report.dispatched_batches));
  EXPECT_DOUBLE_EQ(metrics.counter("fleet_tile_passes_total").value(),
                   static_cast<double>(report.passes));
  EXPECT_GT(metrics.counter("fleet_matmuls_total").value(), 0.0);
  EXPECT_GT(metrics.counter("fleet_plan_cache_hits_total").value(), 0.0);
  EXPECT_EQ(metrics.histogram("serve_total_seconds").count(),
            report.completed);
}

// --- bench report / comparison gate ----------------------------------------

telemetry::BenchReport sample_report(double speedup, double p99) {
  telemetry::BenchReport report("sample");
  report.set_meta("cores", 8.0);
  report.add_metric("speedup", speedup, "x",
                    telemetry::Direction::kHigherIsBetter, 0.4);
  report.add_metric("p99", p99, "s", telemetry::Direction::kLowerIsBetter,
                    0.05);
  report.add_info("wall_clock", 1.25, "s");
  return report;
}

TEST(BenchReport, RoundTripsThroughJson) {
  const telemetry::BenchReport report = sample_report(10.0, 2e-8);
  const json::Value doc = json::parse(report.to_json());
  EXPECT_DOUBLE_EQ(doc.at("schema_version").as_number(),
                   telemetry::BenchReport::kSchemaVersion);
  EXPECT_EQ(doc.at("bench").as_string(), "sample");
  EXPECT_DOUBLE_EQ(doc.at("meta").at("cores").as_number(), 8.0);
  const auto& metrics = doc.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].at("name").as_string(), "speedup");
  EXPECT_EQ(metrics[0].at("direction").as_string(), "higher");
  EXPECT_DOUBLE_EQ(metrics[0].at("tolerance").as_number(), 0.4);
  EXPECT_EQ(metrics[2].at("direction").as_string(), "none");
}

TEST(BenchCompare, PassesWithinToleranceAndFailsOnRegression) {
  const json::Value baseline = json::parse(sample_report(10.0, 2e-8).to_json());

  // Identical run: pass.
  EXPECT_TRUE(telemetry::compare_bench_reports(baseline, baseline).pass);
  // Small wobble inside tolerance: pass.
  EXPECT_TRUE(telemetry::compare_bench_reports(
                  baseline, json::parse(sample_report(8.0, 2.04e-8).to_json()))
                  .pass);
  // Injected 2x slowdown of the gated speedup: fail.
  const telemetry::BenchComparison slow = telemetry::compare_bench_reports(
      baseline, json::parse(sample_report(5.0, 2e-8).to_json()));
  EXPECT_FALSE(slow.pass);
  bool flagged = false;
  for (const telemetry::MetricComparison& m : slow.metrics) {
    if (m.name == "speedup") flagged = m.regressed;
  }
  EXPECT_TRUE(flagged);
  // 2x p99 regression (lower-is-better): fail.
  EXPECT_FALSE(telemetry::compare_bench_reports(
                   baseline, json::parse(sample_report(10.0, 4e-8).to_json()))
                   .pass);
  // Improvements never gate.
  EXPECT_TRUE(telemetry::compare_bench_reports(
                  baseline, json::parse(sample_report(20.0, 1e-8).to_json()))
                  .pass);
}

TEST(BenchCompare, GatedMetricMissingFromCurrentFails) {
  const json::Value baseline = json::parse(sample_report(10.0, 2e-8).to_json());
  telemetry::BenchReport partial("sample");
  partial.add_metric("speedup", 10.0, "x",
                     telemetry::Direction::kHigherIsBetter, 0.4);
  const telemetry::BenchComparison comparison =
      telemetry::compare_bench_reports(baseline,
                                       json::parse(partial.to_json()));
  EXPECT_FALSE(comparison.pass);  // gated "p99" vanished
}

TEST(BenchCompare, MismatchedBenchNameOrSchemaFails) {
  const json::Value baseline = json::parse(sample_report(10.0, 2e-8).to_json());
  const json::Value other =
      json::parse(telemetry::BenchReport("different").to_json());
  EXPECT_FALSE(telemetry::compare_bench_reports(baseline, other).pass);
}

TEST(BenchCompare, CommittedBaselinesAreSelfConsistent) {
  // The committed BENCH_*.json baselines must parse under the current
  // schema and pass when compared against themselves — guards against
  // committing a hand-edited or stale-schema baseline.
  const std::string self = __FILE__;
  const std::string repo = self.substr(0, self.find_last_of('/')) + "/..";
  for (const char* name :
       {"BENCH_perf.json", "BENCH_drift.json", "BENCH_serving.json"}) {
    const std::string path = repo + "/" + name;
    const telemetry::BenchComparison comparison =
        telemetry::compare_bench_files(path, path);
    EXPECT_TRUE(comparison.pass) << name;
    EXPECT_TRUE(comparison.problems.empty()) << name;
  }
}

}  // namespace
