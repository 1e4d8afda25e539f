// Golden end-to-end serve-trace regression: a pinned multi-tenant serving
// scenario whose full ServeReport — per-tenant tails, warm fraction,
// energy, batch trace shape — is compared against committed golden values.
//
// The serving stack's determinism contract makes this meaningful: identical
// (requests, policy, registry, fleet config) must reproduce the report bit
// for bit on any host, so any drift here is a behavior change, not noise.
// Scalars are compared at 1e-9 relative tolerance (immaterial last-ulp
// slack), counters exactly.
//
// Update workflow (see README "Testing"): when a deliberate serving-layer
// change moves these numbers, run this test — on failure it prints the
// complete `kGolden` initializer block with the observed values; review the
// diff, then paste the block over the one below.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace {

using namespace ptc;
using namespace ptc::serve;

struct GoldenValue {
  const char* name;
  double expected;
  bool exact;  ///< counters compare exactly; times/energies at 1e-9 rel
};

// Golden values for the scenario below, produced by this test's print-out.
constexpr GoldenValue kGolden[] = {
    {"requests", 48, true},
    {"batches", 14, true},
    {"passes", 68, true},
    {"warm_passes", 4, true},
    {"reference_matches", 6, true},
    {"recalibrations", 0, true},
    {"makespan", 5.2210802950884208e-07, false},
    {"energy", 2.9836358678260876e-08, false},
    {"busy", 1.7560000000000001e-07, false},
    {"warm_fraction", 0.058823529411764705, false},
    {"mean_batch", 3.4285714285714284, false},
    {"total_p50", 1.8963040307513216e-08, false},
    {"total_p95", 3.0549999999999992e-08, false},
    {"total_p99", 3.0800000000000011e-08, false},
    {"queue_wait_p99", 2.4999999999999999e-08, false},
    {"service_p99", 6.8000000000000013e-09, false},
    {"alpha_p50", 1.1520241744525871e-08, false},
    {"alpha_p95", 2.867554243755994e-08, false},
    {"alpha_p99", 3.0799999999999998e-08, false},
    {"beta_p50", 3.0049999999999928e-08, false},
    {"beta_p95", 3.0549999999999992e-08, false},
    {"beta_p99", 3.0800000000000011e-08, false},
};

ServeReport run_scenario() {
  // 4-core variation-aware fleet (each die a distinct seeded device, so
  // the run scores accuracy against the float reference), one resident
  // model ("small", 2 tiles) and one streaming model ("wide", 6 tiles),
  // two Poisson tenants each pinned to one model.
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.variation.seed = 7;
  runtime::Accelerator accelerator(config);
  ModelRegistry registry(accelerator);
  Rng rng(2025);
  registry.add("small", nn::Mlp(16, 8, 4, rng));
  registry.add("wide", nn::Mlp(32, 24, 10, rng));
  Server server(registry);

  const LoadGenerator generator(
      {{.name = "alpha", .model = "small", .rate = 500e6, .requests = 28},
       {.name = "beta", .model = "wide", .rate = 40e6, .requests = 20}},
      4321);
  const BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9};
  return server.run(generator.generate(registry), policy);
}

std::vector<double> actual_values(const ServeReport& report) {
  const LatencyStats alpha = report.tenant_total("alpha");
  const LatencyStats beta = report.tenant_total("beta");
  return {
      static_cast<double>(report.requests.size()),
      static_cast<double>(report.batches.size()),
      static_cast<double>(report.passes),
      static_cast<double>(report.warm_passes),
      static_cast<double>(report.reference_matches),
      static_cast<double>(report.recalibrations),
      report.makespan,
      report.energy,
      report.busy,
      report.warm_fraction(),
      report.mean_batch(),
      report.total.p50,
      report.total.p95,
      report.total.p99,
      report.queue_wait.p99,
      report.service.p99,
      alpha.p50,
      alpha.p95,
      alpha.p99,
      beta.p50,
      beta.p95,
      beta.p99,
  };
}

TEST(ServeGolden, MultiTenantTraceMatchesCommittedGoldenValues) {
  const ServeReport report = run_scenario();
  const std::vector<double> actual = actual_values(report);
  ASSERT_EQ(actual.size(), std::size(kGolden));

  bool mismatch = false;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const GoldenValue& golden = kGolden[i];
    const double scale = std::max(std::abs(golden.expected), 1e-300);
    const bool ok = golden.exact
                        ? actual[i] == golden.expected
                        : std::abs(actual[i] - golden.expected) <= 1e-9 * scale;
    if (!ok) {
      mismatch = true;
      ADD_FAILURE() << "golden mismatch: " << golden.name << "\n  expected "
                    << ::testing::PrintToString(golden.expected)
                    << "\n  actual   " << ::testing::PrintToString(actual[i])
                    << (golden.exact ? "  (exact)" : "  (rel tol 1e-9)");
    }
  }

  if (mismatch) {
    // Readable regeneration block: paste over kGolden after reviewing why
    // the trace moved.
    std::string block = "constexpr GoldenValue kGolden[] = {\n";
    for (std::size_t i = 0; i < actual.size(); ++i) {
      char line[160];
      if (kGolden[i].exact) {
        std::snprintf(line, sizeof(line), "    {\"%s\", %.0f, true},\n",
                      kGolden[i].name, actual[i]);
      } else {
        std::snprintf(line, sizeof(line), "    {\"%s\", %.17g, false},\n",
                      kGolden[i].name, actual[i]);
      }
      block += line;
    }
    block += "};";
    ADD_FAILURE() << "updated golden block (review the diff first):\n"
                  << block;
  }
}

// --- token-serving golden ---------------------------------------------------

// Golden values for the transformer scenario below, produced by this
// test's print-out (same paste-block update workflow as kGolden).
constexpr GoldenValue kTokenGolden[] = {
    {"requests", 6, true},
    {"steps", 42, true},
    {"tokens", 84, true},
    {"passes", 1218, true},
    {"warm_passes", 0, true},
    {"kv_peak_rows", 18, true},
    {"kv_evicted_rows", 80, true},
    {"preemptions", 20, true},
    {"makespan", 9.063999999999997e-07, false},
    {"energy", 5.4112305057391773e-07, false},
    {"busy", 3.2917000000000002e-06, false},
    {"kv_row_seconds", 1.15627e-05, false},
    {"warm_fraction", 0, false},
    {"tokens_per_second", 92674315.975286886, false},
    {"energy_per_token", 6.4419410782609252e-09, false},
    {"total_p99", 9.0139999999999975e-07, false},
    {"first_token_p99", 3.2140000000000001e-07, false},
};

TokenServeReport run_token_scenario() {
  // Same multi-tenant transformer scenario the attribution conservation
  // tests pin: a 4-core varied fleet, one registered transformer, six
  // near-simultaneous requests from three tenants under continuous
  // batching with a KV budget tight enough to force preemption.
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.variation.seed = 7;
  runtime::Accelerator accelerator(config);
  ModelRegistry registry(accelerator);
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

  std::vector<TokenRequest> requests;
  Rng load(72);
  const std::vector<std::string> tenants = {"acme",    "acme",   "globex",
                                            "initech", "globex", "acme"};
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    TokenRequest request;
    request.id = i;
    request.tenant = tenants[i];
    request.model = "tf";
    request.arrival = static_cast<double>(i) * 1e-9;
    const std::size_t prompt_len = 1 + load.below(4);
    for (std::size_t t = 0; t < prompt_len; ++t) {
      request.prompt.push_back(load.below(tf_config.vocab));
    }
    request.max_new = 3 + load.below(6);
    requests.push_back(std::move(request));
  }

  Server server(registry);
  TokenPolicy policy;
  policy.schedule = TokenPolicy::Schedule::kContinuous;
  policy.max_batch = 8;
  policy.kv_budget_rows = 8 * tf_config.layers;
  return server.run(requests, policy);
}

std::vector<double> actual_token_values(const TokenServeReport& report) {
  return {
      static_cast<double>(report.completed),
      static_cast<double>(report.steps),
      static_cast<double>(report.tokens),
      static_cast<double>(report.passes),
      static_cast<double>(report.warm_passes),
      static_cast<double>(report.kv_peak_rows),
      static_cast<double>(report.kv_evicted_rows),
      static_cast<double>(report.preemptions),
      report.makespan,
      report.energy,
      report.busy,
      report.kv_row_seconds,
      report.warm_fraction(),
      report.tokens_per_second(),
      report.energy_per_token(),
      report.total.p99,
      report.first_token.p99,
  };
}

TEST(ServeGolden, TransformerTokenScenarioMatchesCommittedGoldenValues) {
  const TokenServeReport report = run_token_scenario();
  const std::vector<double> actual = actual_token_values(report);
  ASSERT_EQ(actual.size(), std::size(kTokenGolden));

  bool mismatch = false;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const GoldenValue& golden = kTokenGolden[i];
    const double scale = std::max(std::abs(golden.expected), 1e-300);
    const bool ok = golden.exact
                        ? actual[i] == golden.expected
                        : std::abs(actual[i] - golden.expected) <= 1e-9 * scale;
    if (!ok) {
      mismatch = true;
      ADD_FAILURE() << "token golden mismatch: " << golden.name
                    << "\n  expected "
                    << ::testing::PrintToString(golden.expected)
                    << "\n  actual   " << ::testing::PrintToString(actual[i])
                    << (golden.exact ? "  (exact)" : "  (rel tol 1e-9)");
    }
  }

  if (mismatch) {
    std::string block = "constexpr GoldenValue kTokenGolden[] = {\n";
    for (std::size_t i = 0; i < actual.size(); ++i) {
      char line[160];
      if (kTokenGolden[i].exact) {
        std::snprintf(line, sizeof(line), "    {\"%s\", %.0f, true},\n",
                      kTokenGolden[i].name, actual[i]);
      } else {
        std::snprintf(line, sizeof(line), "    {\"%s\", %.17g, false},\n",
                      kTokenGolden[i].name, actual[i]);
      }
      block += line;
    }
    block += "};";
    ADD_FAILURE() << "updated token golden block (review the diff first):\n"
                  << block;
  }
}

TEST(ServeGolden, TokenScenarioIsReproducibleWithinOneProcess) {
  const TokenServeReport a = run_token_scenario();
  const TokenServeReport b = run_token_scenario();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.total.p99, b.total.p99);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.kv_peak_rows, b.kv_peak_rows);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

// --- report statistics are exact over the records --------------------------

/// Nearest-rank summary of `latency` over the records (of one tenant, when
/// `tenant` is set), gathered here rather than by the report.
template <typename Record, typename Latency>
LatencyStats exact(const std::vector<Record>& records, Latency latency,
                   const std::string* tenant = nullptr) {
  std::vector<double> xs;
  for (const Record& record : records) {
    if (tenant == nullptr || record.tenant == *tenant) {
      xs.push_back(latency(record));
    }
  }
  return LatencyStats::from(xs);
}

void expect_same(const LatencyStats& actual, const LatencyStats& expected,
                 const std::string& what) {
  EXPECT_EQ(actual.count, expected.count) << what;
  EXPECT_EQ(actual.mean, expected.mean) << what;
  EXPECT_EQ(actual.p50, expected.p50) << what;
  EXPECT_EQ(actual.p95, expected.p95) << what;
  EXPECT_EQ(actual.p99, expected.p99) << what;
  EXPECT_EQ(actual.max, expected.max) << what;
}

TEST(ServeGolden, ReportStatisticsAreExactOverTheRecords) {
  const ServeReport report = run_scenario();
  const auto total = [](const RequestRecord& r) { return r.total(); };
  expect_same(report.total, exact(report.requests, total), "total");
  expect_same(report.queue_wait,
              exact(report.requests,
                    [](const RequestRecord& r) { return r.queue_wait(); }),
              "queue_wait");
  expect_same(report.service,
              exact(report.requests,
                    [](const RequestRecord& r) { return r.service(); }),
              "service");
  ASSERT_EQ(report.tenant_costs.size(), 2u);
  for (const TenantCost& row : report.tenant_costs) {
    expect_same(report.tenant_total(row.tenant),
                exact(report.requests, total, &row.tenant), row.tenant);
  }
}

TEST(ServeGolden, TokenReportStatisticsAreExactOverTheRecords) {
  const TokenServeReport report = run_token_scenario();
  const auto total = [](const TokenRequestRecord& r) { return r.total(); };
  expect_same(report.total, exact(report.requests, total), "total");
  expect_same(report.first_token,
              exact(report.requests,
                    [](const TokenRequestRecord& r) {
                      return r.time_to_first_token();
                    }),
              "first_token");
  ASSERT_EQ(report.tenant_costs.size(), 3u);
  for (const TenantCost& row : report.tenant_costs) {
    expect_same(report.tenant_total(row.tenant),
                exact(report.requests, total, &row.tenant), row.tenant);
  }
}

TEST(ServeGolden, ScenarioIsReproducibleWithinOneProcess) {
  const ServeReport a = run_scenario();
  const ServeReport b = run_scenario();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.total.p99, b.total.p99);
  EXPECT_EQ(a.batches.size(), b.batches.size());
  EXPECT_EQ(a.reference_matches, b.reference_matches);
}

}  // namespace
