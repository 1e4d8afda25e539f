// Cost attribution and SLO monitoring through the serving loop.
//
// The conservation contract under test: ServeReport's fleet totals are
// *derived* from the per-tenant attribution rows (summed in sorted-tenant
// order), so per-tenant costs sum to the fleet totals bit-exactly — not
// within a tolerance — on any host thread count.  A cost path that forgets
// to attribute (or double-bills) breaks these sums exactly, which is the
// point: the billing ledger and the fleet report cannot drift apart.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "serve/attribution.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/slo.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace ptc;
using namespace ptc::serve;

/// Multi-tenant golden scenario on a varied, drifting fleet with periodic
/// recalibration: mixed-model batches, warm and cold passes, and a fleet
/// overhead row all show up in the attribution.
ServeReport golden_run(std::size_t threads,
                       telemetry::MetricsRegistry* metrics = nullptr,
                       std::vector<SloObjective> slos = {}) {
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.threads = threads;
  config.variation.seed = 7;
  config.drift.sigma = 0.5;
  config.drift.tau = 1e-6;
  runtime::Accelerator accelerator(config);
  ModelRegistry registry(accelerator);
  Rng rng(2025);
  registry.add("vision", nn::Mlp(32, 24, 10, rng));
  registry.add("keyword", nn::Mlp(16, 12, 4, rng));
  Server server(registry);
  server.set_metrics(metrics);
  for (const SloObjective& slo : slos) server.add_slo(slo);

  const LoadGenerator generator(
      {{.name = "mobile", .model = "vision", .rate = 120e6, .requests = 24},
       {.name = "embedded", .model = "keyword", .rate = 500e6, .requests = 36}},
      7);
  const BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9,
                           .recalibration_period = 60e-9};
  return server.run(generator.generate(registry), policy);
}

/// Asserts the conservation contract on `report`, bitwise.
void expect_conserved(const ServeReport& report) {
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t passes = 0;
  std::size_t warm = 0;
  std::size_t recals = 0;
  double service = 0.0;
  double busy = 0.0;
  double energy = 0.0;
  double recal_time = 0.0;
  // Same order the server derived the totals in (tenant_costs is sorted),
  // so these sums must be bit-identical, not merely close.
  for (const TenantCost& cost : report.tenant_costs) {
    requests += cost.requests;
    batches += cost.batches;
    passes += cost.passes;
    warm += cost.warm_passes;
    recals += cost.recalibrations;
    service += cost.service_seconds;
    busy += cost.busy_seconds;
    energy += cost.energy_joules;
    recal_time += cost.recalibration_seconds;
  }
  EXPECT_EQ(requests, report.completed);
  EXPECT_GE(batches, report.dispatched_batches);  // shared batches count per tenant
  EXPECT_EQ(passes, report.passes);
  EXPECT_EQ(warm, report.warm_passes);
  EXPECT_EQ(recals, report.recalibrations);
  EXPECT_EQ(service, report.service_time);  // bit-exact, no tolerance
  EXPECT_EQ(busy, report.busy);
  EXPECT_EQ(energy, report.energy);
  EXPECT_EQ(recal_time, report.recalibration_time);
}

TEST(Attribution, ConservesFleetTotalsBitExactly) {
  const ServeReport report = golden_run(0);
  ASSERT_FALSE(report.tenant_costs.empty());
  expect_conserved(report);

  // Both tenants billed, plus the fleet row for recalibration downtime.
  ASSERT_NE(tenant_cost(report.tenant_costs, "mobile"), nullptr);
  ASSERT_NE(tenant_cost(report.tenant_costs, "embedded"), nullptr);
  ASSERT_NE(tenant_cost(report.tenant_costs, TenantCost::kFleetTenant),
            nullptr);
  EXPECT_EQ(tenant_cost(report.tenant_costs, "unknown"), nullptr);

  const TenantCost& fleet =
      *tenant_cost(report.tenant_costs, TenantCost::kFleetTenant);
  EXPECT_EQ(fleet.requests, 0u);
  EXPECT_GE(fleet.recalibrations, 1u);
  EXPECT_EQ(fleet.recalibrations, report.recalibrations);
  EXPECT_EQ(fleet.recalibration_seconds, report.recalibration_time);
  EXPECT_GT(report.recalibration_time, 0.0);

  // Attributed quantities are real costs, not zeros.
  const TenantCost& mobile = *tenant_cost(report.tenant_costs, "mobile");
  EXPECT_EQ(mobile.requests, 24u);
  EXPECT_GT(mobile.passes, 0u);
  EXPECT_GT(mobile.busy_seconds, 0.0);
  EXPECT_GT(mobile.energy_joules, 0.0);
  EXPECT_GT(mobile.service_seconds, 0.0);
}

TEST(Attribution, IdenticalAcrossHostThreadCounts) {
  const ServeReport r1 = golden_run(1);
  const ServeReport r2 = golden_run(2);
  const ServeReport r8 = golden_run(8);
  for (const ServeReport* other : {&r2, &r8}) {
    EXPECT_EQ(r1.makespan, other->makespan);
    EXPECT_EQ(r1.energy, other->energy);
    EXPECT_EQ(r1.busy, other->busy);
    EXPECT_EQ(r1.service_time, other->service_time);
    ASSERT_EQ(r1.tenant_costs.size(), other->tenant_costs.size());
    for (std::size_t i = 0; i < r1.tenant_costs.size(); ++i) {
      const TenantCost& a = r1.tenant_costs[i];
      const TenantCost& b = other->tenant_costs[i];
      EXPECT_EQ(a.tenant, b.tenant);
      EXPECT_EQ(a.requests, b.requests);
      EXPECT_EQ(a.passes, b.passes);
      EXPECT_EQ(a.warm_passes, b.warm_passes);
      EXPECT_EQ(a.service_seconds, b.service_seconds);  // bitwise
      EXPECT_EQ(a.busy_seconds, b.busy_seconds);
      EXPECT_EQ(a.energy_joules, b.energy_joules);
      EXPECT_EQ(a.recalibration_seconds, b.recalibration_seconds);
    }
    expect_conserved(*other);
  }
}

TEST(Attribution, SingleTenantTakesEveryCostBitwise) {
  // With one tenant, every split fraction is exactly 1.0 — the tenant row
  // must carry the whole fleet totals bitwise, not approximately.
  runtime::Accelerator accelerator({.cores = 2});
  ModelRegistry registry(accelerator);
  Rng rng(5);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  Server server(registry);
  const LoadGenerator generator(
      {{.name = "only", .model = "m", .rate = 200e6, .requests = 12}}, 11);
  const ServeReport report =
      server.run(generator.generate(registry), {.max_batch = 4,
                                                .max_wait = 20e-9});
  ASSERT_EQ(report.tenant_costs.size(), 1u);
  const TenantCost& only = report.tenant_costs.front();
  EXPECT_EQ(only.tenant, "only");
  EXPECT_EQ(only.requests, report.completed);
  EXPECT_EQ(only.passes, report.passes);
  EXPECT_EQ(only.warm_passes, report.warm_passes);
  EXPECT_EQ(only.busy_seconds, report.busy);
  EXPECT_EQ(only.energy_joules, report.energy);
  EXPECT_EQ(only.service_seconds, report.service_time);
  EXPECT_GT(report.energy, 0.0);
}

TEST(Attribution, MixedTenantBatchSplitsIntegersExactly) {
  // Two tenants of the same model arriving together share batches; the
  // integer quantities must split with no loss (largest remainder).
  runtime::Accelerator accelerator({.cores = 2});
  ModelRegistry registry(accelerator);
  Rng rng(5);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  Server server(registry);

  std::vector<Request> requests;
  for (std::size_t i = 0; i < 9; ++i) {
    Request request;
    request.id = i;
    // Appends, not operator=(const char*): GCC 12 flags the latter with a
    // false -Wrestrict positive here.
    request.tenant += (i % 3 == 0) ? 'a' : 'b';  // 3 of "a", 6 of "b"
    request.model += 'm';
    request.arrival = 0.0;
    request.input.assign(16, 0.5);
    requests.push_back(std::move(request));
  }
  const ServeReport report =
      server.run(requests, {.max_batch = 9, .max_wait = 10e-9});
  EXPECT_EQ(report.dispatched_batches, 1u);
  ASSERT_EQ(report.tenant_costs.size(), 2u);
  const TenantCost& a = *tenant_cost(report.tenant_costs, "a");
  const TenantCost& b = *tenant_cost(report.tenant_costs, "b");
  EXPECT_EQ(a.requests, 3u);
  EXPECT_EQ(b.requests, 6u);
  EXPECT_EQ(a.passes + b.passes, report.passes);
  EXPECT_EQ(a.warm_passes + b.warm_passes, report.warm_passes);
  // Proportional: b carries twice a's share of an integer divisible by 3,
  // or within one unit otherwise (largest remainder).
  EXPECT_GE(b.passes, a.passes);
  expect_conserved(report);
  // Both tenants rode the same single batch.
  EXPECT_EQ(a.batches, 1u);
  EXPECT_EQ(b.batches, 1u);
}

TEST(Attribution, TenantMetricsFamiliesMatchCostRows) {
  telemetry::MetricsRegistry metrics;
  const ServeReport report = golden_run(0, &metrics);
  for (const TenantCost& cost : report.tenant_costs) {
    if (cost.tenant == TenantCost::kFleetTenant) continue;
    const std::string& model =
        cost.tenant == "mobile" ? "vision" : "keyword";
    const telemetry::LabelSet labels = {{"model", model},
                                        {"tenant", cost.tenant}};
    ASSERT_TRUE(metrics.contains("serve_tenant_requests_total", labels))
        << cost.tenant;
    EXPECT_EQ(metrics.counter("serve_tenant_requests_total", labels).value(),
              static_cast<double>(cost.requests));
    EXPECT_EQ(metrics.counter("serve_tenant_passes_total", labels).value(),
              static_cast<double>(cost.passes));
    EXPECT_EQ(
        metrics.counter("serve_tenant_energy_joules_total", labels).value(),
        cost.energy_joules);
    EXPECT_EQ(
        metrics.counter("serve_tenant_busy_seconds_total", labels).value(),
        cost.busy_seconds);
  }
  // The per-core dimension: every core's attributed busy time is published.
  for (const char* core : {"0", "1", "2", "3"}) {
    EXPECT_TRUE(
        metrics.contains("fleet_core_busy_seconds_total", {{"core", core}}))
        << core;
  }
}

// --- token-serving attribution ----------------------------------------------

/// Multi-tenant transformer scenario under continuous batching with a KV
/// budget tight enough to force preemptions — every token-serving cost
/// family (tokens, passes, kv_row_seconds, evictions, preemptions) lands
/// in the attribution.
TokenServeReport token_golden_run(std::size_t threads) {
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.threads = threads;
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
  registry.add_transformer("tf", nn::TransformerModel::random(tf_config, rng));

  // Near-simultaneous arrivals (decode steps are ns-scale) so batches
  // actually form and tenants share steps.
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
  policy.kv_budget_rows = 8 * tf_config.layers;  // tight: forces preemption
  return server.run(requests, policy);
}

/// Asserts the token-serving conservation contract on `report`, bitwise.
void expect_token_conserved(const TokenServeReport& report) {
  std::size_t requests = 0;
  std::size_t tokens = 0;
  std::size_t passes = 0;
  std::size_t warm = 0;
  std::size_t evicted = 0;
  std::size_t preemptions = 0;
  double busy = 0.0;
  double energy = 0.0;
  double kv_row_seconds = 0.0;
  // Same sorted-tenant order the server derived the totals in, so the
  // sums must be bit-identical, not merely close.
  for (const TenantCost& cost : report.tenant_costs) {
    requests += cost.requests;
    tokens += cost.tokens;
    passes += cost.passes;
    warm += cost.warm_passes;
    evicted += cost.kv_evicted_rows;
    preemptions += cost.preemptions;
    busy += cost.busy_seconds;
    energy += cost.energy_joules;
    kv_row_seconds += cost.kv_row_seconds;
  }
  EXPECT_EQ(requests, report.completed);
  EXPECT_EQ(tokens, report.tokens);
  EXPECT_EQ(passes, report.passes);
  EXPECT_EQ(warm, report.warm_passes);
  EXPECT_EQ(evicted, report.kv_evicted_rows);
  EXPECT_EQ(preemptions, report.preemptions);
  EXPECT_EQ(busy, report.busy);      // bit-exact, no tolerance
  EXPECT_EQ(energy, report.energy);
  EXPECT_EQ(kv_row_seconds, report.kv_row_seconds);
}

TEST(TokenAttribution, ConservesTokenServingTotalsBitExactly) {
  const TokenServeReport report = token_golden_run(0);
  ASSERT_EQ(report.tenant_costs.size(), 3u);
  expect_token_conserved(report);

  // The scenario exercised every cost family, not just the easy ones.
  EXPECT_GT(report.tokens, 0u);
  EXPECT_GT(report.kv_row_seconds, 0.0);
  EXPECT_GT(report.preemptions, 0u);
  EXPECT_GT(report.kv_evicted_rows, 0u);
  EXPECT_GT(report.energy, 0.0);

  // Every tenant that sent requests was billed real token costs.
  for (const char* tenant : {"acme", "globex", "initech"}) {
    const TenantCost* cost = tenant_cost(report.tenant_costs, tenant);
    ASSERT_NE(cost, nullptr) << tenant;
    EXPECT_GT(cost->tokens, 0u) << tenant;
    EXPECT_GT(cost->kv_row_seconds, 0.0) << tenant;
    EXPECT_GT(cost->energy_joules, 0.0) << tenant;
  }
  EXPECT_EQ(tenant_cost(report.tenant_costs, "unknown"), nullptr);
}

TEST(TokenAttribution, TenantRowsIdenticalAcrossHostThreadCounts) {
  const TokenServeReport r1 = token_golden_run(1);
  const TokenServeReport r2 = token_golden_run(2);
  const TokenServeReport r8 = token_golden_run(8);
  for (const TokenServeReport* other : {&r2, &r8}) {
    EXPECT_EQ(r1.makespan, other->makespan);
    EXPECT_EQ(r1.energy, other->energy);
    EXPECT_EQ(r1.kv_row_seconds, other->kv_row_seconds);
    ASSERT_EQ(r1.tenant_costs.size(), other->tenant_costs.size());
    for (std::size_t i = 0; i < r1.tenant_costs.size(); ++i) {
      const TenantCost& a = r1.tenant_costs[i];
      const TenantCost& b = other->tenant_costs[i];
      EXPECT_EQ(a.tenant, b.tenant);
      EXPECT_EQ(a.requests, b.requests);
      EXPECT_EQ(a.tokens, b.tokens);
      EXPECT_EQ(a.passes, b.passes);
      EXPECT_EQ(a.warm_passes, b.warm_passes);
      EXPECT_EQ(a.kv_evicted_rows, b.kv_evicted_rows);
      EXPECT_EQ(a.preemptions, b.preemptions);
      EXPECT_EQ(a.busy_seconds, b.busy_seconds);  // bitwise
      EXPECT_EQ(a.energy_joules, b.energy_joules);
      EXPECT_EQ(a.kv_row_seconds, b.kv_row_seconds);
    }
    expect_token_conserved(*other);
  }
}

TEST(TokenAttribution, SplitExactConservesAndBreaksTiesByOrder) {
  // Largest-remainder apportionment: exact sum, at-most-one-unit skew.
  const TenantShares shares = {{"a", 1}, {"b", 1}, {"c", 2}};
  const auto split = split_exact(10, shares, 4);
  EXPECT_EQ(split.at("a") + split.at("b") + split.at("c"), 10u);
  EXPECT_EQ(split.at("c"), 5u);  // exact half
  // 2.5 each remaining: equal remainders, first-in-map-order wins the
  // leftover unit.
  EXPECT_EQ(split.at("a"), 3u);
  EXPECT_EQ(split.at("b"), 2u);

  // Divisible case: no remainder anywhere.
  const auto even = split_exact(8, shares, 4);
  EXPECT_EQ(even.at("a"), 2u);
  EXPECT_EQ(even.at("b"), 2u);
  EXPECT_EQ(even.at("c"), 4u);

  // Zero total splits to all zeros; zero-weight tenants get nothing.
  const auto zero = split_exact(0, shares, 4);
  EXPECT_EQ(zero.at("a") + zero.at("b") + zero.at("c"), 0u);
  const auto skewed = split_exact(7, {{"x", 0}, {"y", 3}}, 3);
  EXPECT_EQ(skewed.at("x"), 0u);
  EXPECT_EQ(skewed.at("y"), 7u);

  EXPECT_THROW(split_exact(1, shares, 0), std::invalid_argument);
}

// --- SLO monitors -----------------------------------------------------------

TEST(Slo, LatencyBurnRatesAndRisingEdgeAlert) {
  SloObjective objective;
  objective.name = "lat";
  objective.kind = SloObjective::Kind::kLatency;
  objective.latency_target = 1.0;
  objective.objective = 0.9;  // error budget 0.1
  objective.short_window = 10.0;
  objective.long_window = 100.0;
  objective.burn_threshold = 2.0;
  SloMonitor monitor(objective);

  // 10 good completions: zero burn.
  for (int i = 0; i < 10; ++i) {
    monitor.observe(static_cast<double>(i) * 0.5, "t", 0.5, false, nullptr,
                    nullptr);
  }
  EXPECT_EQ(monitor.short_burn(), 0.0);
  EXPECT_EQ(monitor.long_burn(), 0.0);
  EXPECT_FALSE(monitor.breaching());
  EXPECT_TRUE(monitor.alerts().empty());

  // Push bad completions until both windows burn past 2x budget.
  for (int i = 0; i < 10; ++i) {
    monitor.observe(5.0 + static_cast<double>(i) * 0.1, "t", 3.0, false,
                    nullptr, nullptr);
  }
  // 10 bad of 20 observed: bad fraction 0.5, burn 0.5 / 0.1 = 5 >= 2.
  EXPECT_TRUE(monitor.breaching());
  ASSERT_EQ(monitor.alerts().size(), 1u);  // rising edge fired exactly once
  EXPECT_GT(monitor.short_burn(), 2.0);
  EXPECT_EQ(monitor.observed(), 20u);
  EXPECT_EQ(monitor.bad(), 10u);

  monitor.reset();
  EXPECT_EQ(monitor.short_burn(), 0.0);
  EXPECT_FALSE(monitor.breaching());
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_EQ(monitor.observed(), 0u);
}

TEST(Slo, WindowsEvictOldCompletions) {
  SloObjective objective;
  objective.name = "w";
  objective.latency_target = 1.0;
  objective.objective = 0.5;  // budget 0.5 -> burn = 2 * bad_fraction
  objective.short_window = 1.0;
  objective.long_window = 10.0;
  SloMonitor monitor(objective);

  monitor.observe(0.0, "t", 2.0, false, nullptr, nullptr);  // bad
  EXPECT_EQ(monitor.short_burn(), 2.0);
  // 5 s later the bad completion left the 1 s window but not the 10 s one.
  monitor.observe(5.0, "t", 0.5, false, nullptr, nullptr);
  EXPECT_EQ(monitor.short_burn(), 0.0);
  EXPECT_EQ(monitor.long_burn(), 1.0);  // 1 bad of 2 -> 0.5 / 0.5
}

TEST(Slo, TenantFilterAndErrorRateKind) {
  SloObjective objective;
  objective.name = "acc";
  objective.tenant = "alice";
  objective.kind = SloObjective::Kind::kErrorRate;
  objective.objective = 0.5;
  objective.short_window = 10.0;
  objective.long_window = 10.0;
  SloMonitor monitor(objective);

  monitor.observe(0.0, "bob", 0.0, true, nullptr, nullptr);  // filtered out
  EXPECT_EQ(monitor.observed(), 0u);
  monitor.observe(1.0, "alice", 0.0, true, nullptr, nullptr);  // error
  monitor.observe(2.0, "alice", 0.0, false, nullptr, nullptr);
  EXPECT_EQ(monitor.observed(), 2u);
  EXPECT_EQ(monitor.bad(), 1u);
  EXPECT_EQ(monitor.short_burn(), 1.0);  // 0.5 bad fraction / 0.5 budget
}

TEST(Slo, ServerRunFeedsMonitorsAndEmitsTelemetry) {
  telemetry::MetricsRegistry metrics;
  SloObjective tight;
  tight.name = "tight-latency";
  tight.kind = SloObjective::Kind::kLatency;
  tight.latency_target = 1e-12;  // everything is bad: guaranteed alert
  tight.objective = 0.99;
  tight.short_window = 50e-9;
  tight.long_window = 200e-9;
  tight.burn_threshold = 1.0;
  const ServeReport report = golden_run(0, &metrics, {tight});

  ASSERT_EQ(report.slos.size(), 1u);
  const SloSummary& summary = report.slos.front();
  EXPECT_EQ(summary.name, "tight-latency");
  EXPECT_EQ(summary.observed, report.completed);
  EXPECT_EQ(summary.bad, report.completed);
  EXPECT_GE(summary.alerts, 1u);
  EXPECT_GT(summary.short_burn, 1.0);

  // Burn gauges and the alert counter landed in the registry, labeled.
  const telemetry::LabelSet short_labels = {{"slo", "tight-latency"},
                                            {"window", "short"}};
  ASSERT_TRUE(metrics.contains("slo_burn_rate", short_labels));
  EXPECT_EQ(metrics.gauge("slo_burn_rate", short_labels).value(),
            summary.short_burn);
  const telemetry::LabelSet alert_labels = {{"slo", "tight-latency"}};
  ASSERT_TRUE(metrics.contains("slo_alerts_total", alert_labels));
  EXPECT_EQ(metrics.counter("slo_alerts_total", alert_labels).value(),
            static_cast<double>(summary.alerts));
}

TEST(Slo, AlertEmitsTraceInstantEvent) {
  telemetry::Tracer tracer;
  runtime::Accelerator accelerator({.cores = 2});
  ModelRegistry registry(accelerator);
  Rng rng(5);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  Server server(registry);
  server.set_tracer(&tracer);
  SloObjective tight;
  tight.name = "t";
  tight.latency_target = 1e-12;
  tight.objective = 0.9;
  tight.short_window = 1.0;
  tight.long_window = 1.0;
  server.add_slo(tight);
  const LoadGenerator generator(
      {{.name = "only", .model = "m", .rate = 200e6, .requests = 8}}, 11);
  server.run(generator.generate(registry), {.max_batch = 4,
                                            .max_wait = 20e-9});
  bool saw_alert = false;
  for (const telemetry::TraceEvent& event : tracer.events()) {
    if (event.name == "slo_alert") saw_alert = true;
  }
  EXPECT_TRUE(saw_alert);
}

TEST(Slo, ObjectiveValidation) {
  SloObjective bad;
  bad.name = "";
  EXPECT_THROW(SloMonitor{bad}, std::invalid_argument);
  bad.name = "x";
  bad.objective = 1.5;
  EXPECT_THROW(SloMonitor{bad}, std::invalid_argument);
  bad.objective = 0.9;
  bad.short_window = 0.0;
  EXPECT_THROW(SloMonitor{bad}, std::invalid_argument);
  bad.short_window = 2.0;
  bad.long_window = 1.0;  // shorter than short window
  EXPECT_THROW(SloMonitor{bad}, std::invalid_argument);
}

TEST(Slo, DuplicateNamesRejectedByServer) {
  runtime::Accelerator accelerator({.cores = 2});
  ModelRegistry registry(accelerator);
  Server server(registry);
  SloObjective objective;
  objective.name = "dup";
  objective.latency_target = 1.0;
  objective.short_window = 1.0;
  objective.long_window = 1.0;
  server.add_slo(objective);
  EXPECT_THROW(server.add_slo(objective), std::invalid_argument);
}

}  // namespace
