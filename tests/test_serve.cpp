// Serving layer: queue/batcher policy semantics, weight-tile residency
// accounting, and the discrete-event Server's determinism contract —
// identical (config, seed) must give an identical request trace and
// identical p50/p95/p99 on any host thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/latency_stats.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace {

using namespace ptc;
using namespace ptc::serve;

Request make_request(std::size_t id, const std::string& model,
                     double arrival) {
  Request request;
  request.id = id;
  request.tenant = std::string("t");
  request.model = model;
  request.arrival = arrival;
  request.input = {0.5, 0.25};
  return request;
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, FifoPerModelWithDeterministicModelOrder) {
  RequestQueue queue;
  queue.push(make_request(0, "b", 1.0));
  queue.push(make_request(1, "a", 2.0));
  queue.push(make_request(2, "b", 3.0));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.size("b"), 2u);
  EXPECT_EQ(queue.models(), (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(queue.oldest_arrival("b"), 1.0);

  const std::vector<Request> popped = queue.pop("b", 8);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].id, 0u);
  EXPECT_EQ(popped[1].id, 2u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.models(), (std::vector<std::string>{"a"}));
}

TEST(RequestQueue, RejectsOutOfOrderPushes) {
  RequestQueue queue;
  queue.push(make_request(0, "a", 5.0));
  EXPECT_THROW(queue.push(make_request(1, "a", 4.0)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DynamicBatcher policy semantics
// ---------------------------------------------------------------------------

TEST(DynamicBatcher, MaxBatchClosesTheBatchEarly) {
  DynamicBatcher batcher({.max_batch = 3, .max_wait = BatchPolicy::kNoTimeout});
  batcher.enqueue(make_request(0, "m", 0.0));
  batcher.enqueue(make_request(1, "m", 1.0));
  // Two of three: under kNoTimeout nothing would ever close this batch.
  EXPECT_TRUE(std::isinf(batcher.next_ready_time(10.0)));
  EXPECT_TRUE(batcher.pop_ready(10.0, "").empty());

  batcher.enqueue(make_request(2, "m", 2.0));
  EXPECT_DOUBLE_EQ(batcher.next_ready_time(10.0), 10.0);
  const std::vector<Request> batch = batcher.pop_ready(10.0, "");
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);  // FIFO preserved
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(batch[2].id, 2u);
  EXPECT_FALSE(batcher.has_pending());
}

TEST(DynamicBatcher, MaxWaitTimeoutFires) {
  DynamicBatcher batcher({.max_batch = 8, .max_wait = 2.0});
  batcher.enqueue(make_request(0, "m", 1.0));
  EXPECT_DOUBLE_EQ(batcher.next_ready_time(1.0), 3.0);
  EXPECT_TRUE(batcher.pop_ready(2.5, "").empty());  // not yet
  const std::vector<Request> batch = batcher.pop_ready(3.0, "");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u);
}

TEST(DynamicBatcher, ZeroWaitDispatchesWhateverIsQueued) {
  DynamicBatcher batcher({.max_batch = 8, .max_wait = 0.0});
  batcher.enqueue(make_request(0, "m", 4.0));
  batcher.enqueue(make_request(1, "m", 4.5));
  EXPECT_DOUBLE_EQ(batcher.next_ready_time(5.0), 5.0);
  EXPECT_EQ(batcher.pop_ready(5.0, "").size(), 2u);
}

TEST(DynamicBatcher, PrefersTheResidentModel) {
  DynamicBatcher batcher({.max_batch = 2, .max_wait = BatchPolicy::kNoTimeout});
  batcher.enqueue(make_request(0, "a", 0.0));
  batcher.enqueue(make_request(1, "b", 0.5));
  batcher.enqueue(make_request(2, "a", 1.0));
  batcher.enqueue(make_request(3, "b", 1.5));
  // Both batches closed; "a" has the older head, but "b" is resident.
  std::vector<Request> batch = batcher.pop_ready(2.0, "b");
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].model, "b");
  // No residency preference left: FIFO fairness picks "a".
  batch = batcher.pop_ready(2.0, "b");
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].model, "a");
}

TEST(DynamicBatcher, DrainFlushesPartialBatches) {
  DynamicBatcher batcher({.max_batch = 8, .max_wait = BatchPolicy::kNoTimeout});
  batcher.enqueue(make_request(0, "m", 0.0));
  batcher.enqueue(make_request(1, "m", 1.0));
  EXPECT_TRUE(batcher.pop_ready(100.0, "").empty());
  EXPECT_EQ(batcher.pop_ready(100.0, "", /*drain=*/true).size(), 2u);
}

TEST(DynamicBatcher, RejectsBadPolicy) {
  EXPECT_THROW(DynamicBatcher({.max_batch = 0}), std::invalid_argument);
  EXPECT_THROW(DynamicBatcher({.max_batch = 1, .max_wait = -1.0}),
               std::invalid_argument);
  // A negative or NaN probe field would switch probing or the estimated
  // trigger off without a word.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DynamicBatcher({.max_batch = 1, .probe_period = -1e-6}),
               std::invalid_argument);
  EXPECT_THROW(DynamicBatcher({.max_batch = 1, .probe_period = nan}),
               std::invalid_argument);
  EXPECT_THROW(DynamicBatcher({.max_batch = 1, .probe_period = 1e-6,
                               .estimated_drift_threshold = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(DynamicBatcher({.max_batch = 1, .probe_period = 1e-6,
                               .estimated_drift_threshold = nan}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ModelRegistry: tile accounting and residency
// ---------------------------------------------------------------------------

TEST(ModelRegistry, CountsTilePassesFromLayerGeometry) {
  runtime::Accelerator accelerator({.cores = 4});
  ModelRegistry registry(accelerator);
  Rng rng(1);
  registry.add("compact", nn::Mlp(32, 16, 10, rng));  // 2 + 1 tiles
  registry.add("wide", nn::Mlp(64, 64, 10, rng));     // 16 + 4 tiles

  EXPECT_TRUE(registry.contains("compact"));
  EXPECT_EQ(registry.input_width("compact"), 32u);
  EXPECT_EQ(registry.passes("compact"), 3u);
  EXPECT_TRUE(registry.fits_resident("compact"));
  EXPECT_EQ(registry.passes("wide"), 20u);
  EXPECT_FALSE(registry.fits_resident("wide"));
  EXPECT_THROW(registry.passes("missing"), std::invalid_argument);
  EXPECT_THROW(registry.add("compact", nn::Mlp(8, 8, 2, rng)),
               std::invalid_argument);
}

TEST(ModelRegistry, ConsecutiveBatchesOfAFittingModelRunWarm) {
  runtime::Accelerator accelerator({.cores = 4});
  ModelRegistry registry(accelerator);
  Rng rng(2);
  registry.add("compact", nn::Mlp(32, 16, 10, rng));
  registry.add("other", nn::Mlp(32, 16, 10, rng));
  const Matrix x = random_activations(2, 32, rng);

  const BatchDispatch cold = registry.run_batch("compact", x);
  EXPECT_EQ(cold.passes, 3u);
  EXPECT_EQ(cold.warm_passes, 0u);
  EXPECT_EQ(registry.resident_model(), "compact");

  const BatchDispatch warm = registry.run_batch("compact", x);
  EXPECT_EQ(warm.warm_passes, 3u);
  EXPECT_LT(warm.latency, cold.latency);  // reloads skipped
  EXPECT_EQ(warm.logits.max_abs_diff(cold.logits), 0.0);

  // A model switch evicts the residency: cold again.
  EXPECT_EQ(registry.run_batch("other", x).warm_passes, 0u);
  EXPECT_EQ(registry.run_batch("compact", x).warm_passes, 0u);
}

TEST(ModelRegistry, OversizedModelNeverClaimsResidency) {
  runtime::Accelerator accelerator({.cores = 4});
  ModelRegistry registry(accelerator);
  Rng rng(3);
  registry.add("wide", nn::Mlp(64, 64, 10, rng));
  const Matrix x = random_activations(1, 64, rng);
  registry.run_batch("wide", x);
  EXPECT_EQ(registry.resident_model(), "");
  EXPECT_EQ(registry.run_batch("wide", x).warm_passes, 0u);
}

TEST(ModelRegistry, RotationChangeDropsResidency) {
  runtime::Accelerator accelerator({.cores = 4});
  ModelRegistry registry(accelerator);
  Rng rng(6);
  registry.add("compact", nn::Mlp(32, 16, 10, rng));  // 3 tiles
  const Matrix x = random_activations(2, 32, rng);
  registry.run_batch("compact", x);
  ASSERT_EQ(registry.run_batch("compact", x).warm_passes, 3u);
  ASSERT_EQ(registry.resident_model(), "compact");

  // Residency was planned against the old rotation: an eviction alone
  // drops it, though the 3 tiles still fit the 3 survivors.
  accelerator.evict_core(1);
  EXPECT_EQ(registry.resident_model(), "");
  const BatchDispatch after_evict = registry.run_batch("compact", x);
  EXPECT_FALSE(after_evict.warm);
  EXPECT_EQ(after_evict.warm_passes, 0u);
  EXPECT_EQ(registry.run_batch("compact", x).warm_passes, 3u);

  accelerator.readmit_core(1);
  EXPECT_EQ(registry.resident_model(), "");
  EXPECT_EQ(registry.run_batch("compact", x).warm_passes, 0u);
  EXPECT_EQ(registry.resident_model(), "compact");
}

TEST(ModelRegistry, LogitsMatchTheSingleCorePhotonicBackend) {
  Rng rng(4);
  nn::Mlp mlp(32, 16, 10, rng);
  const Matrix x = random_activations(3, 32, rng);

  core::TensorCore single_core;
  nn::PhotonicBackend single(single_core);
  const Matrix expected = mlp.forward(single, x);

  runtime::Accelerator accelerator({.cores = 4});
  ModelRegistry registry(accelerator);
  registry.add("m", std::move(mlp));
  const BatchDispatch dispatch = registry.run_batch("m", x);
  EXPECT_EQ(dispatch.logits.max_abs_diff(expected), 0.0);
}

// ---------------------------------------------------------------------------
// Accelerator batch-cost hook
// ---------------------------------------------------------------------------

TEST(BatchCost, ColdBatchMatchesTheMatmulMakespan) {
  Rng rng(5);
  runtime::Accelerator accelerator({.cores = 4});
  const Matrix x = random_activations(4, 32, rng);
  const Matrix w = random_signed(32, 16, rng);
  accelerator.matmul(x, w);  // 2 tile passes
  const runtime::BatchCost cost = accelerator.batch_cost(2, 0, 4);
  EXPECT_DOUBLE_EQ(cost.latency, accelerator.stats().makespan);
  EXPECT_DOUBLE_EQ(cost.busy, accelerator.stats().busy_time);
  EXPECT_EQ(cost.reloads, 2u);
}

TEST(BatchCost, WarmPassesSkipTheReload) {
  runtime::Accelerator accelerator({.cores = 4});
  const runtime::BatchCost cold = accelerator.batch_cost(3, 0, 8);
  const runtime::BatchCost warm = accelerator.batch_cost(3, 3, 8);
  EXPECT_LT(warm.latency, cold.latency);
  EXPECT_EQ(warm.reloads, 0u);
  EXPECT_DOUBLE_EQ(warm.reload_time, 0.0);
  EXPECT_GT(cold.reload_time, 0.0);

  EXPECT_DOUBLE_EQ(accelerator.batch_cost(0, 0, 8).latency, 0.0);
  EXPECT_THROW(accelerator.batch_cost(2, 3, 8), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------------

TEST(LoadGenerator, TraceIsSortedDeterministicAndComplete) {
  runtime::Accelerator accelerator({.cores = 2});
  ModelRegistry registry(accelerator);
  Rng rng(6);
  registry.add("m", nn::Mlp(32, 16, 10, rng));

  const std::vector<TenantConfig> tenants{
      {.name = "alice", .model = "m", .rate = 1e8, .requests = 40},
      {.name = "bob", .model = "m", .rate = 3e8, .requests = 60},
  };
  const LoadGenerator generator(tenants, 1234);
  const std::vector<Request> a = generator.generate(registry);
  const std::vector<Request> b = generator.generate(registry);

  ASSERT_EQ(a.size(), 100u);
  std::size_t alice = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].input.size(), 32u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
    if (a[i].tenant == "alice") ++alice;
    // Bit-identical regeneration.
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].input, b[i].input);
  }
  EXPECT_EQ(alice, 40u);

  // A different seed moves the arrivals.
  const std::vector<Request> c =
      LoadGenerator(tenants, 99).generate(registry);
  EXPECT_NE(a.front().arrival, c.front().arrival);
}

TEST(LoadGenerator, MeanInterArrivalTracksTheRate) {
  runtime::Accelerator accelerator({.cores = 2});
  ModelRegistry registry(accelerator);
  Rng rng(7);
  registry.add("m", nn::Mlp(32, 16, 10, rng));
  const LoadGenerator generator(
      {{.name = "t", .model = "m", .rate = 1e9, .requests = 4000}}, 5);
  const std::vector<Request> trace = generator.generate(registry);
  const double mean_gap = trace.back().arrival / 4000.0;
  EXPECT_NEAR(mean_gap, 1e-9, 0.05e-9);
}

TEST(LoadGenerator, RejectsBadConfigs) {
  EXPECT_THROW(LoadGenerator({}, 1), std::invalid_argument);
  EXPECT_THROW(
      LoadGenerator({{.name = "t", .model = "m", .rate = 0.0}}, 1),
      std::invalid_argument);
  EXPECT_THROW(LoadGenerator({{.name = TenantCost::kFleetTenant,
                               .model = "m",
                               .rate = 1.0}},
                             1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server: the discrete-event loop
// ---------------------------------------------------------------------------

struct Fixture {
  runtime::Accelerator accelerator;
  ModelRegistry registry;
  Server server;

  explicit Fixture(std::size_t cores = 4, std::size_t threads = 0)
      : accelerator({.cores = cores, .threads = threads}),
        registry(accelerator),
        server(registry) {
    Rng rng(2026);
    registry.add("compact", nn::Mlp(32, 16, 10, rng));
    registry.add("wide", nn::Mlp(64, 64, 10, rng));
  }

  std::vector<Request> trace(const std::string& model, double rate,
                             std::size_t count, std::uint64_t seed = 11) {
    return LoadGenerator(
               {{.name = "t", .model = model, .rate = rate, .requests = count}},
               seed)
        .generate(registry);
  }
};

TEST(Server, FixedBatchPolicyFormsFullBatchesAndKeepsFifo) {
  Fixture f;
  const auto requests = f.trace("wide", 1e12, 8);  // saturating arrivals
  const ServeReport report =
      f.server.run(requests, {.max_batch = 4,
                              .max_wait = BatchPolicy::kNoTimeout});

  ASSERT_EQ(report.batches.size(), 2u);
  EXPECT_EQ(report.batches[0].size, 4u);
  EXPECT_EQ(report.batches[1].size, 4u);
  ASSERT_EQ(report.requests.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.requests[i].id, i);  // FIFO order survives batching
    EXPECT_GE(report.requests[i].queue_wait(), 0.0);
    EXPECT_GT(report.requests[i].service(), 0.0);
  }
  // Batches serialize on the single fleet.
  EXPECT_GE(report.batches[1].dispatch, report.batches[0].completion);
  EXPECT_DOUBLE_EQ(report.makespan, report.batches[1].completion);
  EXPECT_GT(report.energy, 0.0);
  EXPECT_GT(report.throughput(), 0.0);
}

TEST(Server, DrainFlushesLeftoversOfAFixedBatchPolicy) {
  Fixture f;
  const auto requests = f.trace("compact", 1e11, 5);
  const ServeReport report =
      f.server.run(requests, {.max_batch = 4,
                              .max_wait = BatchPolicy::kNoTimeout});
  ASSERT_EQ(report.batches.size(), 2u);
  EXPECT_EQ(report.batches[0].size, 4u);
  EXPECT_EQ(report.batches[1].size, 1u);  // flushed, not stranded
  EXPECT_EQ(report.requests.size(), 5u);
}

TEST(Server, MaxWaitBoundsTheQueueDelayOfSparseTraffic) {
  Fixture f;
  // Mean gap 10 us >> max_wait + service: every request rides alone and
  // dispatches exactly when its co-batching window expires.
  const auto requests = f.trace("compact", 1e5, 6);
  const double max_wait = 100e-9;
  const ServeReport report =
      f.server.run(requests, {.max_batch = 8, .max_wait = max_wait});
  ASSERT_EQ(report.batches.size(), 6u);
  for (const RequestRecord& record : report.requests) {
    // (arrival + max_wait) - arrival rounds in the last ulp of the large
    // arrival timestamps; the bound itself is exact.
    EXPECT_NEAR(record.queue_wait(), max_wait, 1e-18);
  }
  EXPECT_NEAR(report.queue_wait.max, max_wait, 1e-18);
}

TEST(Server, WarmResidencyAppearsInTheTraceAndShortensService) {
  Fixture f;
  const auto requests = f.trace("compact", 1e12, 12);
  const ServeReport report =
      f.server.run(requests, {.max_batch = 4,
                              .max_wait = BatchPolicy::kNoTimeout});
  ASSERT_EQ(report.batches.size(), 3u);
  EXPECT_EQ(report.batches[0].warm_passes, 0u);
  EXPECT_EQ(report.batches[1].warm_passes, report.batches[1].passes);
  EXPECT_EQ(report.batches[2].warm_passes, report.batches[2].passes);
  const double cold_service =
      report.batches[0].completion - report.batches[0].dispatch;
  const double warm_service =
      report.batches[1].completion - report.batches[1].dispatch;
  EXPECT_LT(warm_service, cold_service);
  EXPECT_DOUBLE_EQ(report.warm_fraction(), 2.0 / 3.0);
}

TEST(Server, TraceAndTailsAreIdenticalAcrossRunsAndThreadCounts) {
  ServeReport reports[2];
  const std::size_t threads[2] = {1, 5};
  for (int i = 0; i < 2; ++i) {
    Fixture f(4, threads[i]);
    const auto requests = f.trace("wide", 5e8, 48, 77);
    reports[i] = f.server.run(requests, {.max_batch = 8, .max_wait = 10e-9});
  }
  const ServeReport& a = reports[0];
  const ServeReport& b = reports[1];
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].size, b.batches[i].size);
    EXPECT_DOUBLE_EQ(a.batches[i].dispatch, b.batches[i].dispatch);
    EXPECT_DOUBLE_EQ(a.batches[i].completion, b.batches[i].completion);
  }
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].predicted, b.requests[i].predicted);
    EXPECT_DOUBLE_EQ(a.requests[i].completion, b.requests[i].completion);
  }
  EXPECT_DOUBLE_EQ(a.total.p50, b.total.p50);
  EXPECT_DOUBLE_EQ(a.total.p95, b.total.p95);
  EXPECT_DOUBLE_EQ(a.total.p99, b.total.p99);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(Server, DynamicBatchingSustainsAtLeastFourTimesBatchOneThroughput) {
  // The acceptance bar: at the same saturating arrival rate, dynamic
  // batching must push >= 4x the throughput of one-request batches on a
  // streaming-regime model (tiles exceed the fleet, so every batch pays
  // its reloads and amortization is the whole game).
  Fixture one;
  const ServeReport batch1 = one.server.run(
      one.trace("wide", 1e12, 48), {.max_batch = 1, .max_wait = 0.0});
  Fixture many;
  const ServeReport dynamic = many.server.run(
      many.trace("wide", 1e12, 48),
      {.max_batch = 16, .max_wait = BatchPolicy::kNoTimeout});

  ASSERT_GT(batch1.throughput(), 0.0);
  EXPECT_GE(dynamic.throughput() / batch1.throughput(), 4.0);
  // And the tail stays bounded: every request completed, p99 is finite.
  EXPECT_EQ(dynamic.total.count, 48u);
  EXPECT_TRUE(std::isfinite(dynamic.total.p99));
  EXPECT_GT(dynamic.total.p99, 0.0);
}

TEST(Server, MultiTenantRunServesEveryTenantAndSplitsStats) {
  Fixture f;
  const LoadGenerator generator(
      {{.name = "alice", .model = "compact", .rate = 4e8, .requests = 20},
       {.name = "bob", .model = "wide", .rate = 2e8, .requests = 10}},
      42);
  const ServeReport report = f.server.run(
      generator.generate(f.registry), {.max_batch = 8, .max_wait = 20e-9});
  EXPECT_EQ(report.requests.size(), 30u);
  EXPECT_EQ(report.tenant_total("alice").count, 20u);
  EXPECT_EQ(report.tenant_total("bob").count, 10u);
  EXPECT_EQ(report.tenant_total("nobody").count, 0u);
  EXPECT_GT(report.tenant_total("alice").p99, 0.0);
}

TEST(Server, RejectsBadRequestsAndPoliciesBeforeTheFleetMoves) {
  Fixture f;
  Rng rng(5);
  f.registry.add_transformer(
      "tf", nn::TransformerModel::random({.vocab = 8, .d_model = 8}, rng));
  // Leave a model resident and a fault injected: a rejected run must throw
  // before it resets either.
  f.registry.run_batch("compact", Matrix(1, 32));
  ASSERT_EQ(f.registry.resident_model(), "compact");
  f.server.set_fault_schedule({{.time = 1e-9, .core = 1}});
  f.accelerator.inject({.core = 0});
  const std::size_t dead_rings = f.accelerator.core(0).ring_fault_count();
  ASSERT_GT(dead_rings, 0u);
  const auto fleet_untouched = [&] {
    EXPECT_EQ(f.registry.resident_model(), "compact");
    EXPECT_EQ(f.accelerator.faults_injected(), 1u);
    EXPECT_EQ(f.accelerator.core(0).ring_fault_count(), dead_rings);
  };

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const BatchPolicy policy{.max_batch = 4, .max_wait = 1e-9};
  // A lone NaN arrival would trip the "ready batch must be non-empty"
  // invariant, and a +inf one would be served with a queue wait of -inf.
  for (const double arrival : {nan, inf}) {
    std::vector<Request> requests = f.trace("compact", 1e9, 1);
    requests.front().arrival = arrival;
    EXPECT_THROW(f.server.run(requests, policy), std::invalid_argument);
  }
  // Request contents are checked up front too, not at dispatch after the
  // resets: each run below leads with a good request.
  for (const char* model : {"nope", "tf"}) {
    std::vector<Request> requests = f.trace("compact", 1e9, 2);
    requests.back().model = model;
    EXPECT_THROW(f.server.run(requests, policy), std::invalid_argument)
        << model;
    fleet_untouched();
  }
  for (const double input : {-1.0, nan, inf}) {
    std::vector<Request> requests = f.trace("compact", 1e9, 2);
    requests.back().input[3] = input;
    EXPECT_THROW(f.server.run(requests, policy), std::invalid_argument)
        << input;
    fleet_untouched();
  }
  {
    std::vector<Request> requests = f.trace("compact", 1e9, 2);
    requests.back().input.resize(5);
    EXPECT_THROW(f.server.run(requests, policy), std::invalid_argument);
    fleet_untouched();
  }
  {
    // Billed to the fleet row, tenant work would merge with the
    // recalibration, probe and fault overhead that row carries.
    std::vector<Request> requests = f.trace("compact", 1e9, 2);
    requests.back().tenant = TenantCost::kFleetTenant;
    EXPECT_THROW(f.server.run(requests, policy), std::invalid_argument);
    fleet_untouched();
  }
  const std::vector<Request> requests = f.trace("compact", 1e9, 2);
  for (const BatchPolicy& bad :
       {BatchPolicy{.max_batch = 0},
        BatchPolicy{.max_batch = 4, .probe_period = -1e-6},
        BatchPolicy{.max_batch = 4, .probe_period = 1e-6,
                    .estimated_drift_threshold = nan},
        BatchPolicy{.max_batch = 4, .estimated_drift_threshold = 0.1}}) {
    EXPECT_THROW(f.server.run(requests, bad), std::invalid_argument);
  }
  fleet_untouched();
}

TEST(Server, BatchSizeHistogramKeepsEveryBatchInAFiniteBucket) {
  Fixture f;
  telemetry::MetricsRegistry metrics;
  f.server.set_metrics(&metrics);
  const ServeReport report = f.server.run(f.trace("compact", 1e9, 40),
                                          {.max_batch = 8, .max_wait = 20e-9});
  const telemetry::Histogram& sizes = metrics.histogram("serve_batch_size");
  EXPECT_EQ(sizes.count(), report.dispatched_batches);
  EXPECT_EQ(sizes.underflow(), 0u);
  EXPECT_EQ(sizes.overflow(), 0u);
  for (const auto& batch : report.batches) EXPECT_LE(batch.size, 8u);
}

TEST(LatencyStatsSummary, EmptySampleYieldsZeros) {
  const LatencyStats stats = LatencyStats::from({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.p99, 0.0);

  const LatencyStats some = LatencyStats::from({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(some.count, 4u);
  EXPECT_DOUBLE_EQ(some.mean, 2.5);
  EXPECT_DOUBLE_EQ(some.p50, 2.0);
  EXPECT_DOUBLE_EQ(some.p99, 4.0);
  EXPECT_DOUBLE_EQ(some.max, 4.0);
}

}  // namespace
