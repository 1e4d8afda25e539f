// Fleet health (fleet/health.hpp): the drift estimator inverts pilot-tone
// probe transmission back to kelvin within a pinned tolerance of the
// simulator's oracle, anomaly detection fires on rising edges only, and the
// serving loop's estimated_drift_threshold trigger closes the
// recalibration loop oracle-free — bit-identically on any host thread
// count.  A seeded fuzz holds every serve policy and fault schedule to
// failing up front or serving every request.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "fleet/health.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "serve/attribution.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace ptc;
using fleet::AnomalyDetector;
using fleet::DriftEstimator;
using fleet::FleetHealthMonitor;
using fleet::SensorReading;

// ---------------------------------------------------------------------------
// DriftEstimator
// ---------------------------------------------------------------------------

TEST(DriftEstimator, InvertsInterpolatesAndClampsOnTheEnvelope) {
  // The flat point (2 -> 3.0 not above 3.0) collapses out of the envelope.
  DriftEstimator estimator({0.0, 1.0, 2.0, 3.0}, {1.0, 3.0, 3.0, 7.0});
  EXPECT_EQ(estimator.curve_kelvin().size(), 3u);
  EXPECT_DOUBLE_EQ(estimator.invert(1.0), 0.0);
  EXPECT_DOUBLE_EQ(estimator.invert(2.0), 0.5);   // midway on [1, 3]
  EXPECT_DOUBLE_EQ(estimator.invert(5.0), 2.0);   // midway on [3, 7] -> [1, 3]
  EXPECT_DOUBLE_EQ(estimator.invert(0.5), 0.0);   // clamps below
  EXPECT_DOUBLE_EQ(estimator.invert(99.0), 3.0);  // clamps above
}

TEST(DriftEstimator, EwmaSmoothsAndSlopeFitsTheTrend) {
  DriftEstimator estimator({0.0, 1.0}, {1.0, 2.0});
  estimator.observe(0.0, 1.2);  // raw 0.2; first observation seeds the EWMA
  EXPECT_DOUBLE_EQ(estimator.raw(), 0.2);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.2);
  estimator.observe(1.0, 1.6);  // raw 0.6 -> EWMA 0.2 + 0.35 * 0.4 = 0.34
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.34);
  // A linear ratio ramp gives a positive, roughly constant slope.
  for (int i = 2; i < 8; ++i) {
    estimator.observe(static_cast<double>(i), 1.0 + 0.1 * i);
  }
  EXPECT_GT(estimator.slope(), 0.0);
  estimator.reset();
  EXPECT_EQ(estimator.estimate(), 0.0);
  EXPECT_EQ(estimator.observations(), 0u);
}

TEST(DriftEstimator, RejectsBadCurvesAndConfigs) {
  EXPECT_THROW(DriftEstimator({0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(DriftEstimator({0.0, 1.0}, {1.0, 1.0}),
               std::invalid_argument);  // flat curve
  EXPECT_THROW(DriftEstimator({1.0, 0.0}, {1.0, 2.0}),
               std::invalid_argument);  // kelvin not increasing
}

TEST(DriftEstimator, CharacterizedCurveInvertsTheLiveProbeNearTheOracle) {
  core::TensorCoreConfig config;
  config.variation.seed = 11;
  core::TensorCore core(config);
  DriftEstimator estimator = DriftEstimator::characterize(core, 2.0, 65);

  // probe_transmission reads 1 when locked and rises with |detuning| in
  // both directions.
  EXPECT_DOUBLE_EQ(core.probe_transmission(), 1.0);
  double previous = 1.0;
  for (double k = 0.1; k <= 0.5; k += 0.1) {
    core.set_thermal_detuning(k);
    const double ratio = core.probe_transmission();
    EXPECT_GT(ratio, previous);
    previous = ratio;
  }

  // Pinned tolerance: inverting the live reading recovers |K| within 10%
  // (the residual is the averaged heating/cooling branch asymmetry).
  for (double k : {0.15, 0.3, 0.6, 1.2, -0.15, -0.3, -0.6, -1.2}) {
    core.set_thermal_detuning(k);
    const double estimate = estimator.invert(core.probe_transmission());
    EXPECT_NEAR(estimate, std::abs(k), 0.1 * std::abs(k))
        << "at oracle detuning " << k;
  }
  core.set_thermal_detuning(0.0);
}

// ---------------------------------------------------------------------------
// AnomalyDetector
// ---------------------------------------------------------------------------

TEST(AnomalyDetector, ZScoreFiresOnRisingEdgeOnly) {
  AnomalyDetector detector;
  // Warm-up (kMinSamples = 8): a gently varying baseline (nonzero
  // variance).
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(detector.observe(i, 1.0 + 0.01 * (i % 2)));
  }
  // Step change: fires exactly once, then holds anomalous without refiring.
  EXPECT_TRUE(detector.observe(8.0, 5.0));
  EXPECT_TRUE(detector.anomalous());
  EXPECT_GE(detector.score(), AnomalyDetector::kThreshold);
  EXPECT_FALSE(detector.observe(9.0, 5.0));
  EXPECT_EQ(detector.alarms(), 1u);
  detector.reset();
  EXPECT_FALSE(detector.anomalous());
  EXPECT_EQ(detector.alarms(), 0u);
}

TEST(AnomalyDetector, ZScoreStaysSilentBeforeMinSamples) {
  AnomalyDetector detector;
  EXPECT_FALSE(detector.observe(0.0, 0.0));
  EXPECT_FALSE(detector.observe(1.0, 1e9));  // huge, but still warming up
  EXPECT_EQ(detector.score(), 0.0);
}

// ---------------------------------------------------------------------------
// FleetHealthMonitor
// ---------------------------------------------------------------------------

runtime::AcceleratorConfig fleet_config(std::size_t threads) {
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.threads = threads;
  config.variation.seed = 42;
  config.drift.sigma = 1.0;
  config.drift.tau = 4e-6;
  return config;
}

TEST(FleetHealthMonitor, SamplesChannelsAndTracksTheOracleWithinTolerance) {
  runtime::AcceleratorConfig config = fleet_config(1);
  config.drift.sigma = 0.0;  // detunings set manually below
  runtime::Accelerator accelerator(config);
  FleetHealthMonitor monitor(accelerator);
  ASSERT_EQ(monitor.core_count(), 4u);

  const std::vector<double> detunings = {0.05, -0.2, 0.4, 0.0};
  for (std::size_t i = 0; i < detunings.size(); ++i) {
    accelerator.core(i).set_thermal_detuning(detunings[i]);
  }
  monitor.sample(1e-9);
  EXPECT_EQ(monitor.samples_taken(), 1u);
  EXPECT_DOUBLE_EQ(monitor.last_sample_time(), 1e-9);

  for (std::size_t i = 0; i < detunings.size(); ++i) {
    const double oracle = std::abs(detunings[i]);
    // One sample: the EWMA seeds at the raw inversion.  Pinned tolerance
    // 10% relative + 0.04 K absolute — transmission is quadratic in the
    // detuning near lock, so inversion resolution floors out near zero.
    EXPECT_NEAR(monitor.estimate(i), oracle, 0.1 * oracle + 0.04)
        << "core " << i;
  }
  EXPECT_NEAR(monitor.max_estimate(), 0.4, 0.05);

  // Every core's reading is what its sensors showed at the sweep.
  for (std::size_t i = 0; i < 4; ++i) {
    const core::TensorCore& core = accelerator.core(i);
    const SensorReading& reading = monitor.reading(i);
    EXPECT_EQ(reading.probe_transmission, core.probe_transmission()) << i;
    EXPECT_EQ(reading.psram_bit_flips, core.psram().bit_flips()) << i;
    EXPECT_EQ(reading.adc_saturation_rate, core.adc_saturation_rate()) << i;
    EXPECT_GE(reading.heater_duty, 0.0) << i;
    EXPECT_LE(reading.heater_duty, 1.0) << i;
  }
  // The servo duty follows the estimate: the 0.4 K core runs hottest.
  EXPECT_GT(monitor.reading(2).heater_duty, monitor.reading(0).heater_duty);

  // on_recalibration clears the run state but keeps the curves.
  monitor.on_recalibration(2e-9);
  EXPECT_EQ(monitor.estimate(2), 0.0);
  EXPECT_EQ(monitor.alerts_since_recalibration(), 0u);
  EXPECT_GE(monitor.estimator(2).curve_kelvin().size(), 2u);
}

TEST(FleetHealthMonitor, PublishesGaugesCountersAndAlertSchema) {
  runtime::AcceleratorConfig config = fleet_config(1);
  config.drift.sigma = 0.0;
  runtime::Accelerator accelerator(config);
  FleetHealthMonitor monitor(accelerator);
  telemetry::MetricsRegistry metrics;
  telemetry::Tracer tracer;
  monitor.set_metrics(&metrics);
  monitor.set_tracer(&tracer);

  // A flat baseline long enough to warm the z-score detector up (8
  // samples), then a step on core 1's probe channel -> one alert.
  for (int i = 0; i < 8; ++i) {
    monitor.sample(1e-9 * (i + 1));
  }
  accelerator.core(1).set_thermal_detuning(1.5);
  monitor.sample(9e-9);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].core, 1u);
  EXPECT_EQ(monitor.alerts()[0].name, "core1-probe-anomaly");
  EXPECT_EQ(monitor.alerts_since_recalibration(), 1u);

  EXPECT_TRUE(metrics.contains("fleet_core_detuning_estimate",
                               {{"core", "1"}}));
  EXPECT_TRUE(metrics.contains("fleet_core_probe_transmission",
                               {{"core", "1"}}));
  EXPECT_EQ(
      metrics.counter("slo_alerts_total", {{"slo", "core1-probe-anomaly"}})
          .value(),
      1.0);

  // The alert instant passes the trace linter's health_alert arg schema.
  const std::vector<std::string> problems =
      telemetry::lint_chrome_trace(tracer.chrome_json());
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(FleetHealthMonitor, EvictedCoresAreSkippedAndLeaveMaxEstimate) {
  // An evicted core's stale estimate must not keep triggering fleet-wide
  // recalibration, and sampling must not probe hardware that is out of
  // the rotation.
  runtime::AcceleratorConfig config = fleet_config(1);
  config.drift.sigma = 0.0;
  runtime::Accelerator accelerator(config);
  FleetHealthMonitor monitor(accelerator);

  accelerator.core(2).set_thermal_detuning(0.5);
  monitor.sample(1e-9);
  EXPECT_GT(monitor.max_estimate(), 0.3);

  accelerator.evict_core(2);
  EXPECT_LT(monitor.max_estimate(), 0.1);  // stale estimate masked

  // Sweeps taken while evicted leave the core's reading untouched, even
  // though its probe now reads differently.
  const SensorReading before = monitor.reading(2);
  accelerator.core(2).set_thermal_detuning(1.0);
  ASSERT_NE(accelerator.core(2).probe_transmission(),
            before.probe_transmission);
  monitor.sample(2e-9);
  EXPECT_EQ(monitor.reading(2).probe_transmission, before.probe_transmission);
  EXPECT_EQ(monitor.reading(2).heater_duty, before.heater_duty);

  accelerator.readmit_core(2);
  EXPECT_GT(monitor.max_estimate(), 0.3);  // back in the rotation
}

TEST(FleetHealthMonitor, ReadingsAreZeroBeforeTheFirstSweepAndAfterReset) {
  // FLEET:CORE<n>:HEALth? prints these readings, so "no sweep yet" must
  // read as zeros, not as whatever the sensors show right now.
  runtime::AcceleratorConfig config = fleet_config(1);
  config.drift.sigma = 0.0;
  runtime::Accelerator accelerator(config);
  Rng rng(5);
  accelerator.matmul(random_activations(2, 64, rng),
                     random_signed(64, 64, rng));  // pSRAM writes
  for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
    accelerator.core(i).set_thermal_detuning(0.3);
  }
  FleetHealthMonitor monitor(accelerator);
  const auto expect_zero = [&monitor](const char* when) {
    for (std::size_t i = 0; i < monitor.core_count(); ++i) {
      const SensorReading& reading = monitor.reading(i);
      EXPECT_EQ(reading.probe_transmission, 0.0) << when << ", core " << i;
      EXPECT_EQ(reading.heater_duty, 0.0) << when << ", core " << i;
      EXPECT_EQ(reading.psram_bit_flips, 0u) << when << ", core " << i;
      EXPECT_EQ(reading.adc_saturation_rate, 0.0) << when << ", core " << i;
    }
  };
  expect_zero("before the first sweep");

  monitor.sample(1e-9);
  for (std::size_t i = 0; i < monitor.core_count(); ++i) {
    EXPECT_GT(monitor.reading(i).probe_transmission, 0.0) << i;
    EXPECT_GT(monitor.reading(i).heater_duty, 0.0) << i;
    EXPECT_GT(monitor.reading(i).psram_bit_flips, 0u) << i;
  }

  monitor.reset();
  expect_zero("after reset()");
}

// ---------------------------------------------------------------------------
// Serving-loop integration: the oracle-free trigger
// ---------------------------------------------------------------------------

serve::ServeReport run_probing(std::size_t threads,
                               const serve::BatchPolicy& policy,
                               std::vector<double>* estimates = nullptr) {
  runtime::Accelerator accelerator(fleet_config(threads));
  serve::ModelRegistry registry(accelerator);
  Rng rng(2025);
  registry.add("vision", nn::Mlp(32, 24, 10, rng));
  serve::Server server(registry);
  const serve::LoadGenerator generator(
      {{.name = "mobile", .model = "vision", .rate = 100e6, .requests = 96}},
      7);
  serve::ServeReport report = server.run(generator.generate(registry), policy);
  if (estimates != nullptr) {
    estimates->clear();
    for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
      estimates->push_back(server.health()->estimate(i));
    }
  }
  return report;
}

TEST(ServerHealth, EstimatedTriggerClosesTheLoopOracleFree) {
  serve::BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9,
                            .probe_period = 30e-9,
                            .estimated_drift_threshold = 0.25};
  const serve::ServeReport report = run_probing(1, policy);
  EXPECT_GT(report.probes, 0u);
  EXPECT_GT(report.recalibrations, 0u);
  EXPECT_GT(report.probe_time, 0.0);
  EXPECT_LT(report.probe_overhead(), 0.05);
  // Probe accounting conserves through the fleet attribution row.
  const serve::TenantCost* fleet_row =
      serve::tenant_cost(report.tenant_costs, serve::TenantCost::kFleetTenant);
  ASSERT_NE(fleet_row, nullptr);
  EXPECT_EQ(fleet_row->probes, report.probes);
  EXPECT_EQ(fleet_row->probe_seconds, report.probe_time);
  // A threshold trigger was active, so every re-lock logged its lag.
  EXPECT_GT(report.trigger_lag.count, 0u);
  EXPECT_GT(report.trigger_lag.max, 0.0);
}

TEST(ServerHealth, EstimatedTriggerRequiresProbing) {
  runtime::Accelerator accelerator(fleet_config(1));
  serve::ModelRegistry registry(accelerator);
  Rng rng(2025);
  registry.add("vision", nn::Mlp(32, 24, 10, rng));
  serve::Server server(registry);
  const serve::LoadGenerator generator(
      {{.name = "mobile", .model = "vision", .rate = 100e6, .requests = 4}},
      7);
  serve::BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9,
                            .estimated_drift_threshold = 0.25};
  EXPECT_THROW(server.run(generator.generate(registry), policy),
               std::invalid_argument);
  policy.estimated_drift_threshold = 0.0;
  policy.recalibrate_on_anomaly = true;
  EXPECT_THROW(server.run(generator.generate(registry), policy),
               std::invalid_argument);
}

TEST(ServerHealth, ProbingRunsAreBitIdenticalAcrossHostThreadCounts) {
  serve::BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9,
                            .probe_period = 30e-9,
                            .estimated_drift_threshold = 0.25};
  std::vector<double> estimates1;
  const serve::ServeReport r1 = run_probing(1, policy, &estimates1);
  for (std::size_t threads : {2u, 8u}) {
    std::vector<double> estimates;
    const serve::ServeReport r = run_probing(threads, policy, &estimates);
    EXPECT_EQ(r.completed, r1.completed) << threads;
    EXPECT_EQ(r.recalibrations, r1.recalibrations) << threads;
    EXPECT_EQ(r.probes, r1.probes) << threads;
    EXPECT_EQ(r.health_alerts, r1.health_alerts) << threads;
    // Bitwise, not approximate: memcmp on the doubles.
    EXPECT_EQ(std::memcmp(&r.makespan, &r1.makespan, sizeof(double)), 0)
        << threads;
    EXPECT_EQ(std::memcmp(&r.probe_time, &r1.probe_time, sizeof(double)), 0)
        << threads;
    ASSERT_EQ(estimates.size(), estimates1.size());
    EXPECT_EQ(std::memcmp(estimates.data(), estimates1.data(),
                          estimates.size() * sizeof(double)),
              0)
        << threads;
    EXPECT_EQ(std::memcmp(&r.trigger_lag.mean, &r1.trigger_lag.mean,
                          sizeof(double)),
              0)
        << threads;
  }
}

TEST(ServerHealth, EstimateTracksTheOracleThroughADriftingRun) {
  // After a run with drift, the final per-core estimates sit within a
  // pinned tolerance of the oracle detuning *at the last probe instant*.
  serve::BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9,
                            .probe_period = 30e-9,
                            .estimated_drift_threshold = 1e9};  // never fires
  runtime::Accelerator accelerator(fleet_config(1));
  serve::ModelRegistry registry(accelerator);
  Rng rng(2025);
  registry.add("vision", nn::Mlp(32, 24, 10, rng));
  serve::Server server(registry);
  const serve::LoadGenerator generator(
      {{.name = "mobile", .model = "vision", .rate = 100e6, .requests = 96}},
      7);
  server.run(generator.generate(registry), policy);
  const fleet::FleetHealthMonitor* health = server.health();
  ASSERT_NE(health, nullptr);
  EXPECT_GT(health->samples_taken(), 10u);
  // Roll the oracle back to the last probe instant and compare per core.
  // (advance_to is monotone, so re-advancing to the same instant is a
  // no-op that leaves the oracle exactly where the probe read it.)
  accelerator.advance_to(health->last_sample_time());
  for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
    const double oracle = std::abs(accelerator.core(i).thermal_detuning());
    // EWMA smoothing lags a drifting walk: allow 50% relative + 0.05 K.
    EXPECT_NEAR(health->estimate(i), oracle, 0.5 * oracle + 0.05)
        << "core " << i;
  }
}

TEST(ServerHealth, ProbingAtTheSweepLatencyStillDispatches) {
  // A period equal to the sweep latency is legal.  Each sweep then ends
  // exactly when the next falls due; a period a few ulps above it rounds
  // to the same instant once the clock has grown.  Either way a ready
  // batch must win before the next sweep, or the run never ends.
  runtime::Accelerator accelerator(fleet_config(1));
  serve::ModelRegistry registry(accelerator);
  Rng rng(2025);
  registry.add("vision", nn::Mlp(32, 24, 10, rng));
  serve::Server server(registry);
  const serve::LoadGenerator generator(
      {{.name = "mobile", .model = "vision", .rate = 100e6, .requests = 8}},
      7);
  const double latency =
      accelerator.probe_cost(FleetHealthMonitor::kProbeSamples).latency;
  ASSERT_GT(latency, 0.0);
  for (const double period :
       {latency, std::nextafter(latency, 1.0), latency * (1.0 + 1e-14)}) {
    serve::BatchPolicy policy{.max_batch = 4, .max_wait = 25e-9,
                              .probe_period = period};
    const serve::ServeReport report =
        server.run(generator.generate(registry), policy);
    EXPECT_EQ(report.completed, 8u) << period;
    EXPECT_GT(report.probes, 0u) << period;
  }
}

TEST(ServerHealth, FuzzedPoliciesAndFaultSchedulesFailUpFrontOrServeAll) {
  // Seeded draws of every BatchPolicy knob and of fault schedules, from
  // edge values: each run must either throw std::invalid_argument before
  // the fleet moves, or end with every request completed or shed.
  runtime::Accelerator accelerator(fleet_config(2));
  serve::ModelRegistry registry(accelerator);
  Rng model_rng(2025);
  registry.add("vision", nn::Mlp(16, 12, 4, model_rng));
  serve::Server server(registry);
  const std::vector<serve::Request> requests =
      serve::LoadGenerator({{.name = "t", .model = "vision", .rate = 200e6,
                             .requests = 12}},
                           7)
          .generate(registry);
  const double latency =
      accelerator.probe_cost(FleetHealthMonitor::kProbeSamples).latency;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(4242);
  // One draw in ten comes from the bad set: most policies and schedules
  // stay legal and get served.
  const auto pick = [&](const auto& values) {
    return values[rng.below(values.size())];
  };
  const auto draw = [&](const auto& good, const auto& bad) {
    return rng.below(10) == 0 ? pick(bad) : pick(good);
  };
  const std::vector<double> good_seconds = {
      0.0, 1e-300, latency, std::nextafter(latency, inf), 25e-9, 1e-6, 1e3,
      inf};
  const std::vector<double> bad_seconds = {-1e-9, -inf, nan};
  const auto seconds = [&] { return draw(good_seconds, bad_seconds); };
  using Sizes = std::vector<std::size_t>;

  std::size_t served = 0;
  std::size_t refused = 0;
  std::size_t refused_schedules = 0;
  for (int round = 0; round < 300; ++round) {
    serve::BatchPolicy policy;
    policy.max_batch = draw(Sizes{1, 3, 8}, Sizes{0});
    policy.max_wait = seconds();
    policy.recalibration_period = seconds();
    policy.drift_threshold = seconds();
    policy.probe_period = seconds();
    policy.estimated_drift_threshold = rng.bernoulli(0.5) ? 0.0 : seconds();
    policy.recalibrate_on_anomaly = rng.bernoulli(0.25);
    policy.evict_on_fault = rng.bernoulli(0.5);
    policy.recalibrate_on_fault = rng.bernoulli(0.5);
    policy.degraded_queue_limit = pick(Sizes{0, 1, 4});
    // A legal run sweeps about once per probe period of modeled time, and
    // a sparse batch may wait max_wait: hold max_wait to 1000 periods.
    if (policy.probe_period > 0.0 && std::isfinite(policy.probe_period) &&
        std::isfinite(policy.max_wait)) {
      policy.max_wait = std::min(policy.max_wait, 1e3 * policy.probe_period);
    }

    std::vector<runtime::FaultEvent> schedule(rng.below(4));
    for (runtime::FaultEvent& event : schedule) {
      event.time = draw(std::vector<double>{0.0, 1e-9, 30e-9, 100e-9, -1e-9},
                        std::vector<double>{nan, inf, -inf});
      event.core = draw(Sizes{0, 1, 2, 3}, Sizes{4, 99});
      event.kind = static_cast<runtime::FaultEvent::Kind>(rng.below(4));
      event.count = pick(Sizes{0, 24, 10000});
      event.row = draw(Sizes{0, 15}, Sizes{16, 40});
      event.seed = rng.next_u64();
    }
    // Sorted half the time; otherwise in the order drawn.
    if (rng.bernoulli(0.5)) {
      std::sort(schedule.begin(), schedule.end(),
                [](const runtime::FaultEvent& a, const runtime::FaultEvent& b) {
                  return a.time < b.time;
                });
    }
    server.set_fault_schedule({});
    try {
      server.set_fault_schedule(schedule);
    } catch (const std::invalid_argument&) {
      ++refused_schedules;  // the empty schedule stays attached
    }

    const std::size_t matmuls = accelerator.stats().matmuls;
    const std::size_t faults = accelerator.faults_injected();
    const std::string resident = registry.resident_model();
    std::vector<double> detunings;
    for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
      detunings.push_back(accelerator.core(i).thermal_detuning());
    }
    try {
      const serve::ServeReport report = server.run(requests, policy);
      EXPECT_EQ(report.completed + report.shed, requests.size())
          << "round " << round;
      ++served;
    } catch (const std::invalid_argument&) {
      ++refused;
      EXPECT_EQ(accelerator.stats().matmuls, matmuls) << "round " << round;
      EXPECT_EQ(accelerator.faults_injected(), faults) << "round " << round;
      EXPECT_EQ(registry.resident_model(), resident) << "round " << round;
      for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
        EXPECT_EQ(accelerator.core(i).thermal_detuning(), detunings[i])
            << "round " << round << " core " << i;
      }
    }
  }
  // The draws reach every outcome, often.
  EXPECT_GT(served, 100u);
  EXPECT_GT(refused, 50u);
  EXPECT_GT(refused_schedules, 50u);
}

}  // namespace
