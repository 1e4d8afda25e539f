// Variation/drift subsystem: seeded determinism of core::VariationModel,
// fast-path-vs-physics bit-identity per frozen calibration epoch, accuracy
// recovery after recalibrate(), and the serve loop's drift/recalibration
// accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "core/variation.hpp"
#include "core/vector_macro.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "sim/montecarlo.hpp"

namespace {

using namespace ptc;
using namespace ptc::core;

VariationConfig test_variation(std::uint64_t seed) {
  VariationConfig v;
  v.seed = seed;
  v.resonance_sigma = 4e-12;
  v.q_spread = 0.03;
  v.coupling_spread = 0.02;
  v.psram_level_sigma = 10e-3;
  v.thermal_sensitivity_spread = 0.1;
  return v;
}

TensorCoreConfig small_core(std::uint64_t seed, bool fast_path) {
  TensorCoreConfig config;
  config.rows = 4;
  config.cols = 4;
  config.fast_path = fast_path;
  config.variation = test_variation(seed);
  return config;
}

std::vector<std::vector<std::uint32_t>> test_weights() {
  return {{0, 7, 3, 5}, {1, 2, 6, 4}, {7, 7, 0, 1}, {2, 5, 5, 3}};
}

const std::vector<double> kProbeInput{0.9, 0.2, 0.65, 0.4};

// ---------------------------------------------------------------------------
// VariationModel
// ---------------------------------------------------------------------------

TEST(VariationModel, SamplingIsDeterministicPerSeed) {
  const VariationModel model(test_variation(11));
  Rng a(11), b(11);
  for (int i = 0; i < 16; ++i) {
    const auto da = model.sample_ring(a);
    const auto db = model.sample_ring(b);
    EXPECT_EQ(da.resonance_error, db.resonance_error);
    EXPECT_EQ(da.loss_scale, db.loss_scale);
    EXPECT_EQ(da.coupling_scale, db.coupling_scale);
    EXPECT_EQ(da.bias_offset, db.bias_offset);
    EXPECT_EQ(da.thermal_scale, db.thermal_scale);
  }
}

TEST(VariationModel, ZeroSeedDisablesVariation) {
  EXPECT_FALSE(VariationModel(test_variation(0)).enabled());
  EXPECT_TRUE(VariationModel(test_variation(9)).enabled());
}

TEST(VariationModel, ChildSeedsAreDistinctAndNeverZero) {
  const VariationModel model(test_variation(5));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t s = model.child_seed(i);
    EXPECT_NE(s, 0u);
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 64u);
}

TEST(VariationModel, RejectsNegativeSigmas) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double VariationConfig::*field :
       {&VariationConfig::resonance_sigma, &VariationConfig::q_spread,
        &VariationConfig::coupling_spread, &VariationConfig::psram_level_sigma,
        &VariationConfig::thermal_sensitivity_spread}) {
    for (const double value : {-1.0, nan, inf}) {
      VariationConfig bad = test_variation(1);
      bad.*field = value;
      EXPECT_THROW(VariationModel{bad}, std::invalid_argument) << value;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded device determinism
// ---------------------------------------------------------------------------

TEST(Variation, SameSeedBuildsTheSameDie) {
  TensorCore a(small_core(21, true));
  TensorCore b(small_core(21, true));
  a.load_weights(test_weights());
  b.load_weights(test_weights());
  const auto ya = a.multiply_analog(kProbeInput);
  const auto yb = b.multiply_analog(kProbeInput);
  EXPECT_EQ(ya, yb);
}

TEST(Variation, DistinctSeedsBuildDistinctDies) {
  TensorCore a(small_core(21, true));
  TensorCore b(small_core(22, true));
  a.load_weights(test_weights());
  b.load_weights(test_weights());
  EXPECT_NE(a.multiply_analog(kProbeInput), b.multiply_analog(kProbeInput));
}

TEST(Variation, VariedDieDeviatesFromThePristineDesign) {
  TensorCore pristine(small_core(0, true));
  TensorCore varied(small_core(21, true));
  pristine.load_weights(test_weights());
  varied.load_weights(test_weights());
  EXPECT_NE(pristine.multiply_analog(kProbeInput),
            varied.multiply_analog(kProbeInput));
}

// ---------------------------------------------------------------------------
// Fast-path-vs-physics bit identity per frozen calibration epoch
// ---------------------------------------------------------------------------

TEST(Variation, FastPathMatchesPhysicsBitForBitOnAVariedDie) {
  TensorCore fast(small_core(33, true));
  TensorCore physics(small_core(33, false));
  fast.load_weights(test_weights());
  physics.load_weights(test_weights());
  ASSERT_TRUE(fast.fast_path_active());
  ASSERT_FALSE(physics.fast_path_active());
  EXPECT_EQ(fast.multiply_analog(kProbeInput),
            physics.multiply_analog(kProbeInput));
}

TEST(Variation, FastPathTracksPhysicsAtEveryDetuning) {
  TensorCore fast(small_core(33, true));
  TensorCore physics(small_core(33, false));
  fast.load_weights(test_weights());
  physics.load_weights(test_weights());
  for (double detuning : {0.15, -0.4, 0.8}) {
    fast.set_thermal_detuning(detuning);
    physics.set_thermal_detuning(detuning);
    EXPECT_EQ(fast.multiply_analog(kProbeInput),
              physics.multiply_analog(kProbeInput));
  }
}

TEST(Variation, DetuningPerturbsAndRecalibrationRestoresBitForBit) {
  TensorCore core(small_core(33, true));
  core.load_weights(test_weights());
  const auto calibrated = core.multiply_analog(kProbeInput);
  EXPECT_EQ(core.calibration_epoch(), 0u);

  core.set_thermal_detuning(0.5);
  const auto drifted = core.multiply_analog(kProbeInput);
  EXPECT_NE(drifted, calibrated);

  core.recalibrate();
  EXPECT_EQ(core.calibration_epoch(), 1u);
  EXPECT_EQ(core.thermal_detuning(), 0.0);
  // Heater re-lock returns the die to the calibrated operating point: the
  // recovered outputs are bit-identical to the pre-drift epoch.
  EXPECT_EQ(core.multiply_analog(kProbeInput), calibrated);
}

TEST(Variation, ReloadUnderDetuningRefreshesTheCalibration) {
  TensorCore core(small_core(33, true));
  TensorCore oracle(small_core(33, false));
  core.load_weights(test_weights());
  core.set_thermal_detuning(0.3);
  // A weight reload while detuned must calibrate against the detuned
  // physics, not recall the detuning-0 memo entry.
  core.load_weights(test_weights());
  oracle.load_weights(test_weights());
  oracle.set_thermal_detuning(0.3);
  EXPECT_EQ(core.multiply_analog(kProbeInput),
            oracle.multiply_analog(kProbeInput));
}

// ---------------------------------------------------------------------------
// Accelerator drift / recalibration state
// ---------------------------------------------------------------------------

runtime::AcceleratorConfig drift_fleet(double sigma) {
  runtime::AcceleratorConfig config;
  config.cores = 2;
  config.core.rows = 8;
  config.core.cols = 8;
  config.variation = test_variation(42);
  config.drift.sigma = sigma;
  config.drift.tau = 1e-6;
  return config;
}

TEST(AcceleratorDrift, AdvanceToMovesEveryCoreDeterministically) {
  runtime::Accelerator a(drift_fleet(0.5));
  runtime::Accelerator b(drift_fleet(0.5));
  EXPECT_TRUE(a.drift_enabled());
  EXPECT_EQ(a.max_abs_detuning(), 0.0);

  a.advance_to(1e-6);
  b.advance_to(1e-6);
  EXPECT_GT(a.max_abs_detuning(), 0.0);
  for (std::size_t i = 0; i < a.core_count(); ++i) {
    EXPECT_EQ(a.core(i).thermal_detuning(), b.core(i).thermal_detuning());
  }
  // Cores drift through independent streams.
  EXPECT_NE(a.core(0).thermal_detuning(), a.core(1).thermal_detuning());

  // Monotonic clock: rewinding is a no-op.
  const double detuning = a.core(0).thermal_detuning();
  a.advance_to(0.5e-6);
  EXPECT_EQ(a.core(0).thermal_detuning(), detuning);
  EXPECT_EQ(a.clock(), 1e-6);
}

TEST(AcceleratorDrift, DisabledDriftIsANoOp) {
  runtime::Accelerator accelerator(drift_fleet(0.0));
  EXPECT_FALSE(accelerator.drift_enabled());
  accelerator.advance_to(1.0);
  EXPECT_EQ(accelerator.max_abs_detuning(), 0.0);
  EXPECT_EQ(accelerator.clock(), 0.0);
}

TEST(AcceleratorDrift, RecalibrateRelocksAndBillsDowntime) {
  runtime::Accelerator accelerator(drift_fleet(0.5));
  accelerator.advance_to(2e-6);
  ASSERT_GT(accelerator.max_abs_detuning(), 0.0);

  const runtime::BatchCost downtime = accelerator.recalibrate();
  EXPECT_EQ(accelerator.max_abs_detuning(), 0.0);
  EXPECT_EQ(accelerator.recalibrations(), 1u);
  for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
    EXPECT_EQ(accelerator.core(i).calibration_epoch(), 1u);
  }
  // One probe residency per core, costed like a cold serving batch.
  const runtime::BatchCost expected =
      accelerator.batch_cost(accelerator.core_count(), 0,
                             runtime::Accelerator::kRecalibrationSamples);
  EXPECT_EQ(downtime.latency, expected.latency);
  EXPECT_GT(downtime.latency, 0.0);
}

TEST(AcceleratorDrift, ResetDriftRewindsTheTrajectory) {
  runtime::Accelerator accelerator(drift_fleet(0.5));
  accelerator.advance_to(1e-6);
  const double first = accelerator.core(0).thermal_detuning();
  accelerator.reset_drift();
  EXPECT_EQ(accelerator.max_abs_detuning(), 0.0);
  EXPECT_EQ(accelerator.clock(), 0.0);
  accelerator.advance_to(1e-6);
  EXPECT_EQ(accelerator.core(0).thermal_detuning(), first);
}

// ---------------------------------------------------------------------------
// Serve-loop drift / recalibration accounting
// ---------------------------------------------------------------------------

TEST(ServeDrift, PolicyTriggersRecalibrationAndAccountsDowntime) {
  runtime::AcceleratorConfig config;
  config.cores = 2;
  config.variation = test_variation(42);
  config.drift.sigma = 0.5;
  config.drift.tau = 1e-6;
  runtime::Accelerator accelerator(config);
  serve::ModelRegistry registry(accelerator);
  Rng rng(3);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  serve::Server server(registry);

  const serve::LoadGenerator generator(
      {{.name = "t", .model = "m", .rate = 200e6, .requests = 48}}, 99);
  const std::vector<serve::Request> requests = generator.generate(registry);

  const serve::BatchPolicy no_recal{.max_batch = 4, .max_wait = 10e-9};
  const serve::BatchPolicy threshold{
      .max_batch = 4, .max_wait = 10e-9, .drift_threshold = 0.05};

  const serve::ServeReport baseline = server.run(requests, no_recal);
  EXPECT_EQ(baseline.recalibrations, 0u);
  EXPECT_EQ(baseline.recalibration_time, 0.0);
  EXPECT_GT(baseline.max_abs_detuning, 0.0);

  const serve::ServeReport recal = server.run(requests, threshold);
  EXPECT_GT(recal.recalibrations, 0u);
  EXPECT_GT(recal.recalibration_time, 0.0);
  // Downtime is real: the same trace takes longer under recalibration.
  EXPECT_GT(recal.makespan, baseline.makespan);
  // The re-locks bound the detuning the batches actually saw.
  EXPECT_LT(recal.max_abs_detuning, baseline.max_abs_detuning);

  // Accuracy accounting is consistent.
  EXPECT_TRUE(recal.accuracy_scored);
  EXPECT_LE(recal.reference_matches, recal.requests.size());
  EXPECT_GE(recal.accuracy(), 0.0);
  EXPECT_LE(recal.accuracy(), 1.0);
  std::size_t matches = 0;
  for (const serve::RequestRecord& r : recal.requests) {
    matches += r.matches_reference ? 1u : 0u;
  }
  EXPECT_EQ(matches, recal.reference_matches);

  // Batch records carry the drift telemetry.
  bool epoch_advanced = false;
  for (const serve::BatchRecord& b : recal.batches) {
    EXPECT_LE(b.detuning, recal.max_abs_detuning);
    if (b.epoch > 0) epoch_advanced = true;
  }
  EXPECT_TRUE(epoch_advanced);

  // Identical run, identical report: drift state resets per run.
  const serve::ServeReport again = server.run(requests, threshold);
  EXPECT_EQ(again.recalibrations, recal.recalibrations);
  EXPECT_EQ(again.reference_matches, recal.reference_matches);
  EXPECT_EQ(again.makespan, recal.makespan);
}

TEST(ServeDrift, OracleTriggerReportsAZeroLagAsZero) {
  // The oracle threshold trigger mostly re-locks at the very dispatch
  // instant that first sees a core past the threshold: a lag of exactly
  // zero, which the report must not round up to a histogram bucket edge.
  // Some crossings wait out a re-lock's downtime, so the lags also vary.
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.variation.seed = 42;
  config.drift.sigma = 0.5;
  config.drift.tau = 1e-6;
  runtime::Accelerator accelerator(config);
  serve::ModelRegistry registry(accelerator);
  Rng rng(3);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  serve::Server server(registry);
  const serve::LoadGenerator generator(
      {{.name = "t", .model = "m", .rate = 100e6, .requests = 48}}, 99);

  const serve::ServeReport report =
      server.run(generator.generate(registry),
                 {.max_batch = 8, .max_wait = 20e-9, .drift_threshold = 0.10});
  ASSERT_GT(report.trigger_lag.count, 0u);
  EXPECT_GT(report.trigger_lag.max, 0.0);
  EXPECT_EQ(report.trigger_lag.p50, 0.0);
}

TEST(ServeDrift, DriftFreeFleetReportsNoDriftTelemetry) {
  // Varied (so the run scores accuracy) but drift-free fleet.
  runtime::AcceleratorConfig config;
  config.cores = 2;
  config.variation = test_variation(42);
  runtime::Accelerator accelerator(config);
  // Analog readout: without the 3-bit ADC in the loop the varied fleet
  // should still agree with the float reference predominantly.
  nn::PhotonicBackendOptions options;
  options.quantize_output = false;
  options.differential_weights = true;
  serve::ModelRegistry registry(accelerator, options);
  Rng rng(3);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  serve::Server server(registry);
  const serve::LoadGenerator generator(
      {{.name = "t", .model = "m", .rate = 200e6, .requests = 16}}, 99);
  const serve::ServeReport report = server.run(
      generator.generate(registry), {.max_batch = 4, .max_wait = 10e-9});
  EXPECT_EQ(report.recalibrations, 0u);
  EXPECT_EQ(report.max_abs_detuning, 0.0);
  EXPECT_TRUE(report.accuracy_scored);
  // 3-bit *weights* still quantize, so exact agreement is not guaranteed —
  // but a varied drift-free analog fleet matches the reference
  // predominantly.
  EXPECT_GT(report.accuracy(), 0.6);
}

// ---------------------------------------------------------------------------
// Monte-Carlo tie-in: fleet yield over fabrication seeds
// ---------------------------------------------------------------------------

TEST(VariationYield, MonteCarloOverSeedsIsReproducible) {
  const auto trial = [](Rng& rng) {
    TensorCoreConfig config = small_core(0, true);
    config.variation.seed = rng.next_u64() | 1;
    TensorCore core(config);
    core.load_weights(test_weights());
    const auto analog = core.multiply_analog(kProbeInput);
    const auto reference = core.reference(kProbeInput);
    double worst = 0.0;
    for (std::size_t r = 0; r < analog.size(); ++r) {
      worst = std::max(worst, std::abs(analog[r] - reference[r]));
    }
    return worst;
  };
  const auto pass = [](double worst) { return worst < 0.05; };

  const sim::MonteCarloSummary a = sim::run_monte_carlo(24, 777, trial, pass);
  const sim::MonteCarloSummary b = sim::run_monte_carlo(24, 777, trial, pass);
  EXPECT_EQ(a.trials, 24u);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.yield, b.yield);
  EXPECT_GT(a.mean, 0.0);
  EXPECT_GE(a.yield, 0.5);  // the default spreads are production-grade
}

}  // namespace
