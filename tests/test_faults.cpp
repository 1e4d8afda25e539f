// Hard-fault model and fault-tolerant scheduling: seeded device faults
// (dead rings, stuck heaters, dead ADC ladders, pSRAM endurance wear-out)
// keep the fast path bit-identical to the physics oracle; the self-test
// classifies core health; FAILED-core eviction remaps the tile schedule
// bit-identically to a healthy fleet of the surviving size; and the serve
// loop replays fault schedules deterministically on modeled time, billing
// every self-test to the (fleet) attribution row.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/fault.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/fault.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace {

using namespace ptc;
using core::FaultModel;
using core::RingFaultKind;
using core::RingFaultSite;
using runtime::Accelerator;
using runtime::AcceleratorConfig;
using runtime::CoreHealth;
using runtime::FaultEvent;

// ---------------------------------------------------------------------------
// core::FaultModel
// ---------------------------------------------------------------------------

TEST(FaultModel, SampledRingSitesAreDistinctInBoundsAndSeeded) {
  const std::size_t rows = 16, cols = 16;
  const unsigned bits = 6;
  const std::vector<RingFaultSite> sites =
      FaultModel::sample_ring_faults(rows, cols, bits, 24, 905);
  ASSERT_EQ(sites.size(), 24u);
  std::set<std::tuple<std::size_t, std::size_t, unsigned>> seen;
  std::size_t stuck_on = 0;
  for (const RingFaultSite& site : sites) {
    EXPECT_LT(site.row, rows);
    EXPECT_LT(site.col, cols);
    EXPECT_LT(site.bit, bits);
    EXPECT_NE(site.kind, RingFaultKind::kNone);
    if (site.kind == RingFaultKind::kStuckOn) ++stuck_on;
    seen.insert({site.row, site.col, site.bit});
  }
  EXPECT_EQ(seen.size(), sites.size());  // no ring faulted twice
  // The sampler alternates stuck-ON / stuck-OFF so a cluster corrupts in
  // both directions.
  EXPECT_EQ(stuck_on, 12u);

  // Pure function of the arguments; a different seed lands elsewhere.
  const std::vector<RingFaultSite> again =
      FaultModel::sample_ring_faults(rows, cols, bits, 24, 905);
  ASSERT_EQ(again.size(), sites.size());
  bool identical = true;
  bool differs_from_other_seed = false;
  const std::vector<RingFaultSite> other =
      FaultModel::sample_ring_faults(rows, cols, bits, 24, 906);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    identical = identical && again[i].row == sites[i].row &&
                again[i].col == sites[i].col && again[i].bit == sites[i].bit &&
                again[i].kind == sites[i].kind;
    differs_from_other_seed =
        differs_from_other_seed || other[i].row != sites[i].row ||
        other[i].col != sites[i].col || other[i].bit != sites[i].bit;
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(differs_from_other_seed);
}

// ---------------------------------------------------------------------------
// core::TensorCore under injected faults
// ---------------------------------------------------------------------------

core::TensorCoreConfig core_config(bool fast_path) {
  core::TensorCoreConfig config;
  config.fast_path = fast_path;
  return config;
}

TEST(CoreFaults, FastPathBitIdenticalToPhysicsUnderAnyFaultSet) {
  // Faults land at the ring-bias level and drop the fast path's
  // transmission table, so the calibrated fast path and the spectral
  // physics walk must stay bit-identical under dead rings and dead ADC
  // ladders alike.
  Rng rng(404);
  const Matrix x = random_activations(6, 16, rng);
  const Matrix w = random_signed(16, 16, rng);

  core::TensorCore fast_core(core_config(true));
  core::TensorCore physics_core(core_config(false));
  const std::vector<RingFaultSite> sites = FaultModel::sample_ring_faults(
      fast_core.rows(), fast_core.cols(), fast_core.weight_bits(), 12, 7);
  fast_core.inject_ring_faults(sites);
  physics_core.inject_ring_faults(sites);
  fast_core.inject_adc_fault(3);
  physics_core.inject_adc_fault(3);

  nn::PhotonicBackendOptions options;  // quantized full-hardware path
  nn::PhotonicBackend fast(fast_core, options);
  nn::PhotonicBackend physics(physics_core, options);
  const Matrix y_fast = fast.matmul(x, w);
  EXPECT_EQ(y_fast.max_abs_diff(physics.matmul(x, w)), 0.0);
  EXPECT_TRUE(fast_core.fast_path_active());

  // The faults corrupt the result: a clean pair of cores disagrees.
  core::TensorCore clean_core(core_config(true));
  nn::PhotonicBackend clean(clean_core, options);
  EXPECT_GT(y_fast.max_abs_diff(clean.matmul(x, w)), 0.0);
}

TEST(CoreFaults, StuckHeaterFreezesDetuningUntilCleared) {
  core::TensorCore core(core_config(true));
  core.set_thermal_detuning(0.3);
  core.inject_stuck_heater();
  EXPECT_TRUE(core.heater_stuck());
  core.set_thermal_detuning(0.0);  // servo has no authority
  EXPECT_DOUBLE_EQ(core.thermal_detuning(), 0.3);
  core.recalibrate();  // re-lock is ignored too
  EXPECT_DOUBLE_EQ(core.thermal_detuning(), 0.3);

  core.clear_faults();
  EXPECT_FALSE(core.heater_stuck());
  core.set_thermal_detuning(0.0);
  EXPECT_DOUBLE_EQ(core.thermal_detuning(), 0.0);
}

TEST(CoreFaults, AdcFaultAndDeadRingsShowUpInTheSelfTest) {
  core::TensorCore core(core_config(true));
  const core::TensorCore::SelfTestResult healthy = core.self_test(8, 2026);
  EXPECT_EQ(healthy.stuck_adc_rows, 0u);
  EXPECT_TRUE(healthy.heater_locked);
  EXPECT_DOUBLE_EQ(healthy.endurance_remaining, 1.0);

  core.inject_adc_fault(5);
  EXPECT_TRUE(core.adc_faulted(5));
  EXPECT_EQ(core.adc_fault_count(), 1u);
  const core::TensorCore::SelfTestResult sick = core.self_test(8, 2026);
  EXPECT_EQ(sick.stuck_adc_rows, 1u);

  core.inject_ring_faults(FaultModel::sample_ring_faults(
      core.rows(), core.cols(), core.weight_bits(), 64, 11));
  EXPECT_EQ(core.ring_fault_count(), 64u);
  const core::TensorCore::SelfTestResult corrupted = core.self_test(8, 2026);
  EXPECT_GT(corrupted.max_row_error, sick.max_row_error);

  core.clear_faults();
  EXPECT_EQ(core.ring_fault_count(), 0u);
  EXPECT_EQ(core.adc_fault_count(), 0u);
}

TEST(CoreFaults, EnduranceWearOutIsPhysicalAndPersistsClearFaults) {
  core::TensorCoreConfig config = core_config(true);
  config.fault.seed = 77;
  config.fault.psram_endurance_median = 6.0;  // cells die within a few loads
  config.fault.psram_endurance_spread = 0.25;
  core::TensorCore core(config);
  ASSERT_TRUE(core.psram().endurance_enabled());
  EXPECT_DOUBLE_EQ(core.psram().endurance_remaining(), 1.0);

  Rng rng(5);
  for (int i = 0; i < 24; ++i) {
    // Alternating random patterns keep flipping bits against the budget.
    core.load_weights_normalized(
        random_activations(core.rows(), core.cols(), rng));
  }
  EXPECT_LT(core.psram().endurance_remaining(), 1.0);
  EXPECT_GT(core.psram().write_errors(), 0u);
  const core::TensorCore::SelfTestResult worn = core.self_test(8, 2026);
  EXPECT_GT(worn.psram_failed_cells, 0u);
  EXPECT_LT(worn.endurance_remaining, 1.0);

  // clear_faults releases injected faults only — wear is physical damage.
  const std::uint64_t errors_before = core.psram().write_errors();
  core.clear_faults();
  EXPECT_EQ(core.psram().write_errors(), errors_before);
  EXPECT_LT(core.psram().endurance_remaining(), 1.0);
}

// ---------------------------------------------------------------------------
// runtime::Accelerator: fault registry, self-test, eviction
// ---------------------------------------------------------------------------

TEST(FaultRegistry, SelfTestClassifiesInjectedFaults) {
  Accelerator accelerator({.cores = 4});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(accelerator.core_health(i), CoreHealth::kOk);
    EXPECT_FALSE(accelerator.core_evicted(i));
  }
  EXPECT_EQ(accelerator.run_self_test(0), CoreHealth::kOk);
  EXPECT_GT(accelerator.self_test_cost().latency, 0.0);

  // A 64-ring cluster corrupts well past the fail bar.
  accelerator.inject({.core = 1, .kind = FaultEvent::Kind::kDeadRings,
                      .count = 64, .seed = 3});
  EXPECT_EQ(accelerator.run_self_test(1), CoreHealth::kFailed);
  EXPECT_EQ(accelerator.core_health(1), CoreHealth::kFailed);

  // A stuck heater cannot re-lock: FAILED regardless of the current error.
  accelerator.inject({.core = 2, .kind = FaultEvent::Kind::kStuckHeater});
  EXPECT_EQ(accelerator.run_self_test(2), CoreHealth::kFailed);

  // One dead ADC ladder zeroes a full output row.
  accelerator.inject({.core = 3, .kind = FaultEvent::Kind::kAdcLadder,
                      .row = 4});
  EXPECT_EQ(accelerator.run_self_test(3), CoreHealth::kFailed);

  EXPECT_EQ(accelerator.faults_injected(), 3u);

  // Field repair: CLEAR + re-test heals each core back to OK.
  for (std::size_t i = 1; i < 4; ++i) {
    accelerator.inject({.core = i, .kind = FaultEvent::Kind::kClear});
    EXPECT_EQ(accelerator.run_self_test(i), CoreHealth::kOk) << i;
  }
  EXPECT_EQ(accelerator.faults_injected(), 3u);  // repairs are not faults
}

TEST(FaultRegistry, EvictedFleetIsBitIdenticalToHealthyFleetOfSurvivingSize) {
  Rng rng(77);
  const Matrix x = random_activations(9, 48, rng);
  const Matrix w = random_signed(48, 32, rng);
  nn::PhotonicBackendOptions options;

  // Uniform dies: evicting any one core must reproduce a 3-core fleet.
  Accelerator faulted({.cores = 4});
  faulted.inject({.core = 1, .kind = FaultEvent::Kind::kDeadRings,
                  .count = 64, .seed = 9});
  ASSERT_EQ(faulted.run_self_test(1), CoreHealth::kFailed);
  faulted.evict_core(1);
  EXPECT_EQ(faulted.active_core_count(), 3u);
  EXPECT_EQ(faulted.evicted_count(), 1u);

  Accelerator healthy({.cores = 3});
  EXPECT_EQ(faulted.matmul(x, w, options).max_abs_diff(
                healthy.matmul(x, w, options)),
            0.0);
  // Modeled cost too: the schedule really is a 3-core schedule.
  const runtime::BatchCost faulted_cost = faulted.batch_cost(6, 2, 16);
  const runtime::BatchCost healthy_cost = healthy.batch_cost(6, 2, 16);
  EXPECT_DOUBLE_EQ(faulted_cost.latency, healthy_cost.latency);
  EXPECT_DOUBLE_EQ(faulted_cost.busy, healthy_cost.busy);
  EXPECT_EQ(faulted_cost.reloads, healthy_cost.reloads);

  // Variation-aware dies: core i is the same die at any fleet size, so
  // evicting the tail cores reproduces the smaller variation fleet.
  AcceleratorConfig varied;
  varied.cores = 4;
  varied.variation.seed = 42;
  Accelerator tail_evicted(varied);
  tail_evicted.inject({.core = 3, .kind = FaultEvent::Kind::kStuckHeater});
  ASSERT_EQ(tail_evicted.run_self_test(3), CoreHealth::kFailed);
  tail_evicted.evict_core(3);

  AcceleratorConfig smaller = varied;
  smaller.cores = 3;
  Accelerator varied_healthy(smaller);
  EXPECT_EQ(tail_evicted.matmul(x, w, options).max_abs_diff(
                varied_healthy.matmul(x, w, options)),
            0.0);
}

TEST(FaultRegistry, RecalibrateSkipsFailedCoresAndRelocksTheRest) {
  Accelerator accelerator({.cores = 4});
  // Freeze core 2 off lock, then detune the others by hand.
  accelerator.core(2).set_thermal_detuning(0.4);
  accelerator.inject({.core = 2, .kind = FaultEvent::Kind::kStuckHeater});
  ASSERT_EQ(accelerator.run_self_test(2), CoreHealth::kFailed);
  for (const std::size_t i : {0u, 1u, 3u}) {
    accelerator.core(i).set_thermal_detuning(0.2);
  }

  const runtime::BatchCost downtime = accelerator.recalibrate();
  EXPECT_GT(downtime.latency, 0.0);
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_DOUBLE_EQ(accelerator.core(i).thermal_detuning(), 0.0) << i;
  }
  // The FAILED core was skipped: its frozen detuning is untouched.
  EXPECT_DOUBLE_EQ(accelerator.core(2).thermal_detuning(), 0.4);

  // A fleet whose every active core is FAILED has nothing to re-lock.
  Accelerator dead({.cores = 2});
  dead.inject({.core = 0, .kind = FaultEvent::Kind::kStuckHeater});
  dead.inject({.core = 1, .kind = FaultEvent::Kind::kStuckHeater});
  ASSERT_EQ(dead.run_self_test(0), CoreHealth::kFailed);
  ASSERT_EQ(dead.run_self_test(1), CoreHealth::kFailed);
  const runtime::BatchCost none = dead.recalibrate();
  EXPECT_DOUBLE_EQ(none.latency, 0.0);
  EXPECT_EQ(none.reloads, 0u);
}

TEST(FaultRegistry, EvictionGuardsAndResetFaults) {
  Accelerator accelerator({.cores = 2});
  EXPECT_THROW(accelerator.evict_core(7), std::invalid_argument);
  accelerator.evict_core(0);
  EXPECT_THROW(accelerator.evict_core(0), std::invalid_argument);  // twice
  EXPECT_THROW(accelerator.evict_core(1), std::invalid_argument);  // last one
  EXPECT_THROW(accelerator.readmit_core(1), std::invalid_argument);
  accelerator.readmit_core(0);
  EXPECT_EQ(accelerator.active_core_count(), 2u);

  accelerator.inject({.core = 1, .kind = FaultEvent::Kind::kDeadRings,
                      .count = 64, .seed = 5});
  accelerator.run_self_test(1);
  accelerator.evict_core(1);
  accelerator.reset_faults();
  EXPECT_EQ(accelerator.active_core_count(), 2u);
  EXPECT_EQ(accelerator.core_health(1), CoreHealth::kOk);
  EXPECT_EQ(accelerator.faults_injected(), 0u);
  EXPECT_EQ(accelerator.core(1).ring_fault_count(), 0u);
}

// ---------------------------------------------------------------------------
// runtime::poisson_fault_schedule
// ---------------------------------------------------------------------------

TEST(PoissonFaults, ScheduleIsDeterministicSortedAndRateScaled) {
  const std::vector<FaultEvent> schedule =
      runtime::poisson_fault_schedule(6e6, 2.0e-6, 8, 905);
  EXPECT_GT(schedule.size(), 4u);  // ~12 expected events
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].time, 0.0);
    EXPECT_LT(schedule[i].time, 2.0e-6);
    EXPECT_LT(schedule[i].core, 8u);
    EXPECT_NE(schedule[i].kind, FaultEvent::Kind::kClear);
    if (i > 0) {
      EXPECT_GE(schedule[i].time, schedule[i - 1].time);
    }
  }

  const std::vector<FaultEvent> again =
      runtime::poisson_fault_schedule(6e6, 2.0e-6, 8, 905);
  ASSERT_EQ(again.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].time, schedule[i].time);
    EXPECT_EQ(again[i].core, schedule[i].core);
    EXPECT_EQ(again[i].kind, schedule[i].kind);
  }

  EXPECT_TRUE(runtime::poisson_fault_schedule(0.0, 2.0e-6, 8, 905).empty());
  EXPECT_GT(runtime::poisson_fault_schedule(20e6, 2.0e-6, 8, 905).size(),
            schedule.size());
}

TEST(PoissonFaults, AdcRowIsDrawnPerEventNotPinnedToRowZero) {
  // Regression: the generator used to leave every ADC-ladder strike on the
  // default row 0.  Rows must now be seeded draws — in range, spread
  // across the ladder, and reproducible.
  const std::vector<FaultEvent> schedule =
      runtime::poisson_fault_schedule(40e6, 4.0e-6, 8, 905, 16);
  std::size_t adc_events = 0;
  std::vector<std::size_t> row_hits(16, 0);
  for (const FaultEvent& event : schedule) {
    EXPECT_LT(event.row, 16u);
    if (event.kind == FaultEvent::Kind::kAdcLadder) {
      ++adc_events;
      ++row_hits[event.row];
    }
  }
  ASSERT_GT(adc_events, 8u);  // ~40 expected ADC strikes at this rate

  // Uniform draws over 16 rows cannot concentrate: row 0 is no longer a
  // sink, and the strikes touch a healthy fraction of the ladder.
  EXPECT_LT(row_hits[0], adc_events);
  std::size_t distinct_rows = 0;
  for (const std::size_t hits : row_hits) distinct_rows += hits > 0 ? 1 : 0;
  EXPECT_GE(distinct_rows, 6u);

  // Seeded: the row sequence is part of the deterministic stream.
  const std::vector<FaultEvent> again =
      runtime::poisson_fault_schedule(40e6, 4.0e-6, 8, 905, 16);
  ASSERT_EQ(again.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(again[i].row, schedule[i].row);
  }

  // A different ladder geometry stays in range too.
  for (const FaultEvent& event :
       runtime::poisson_fault_schedule(40e6, 2.0e-6, 8, 905, 4)) {
    EXPECT_LT(event.row, 4u);
  }
  EXPECT_THROW(runtime::poisson_fault_schedule(1e6, 1e-6, 8, 905, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// serve::Server: fault replay, billing, shedding, determinism
// ---------------------------------------------------------------------------

serve::ServeReport run_fault_scenario(
    std::size_t threads, const serve::BatchPolicy& policy,
    const std::vector<FaultEvent>& schedule) {
  AcceleratorConfig config;
  config.cores = 4;
  config.threads = threads;
  config.core.weight_bits = 6;
  config.variation.seed = 42;
  Accelerator accelerator(config);
  nn::PhotonicBackendOptions options;
  options.quantize_output = false;
  options.differential_weights = true;
  serve::ModelRegistry registry(accelerator, options);
  Rng rng(7);
  registry.add("mlp", nn::Mlp(32, 16, 10, rng));
  serve::Server server(registry);
  server.set_fault_schedule(schedule);
  const serve::LoadGenerator generator(
      {{.name = "t", .model = "mlp", .rate = 100e6, .requests = 96}}, 1234);
  return server.run(generator.generate(registry), policy);
}

TEST(ServerFaults, ReplayEvictsBillsTheFleetRowAndReadmitsOnRepair) {
  // One early hard fault, one late field repair: the run must evict the
  // FAILED core, bill both self-tests as fleet downtime, and readmit the
  // repaired core into the rotation.
  const std::vector<FaultEvent> schedule = {
      {.time = 5e-9, .core = 1, .kind = FaultEvent::Kind::kDeadRings,
       .count = 64, .seed = 3},
      {.time = 600e-9, .core = 1, .kind = FaultEvent::Kind::kClear},
  };
  const serve::BatchPolicy policy{.max_batch = 8, .max_wait = 20e-9,
                                  .evict_on_fault = true,
                                  .recalibrate_on_fault = true};
  const serve::ServeReport report = run_fault_scenario(1, policy, schedule);

  EXPECT_EQ(report.faults, 1u);  // the CLEAR repair is not a fault
  EXPECT_EQ(report.core_evictions, 1u);
  EXPECT_EQ(report.core_readmissions, 1u);
  EXPECT_GT(report.fault_time, 0.0);
  EXPECT_EQ(report.completed, 96u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_DOUBLE_EQ(report.availability(), 1.0);

  // Fault downtime is billed to the (fleet) attribution row and only
  // there, so the report totals conserve over the tenant decomposition.
  std::size_t fault_rows = 0;
  for (const serve::TenantCost& row : report.tenant_costs) {
    if (row.faults > 0 || row.fault_seconds > 0.0) {
      ++fault_rows;
      EXPECT_EQ(row.tenant, serve::TenantCost::kFleetTenant);
      EXPECT_EQ(row.faults, report.faults);
      EXPECT_DOUBLE_EQ(row.fault_seconds, report.fault_time);
    }
  }
  EXPECT_EQ(fault_rows, 1u);
}

TEST(ServerFaults, NoMitigationKeepsTheFailedCoreAndLosesAccuracy) {
  const std::vector<FaultEvent> schedule = {
      {.time = 5e-9, .core = 1, .kind = FaultEvent::Kind::kDeadRings,
       .count = 64, .seed = 3},
  };
  const serve::BatchPolicy plain{.max_batch = 8, .max_wait = 20e-9};
  const serve::BatchPolicy evict{.max_batch = 8, .max_wait = 20e-9,
                                 .evict_on_fault = true,
                                 .recalibrate_on_fault = true};
  const serve::ServeReport corrupted = run_fault_scenario(1, plain, schedule);
  const serve::ServeReport healthy =
      run_fault_scenario(1, evict, schedule);
  EXPECT_EQ(corrupted.core_evictions, 0u);
  EXPECT_EQ(healthy.core_evictions, 1u);
  ASSERT_TRUE(corrupted.accuracy_scored);
  EXPECT_GT(healthy.accuracy(), corrupted.accuracy());
}

TEST(ServerFaults, DegradedCapacitySheddingCountsPerTenant) {
  // A tight degraded-queue limit on an early-faulted fleet must shed, and
  // the shed tally must decompose exactly over the tenant rows.
  const std::vector<FaultEvent> schedule = {
      {.time = 1e-9, .core = 0, .kind = FaultEvent::Kind::kDeadRings,
       .count = 64, .seed = 3},
  };
  const serve::BatchPolicy policy{.max_batch = 8, .max_wait = 20e-9,
                                  .evict_on_fault = true,
                                  .recalibrate_on_fault = true,
                                  .degraded_queue_limit = 1};
  const serve::ServeReport report = run_fault_scenario(1, policy, schedule);
  EXPECT_GT(report.shed, 0u);
  EXPECT_EQ(report.completed + report.shed, 96u);
  EXPECT_LT(report.availability(), 1.0);
  EXPECT_DOUBLE_EQ(report.availability(),
                   static_cast<double>(report.completed) /
                       static_cast<double>(report.completed + report.shed));
  std::size_t shed_sum = 0;
  for (const serve::TenantCost& row : report.tenant_costs) {
    shed_sum += row.shed_requests;
  }
  EXPECT_EQ(shed_sum, report.shed);
}

TEST(ServerFaults, AvailabilityIsOneWhenNothingWasOffered) {
  const serve::ServeReport empty;
  EXPECT_DOUBLE_EQ(empty.availability(), 1.0);
}

TEST(ServerFaults, FaultRunsAreBitIdenticalAcrossHostThreadCounts) {
  // Same seed + same schedule => byte-identical ServeReport, on any host
  // thread count, and reproducible within one process (the attached
  // schedule resets fault state at every run start).
  const std::vector<FaultEvent> schedule = runtime::poisson_fault_schedule(
      4e6, 1.0e-6, 4, 905);
  ASSERT_FALSE(schedule.empty());
  std::vector<FaultEvent> bumped = schedule;
  for (FaultEvent& event : bumped) {
    if (event.kind == FaultEvent::Kind::kDeadRings) event.count = 64;
  }
  const serve::BatchPolicy policy{.max_batch = 8, .max_wait = 20e-9,
                                  .evict_on_fault = true,
                                  .recalibrate_on_fault = true,
                                  .degraded_queue_limit = 4};
  const serve::ServeReport r1 = run_fault_scenario(1, policy, bumped);
  EXPECT_GT(r1.faults, 0u);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const serve::ServeReport r = run_fault_scenario(threads, policy, bumped);
    EXPECT_EQ(r.completed, r1.completed) << threads;
    EXPECT_EQ(r.faults, r1.faults) << threads;
    EXPECT_EQ(r.core_evictions, r1.core_evictions) << threads;
    EXPECT_EQ(r.core_readmissions, r1.core_readmissions) << threads;
    EXPECT_EQ(r.shed, r1.shed) << threads;
    EXPECT_EQ(r.reference_matches, r1.reference_matches) << threads;
    // Bitwise, not approximate: memcmp on the doubles.
    EXPECT_EQ(std::memcmp(&r.makespan, &r1.makespan, sizeof(double)), 0)
        << threads;
    EXPECT_EQ(std::memcmp(&r.fault_time, &r1.fault_time, sizeof(double)), 0)
        << threads;
    EXPECT_EQ(std::memcmp(&r.energy, &r1.energy, sizeof(double)), 0)
        << threads;
  }
}

TEST(ServerFaults, ScheduleMustBeSortedByTime) {
  AcceleratorConfig config;
  config.cores = 2;
  Accelerator accelerator(config);
  serve::ModelRegistry registry(accelerator);
  Rng rng(7);
  registry.add("m", nn::Mlp(16, 8, 4, rng));
  serve::Server server(registry);
  EXPECT_THROW(server.set_fault_schedule(
                   {{.time = 2e-9, .core = 0},
                    {.time = 1e-9, .core = 1}}),
               std::invalid_argument);
}

}  // namespace
