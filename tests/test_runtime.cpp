// Multi-tile accelerator runtime: thread pool semantics, tile scheduling,
// and the determinism contract — an N-core Accelerator must reproduce the
// single-core photonic backend bit for bit, because the tile schedule is
// static and the reduction order canonical.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"
#include "nn/mlp.hpp"
#include "nn/tiling.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/tile_scheduler.hpp"

namespace {

using namespace ptc;
using namespace ptc::runtime;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::invalid_argument("boom");
                                   }
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, EveryIndexRunsOnceWhenOneThrows) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.parallel_for(0, hits.size(),
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i % 16 == 5) {
                                     throw std::invalid_argument("boom");
                                   }
                                 }),
               std::invalid_argument);
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRangeExactlyOnce) {
  ThreadPool pool(2);
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> a(kRounds * kCount), b(kRounds * kCount);
  std::latch start(2);
  const auto caller = [&](std::vector<std::atomic<int>>& hits) {
    start.arrive_and_wait();
    for (std::size_t r = 0; r < kRounds; ++r) {
      pool.parallel_for(0, kCount, [&](std::size_t i) {
        hits[r * kCount + i].fetch_add(1);
      });
    }
  };
  std::thread first(caller, std::ref(a));
  std::thread second(caller, std::ref(b));
  first.join();
  second.join();
  for (const std::atomic<int>& h : a) EXPECT_EQ(h.load(), 1);
  for (const std::atomic<int>& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OneIndexRangeRunsOnTheCallingThread) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // fewer workers than outstanding waits
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, SingleWorkerStillCompletesParallelFor) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 32, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

// ---------------------------------------------------------------------------
// TileScheduler
// ---------------------------------------------------------------------------

nn::TilePlan plan_for(std::size_t samples, std::size_t k, std::size_t m,
                      bool differential = false) {
  Rng rng(5);
  const Matrix x = random_activations(samples, k, rng);
  const Matrix w = random_signed(k, m, rng);
  Matrix x_norm;
  return nn::plan_from_weights(nn::build_weight_plan(w, 16, 16, differential),
                               x, x_norm);
}

TEST(TileScheduler, EvenWorkloadBalancesPerfectly) {
  // 128x128 weights on 16x16 tiles: 64 equal passes over 8 cores.
  const nn::TilePlan plan = plan_for(4, 128, 128);
  ASSERT_EQ(plan.passes.size(), 64u);
  Schedule schedule;
  TileScheduler::assign(plan.passes.size(), 0, {2.4e-9, 8e-9}, 8, schedule);
  ASSERT_EQ(schedule.shards.size(), 8u);
  std::set<std::size_t> seen;
  for (const CoreShard& shard : schedule.shards) {
    EXPECT_EQ(shard.pass_indices.size(), 8u);
    seen.insert(shard.pass_indices.begin(), shard.pass_indices.end());
  }
  EXPECT_EQ(seen.size(), 64u);  // every pass dispatched exactly once
  EXPECT_DOUBLE_EQ(schedule.makespan(), schedule.total_busy() / 8.0);
}

TEST(TileScheduler, AssignmentIsDeterministic) {
  const nn::TilePlan plan = plan_for(3, 100, 50, true);
  Schedule a;
  Schedule b;
  TileScheduler::assign(plan.passes.size(), 0, {1.0, 2.0}, 5, a);
  // A reused schedule that held a larger one first comes out the same.
  TileScheduler::assign(2 * plan.passes.size(), 3, {2.0, 1.0}, 7, b);
  TileScheduler::assign(plan.passes.size(), 0, {1.0, 2.0}, 5, b);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t c = 0; c < a.shards.size(); ++c) {
    EXPECT_EQ(a.shards[c].pass_indices, b.shards[c].pass_indices);
    EXPECT_DOUBLE_EQ(a.shards[c].busy_time, b.shards[c].busy_time);
  }
}

TEST(TileScheduler, SingleCoreGetsEverything) {
  const nn::TilePlan plan = plan_for(2, 40, 28);
  Schedule schedule;
  TileScheduler::assign(plan.passes.size(), 0, {1.0, 1.0}, 1, schedule);
  ASSERT_EQ(schedule.shards.size(), 1u);
  EXPECT_EQ(schedule.shards[0].pass_indices.size(), plan.passes.size());
  EXPECT_DOUBLE_EQ(schedule.makespan(), schedule.total_busy());
}

// ---------------------------------------------------------------------------
// Accelerator: determinism contract against the single-core backend.
// ---------------------------------------------------------------------------

TEST(Accelerator, BitIdenticalToSingleCorePhotonicBackend) {
  Rng rng(2026);
  const Matrix x = random_activations(5, 40, rng);
  const Matrix w = random_signed(40, 28, rng);

  for (const bool differential : {false, true}) {
    for (const bool quantize : {true, false}) {
      nn::PhotonicBackendOptions options;
      options.differential_weights = differential;
      options.quantize_output = quantize;
      options.adc_range_gain = quantize ? 4.0 : 1.0;

      core::TensorCore single_core;
      nn::PhotonicBackend single(single_core, options);
      const Matrix y_single = single.matmul(x, w);

      Accelerator accelerator({.cores = 3});
      AcceleratorBackend multi(accelerator, options);
      const Matrix y_multi = multi.matmul(x, w);

      ASSERT_EQ(y_multi.rows(), y_single.rows());
      ASSERT_EQ(y_multi.cols(), y_single.cols());
      EXPECT_EQ(y_single.max_abs_diff(y_multi), 0.0)
          << "differential=" << differential << " quantize=" << quantize;

      // The fleet streamed the same number of tiles the single core did.
      EXPECT_EQ(accelerator.stats().tile_loads, single.tile_loads());
    }
  }
}

TEST(Accelerator, MultiBatchStressAcrossEightCores) {
  Rng rng(31337);
  Accelerator accelerator({.cores = 8});
  nn::PhotonicBackendOptions options;  // quantized full-hardware path

  const Matrix w = random_signed(128, 128, rng);
  core::TensorCore single_core;
  nn::PhotonicBackend single(single_core, options);

  for (const std::size_t batch : {1u, 7u, 32u}) {
    const Matrix x = random_activations(batch, 128, rng);
    const Matrix y_multi = accelerator.matmul(x, w, options);
    const Matrix y_single = single.matmul(x, w);
    ASSERT_EQ(y_multi.rows(), batch);
    ASSERT_EQ(y_multi.cols(), 128u);
    EXPECT_EQ(y_single.max_abs_diff(y_multi), 0.0) << "batch " << batch;
  }

  const AcceleratorStats stats = accelerator.stats();
  EXPECT_EQ(stats.cores, 8u);
  EXPECT_EQ(stats.matmuls, 3u);
  EXPECT_EQ(stats.tile_loads, 3u * 64u);
  EXPECT_EQ(stats.samples, 64u * (1u + 7u + 32u));
  EXPECT_GT(stats.makespan, 0.0);
  EXPECT_GT(stats.energy, 0.0);
  EXPECT_GT(stats.fleet_power, 8.0 * 1.0);  // eight ~1.36 W cores
  EXPECT_LE(stats.utilization(), 1.0 + 1e-12);
  // 64 equal passes over 8 cores: the fleet finishes >= 6x faster than the
  // same modeled work serialized on one core (exactly 8x here).
  EXPECT_GE(stats.busy_time / stats.makespan, 6.0);

  double busy_sum = 0.0;
  for (double b : stats.core_busy) busy_sum += b;
  EXPECT_NEAR(busy_sum, stats.busy_time, 1e-15);
}

TEST(Accelerator, ModeledStrongScalingReachesSixTimesAtEightCores) {
  Rng rng(99);
  const Matrix x = random_activations(16, 128, rng);
  const Matrix w = random_signed(128, 128, rng);

  Accelerator one({.cores = 1});
  Accelerator eight({.cores = 8});
  one.matmul(x, w);
  eight.matmul(x, w);

  const double t1 = one.stats().makespan;
  const double t8 = eight.stats().makespan;
  ASSERT_GT(t8, 0.0);
  EXPECT_GE(t1 / t8, 6.0);
  EXPECT_EQ(one.stats().ops, eight.stats().ops);
}

TEST(Accelerator, MlpRunsUnchangedOnTheCorePool) {
  Rng rng(4);
  nn::Mlp mlp(64, 12, 10, rng);
  const Matrix x = random_activations(3, 64, rng);

  nn::PhotonicBackendOptions options;
  options.differential_weights = true;

  core::TensorCore single_core;
  nn::PhotonicBackend single(single_core, options);
  Accelerator accelerator({.cores = 4});
  AcceleratorBackend multi(accelerator, options);

  const Matrix logits_single = mlp.forward(single, x);
  const Matrix logits_multi = mlp.forward(multi, x);
  EXPECT_EQ(logits_single.max_abs_diff(logits_multi), 0.0);
}

TEST(Accelerator, StatsResetClearsCounters) {
  Rng rng(8);
  Accelerator accelerator({.cores = 2});
  accelerator.matmul(random_activations(2, 20, rng),
                     random_signed(20, 20, rng));
  EXPECT_GT(accelerator.stats().matmuls, 0u);
  accelerator.reset_stats();
  const AcceleratorStats stats = accelerator.stats();
  EXPECT_EQ(stats.matmuls, 0u);
  EXPECT_EQ(stats.tile_loads, 0u);
  EXPECT_DOUBLE_EQ(stats.makespan, 0.0);
  EXPECT_EQ(stats.cores, 2u);
}

TEST(Accelerator, RejectsBadConfiguration) {
  EXPECT_THROW(Accelerator({.cores = 0}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double DriftConfig::*field : {&DriftConfig::sigma, &DriftConfig::tau}) {
    for (const double value : {-1.0, nan, inf}) {
      AcceleratorConfig bad{.cores = 1};
      bad.drift.*field = value;
      EXPECT_THROW(Accelerator{bad}, std::invalid_argument) << value;
    }
  }
  Accelerator accelerator({.cores = 2});
  EXPECT_THROW(accelerator.core(2), std::invalid_argument);
  Rng rng(1);
  const Matrix x = random_activations(2, 10, rng);
  const Matrix w = random_signed(12, 8, rng);  // inner mismatch
  EXPECT_THROW(accelerator.matmul(x, w), std::invalid_argument);
}

}  // namespace
