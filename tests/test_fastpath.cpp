// Calibrated fast path vs spectral physics walk: the fast path linearizes
// the tensor core at weight-load time (cached ring-chain gains, canonical
// summation order) and must be BIT-identical to the physics path — pinned
// here for every encoding, readout mode, fleet size, and model lowering the
// matmul pipeline supports, plus the weight-plan cache contract the graph
// executor and serving layer lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "graph/compile.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "nn/backend.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/tiling.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"

// --- global allocation counter (for the allocation-free hot path check) ----
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
using namespace ptc::nn;

template <typename Call>
std::size_t allocations_during(Call&& call) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  call();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

core::TensorCoreConfig core_config(bool fast_path) {
  core::TensorCoreConfig config;
  config.fast_path = fast_path;
  return config;
}

TEST(FastPath, ArmsAtWeightLoad) {
  core::TensorCore core(core_config(true));
  EXPECT_FALSE(core.fast_path_active());
  Rng rng(1);
  core.load_weights_normalized(random_activations(16, 16, rng));
  EXPECT_TRUE(core.fast_path_active());

  core::TensorCore physics(core_config(false));
  physics.load_weights_normalized(random_activations(16, 16, rng));
  EXPECT_FALSE(physics.fast_path_active());
}

TEST(FastPath, AnalogBatchBitIdentical) {
  core::TensorCore fast(core_config(true));
  core::TensorCore physics(core_config(false));
  Rng w_rng(2);
  const Matrix w = random_activations(16, 16, w_rng);
  fast.load_weights_normalized(w);
  physics.load_weights_normalized(w);

  Rng x_rng(3);
  const Matrix x = random_activations(64, 16, x_rng);
  EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(
                physics.multiply_analog_batch(x)),
            0.0);

  // Single-sample API dispatches through the same replay.
  std::vector<double> input(16, 0.0);
  for (std::size_t c = 0; c < 16; ++c) input[c] = x(0, c);
  const auto a = fast.multiply_analog(input);
  const auto b = physics.multiply_analog(input);
  for (std::size_t r = 0; r < a.size(); ++r) EXPECT_EQ(a[r], b[r]);
}

TEST(FastPath, QuantizedBatchBitIdenticalAndAccounted) {
  core::TensorCore fast(core_config(true));
  core::TensorCore physics(core_config(false));
  Rng w_rng(4);
  const Matrix w = random_activations(16, 16, w_rng);
  fast.load_weights_normalized(w);
  physics.load_weights_normalized(w);

  Rng x_rng(5);
  const Matrix x = random_activations(40, 16, x_rng);
  EXPECT_EQ(fast.multiply_batch(x).max_abs_diff(physics.multiply_batch(x)),
            0.0);
  // Every batch row burns one ADC sample window, exactly like multiply().
  EXPECT_EQ(fast.samples_processed(), 40u);
  EXPECT_EQ(physics.samples_processed(), 40u);
}

TEST(FastPath, BitIdenticalForRowCountsOffTheReplayBlock) {
  // The replay runs rows four at a time, the last block padded with
  // zero-gain rows.  Every row count must match the physics walk, analog
  // and quantized.
  for (const std::size_t rows : {1, 3, 6, 9, 16}) {
    core::TensorCoreConfig config = core_config(true);
    config.rows = rows;
    config.cols = 8;
    core::TensorCore fast(config);
    config.fast_path = false;
    core::TensorCore physics(config);
    Rng rng(40 + rows);
    const Matrix w = random_activations(rows, 8, rng);
    fast.load_weights_normalized(w);
    physics.load_weights_normalized(w);
    const Matrix x = random_activations(24, 8, rng);
    EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(
                  physics.multiply_analog_batch(x)),
              0.0)
        << rows << " rows";
    EXPECT_EQ(fast.multiply_batch(x).max_abs_diff(physics.multiply_batch(x)),
              0.0)
        << rows << " rows";
  }
}

TEST(FastPath, BitIdenticalForChannelCountsOffTheSpecialization) {
  // The replay is compiled for the default 4-channel macro and for a
  // channel count read at run time; the run-time one must match the
  // physics walk too.
  for (const std::size_t channels : {1, 2, 3, 8}) {
    core::TensorCoreConfig config = core_config(true);
    config.macro.channels = channels;
    config.rows = 6;
    config.cols = 4 * channels;
    core::TensorCore fast(config);
    config.fast_path = false;
    core::TensorCore physics(config);
    Rng rng(60 + channels);
    const Matrix w = random_activations(config.rows, config.cols, rng);
    fast.load_weights_normalized(w);
    physics.load_weights_normalized(w);
    ASSERT_TRUE(fast.fast_path_active()) << channels << " channels";
    const Matrix x = random_activations(24, config.cols, rng);
    EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(
                  physics.multiply_analog_batch(x)),
              0.0)
        << channels << " channels";
    EXPECT_EQ(fast.multiply_batch(x).max_abs_diff(physics.multiply_batch(x)),
              0.0)
        << channels << " channels";
  }
}

TEST(FastPath, BatchAllocationsDoNotGrowWithSamples) {
  core::TensorCore core(core_config(true));
  Rng rng(21);
  core.load_weights_normalized(random_activations(16, 16, rng));
  const Matrix small = random_activations(16, 16, rng);
  const Matrix large = random_activations(256, 16, rng);
  // Warm-up sizes the scratch buffers and the ledger's static slots.
  core.multiply_batch(large);
  core.multiply_analog_batch(large);

  for (const bool quantize : {true, false}) {
    auto run = [&](const Matrix& x) {
      return allocations_during([&] {
        const Matrix y =
            quantize ? core.multiply_batch(x) : core.multiply_analog_batch(x);
        EXPECT_EQ(y.rows(), x.rows());
      });
    };
    EXPECT_EQ(run(small), run(large)) << (quantize ? "quantized" : "analog");
  }
}

/// Type and message of the exception `call` throws.
template <typename Call>
std::pair<std::type_index, std::string> thrown(Call&& call) {
  try {
    call();
  } catch (const std::exception& e) {
    return {typeid(e), e.what()};
  }
  return {typeid(void), ""};
}

TEST(Contracts, LiteralAndStringMessagesThrowAlike) {
  const std::string text = "weights must be in range";
  const auto pre_literal = thrown([] { expects(false, "weights must be in range"); });
  const auto pre_string = thrown([&] { expects(false, text); });
  EXPECT_EQ(pre_literal.first, std::type_index(typeid(std::invalid_argument)));
  EXPECT_EQ(pre_literal.second, "precondition violated: " + text);
  EXPECT_EQ(pre_literal, pre_string);

  const auto post_literal = thrown([] { ensures(false, "weights must be in range"); });
  const auto post_string = thrown([&] { ensures(false, text); });
  EXPECT_EQ(post_literal.first, std::type_index(typeid(std::logic_error)));
  EXPECT_EQ(post_literal.second, "postcondition violated: " + text);
  EXPECT_EQ(post_literal, post_string);

  // A passing check with a literal builds no message at all.
  EXPECT_EQ(allocations_during([] {
              expects(true, "a literal longer than any small-string buffer");
              ensures(true, "a literal longer than any small-string buffer");
            }),
            0u);
}

TEST(FastPath, RecalibratesWhenWeightsChange) {
  core::TensorCore fast(core_config(true));
  core::TensorCore physics(core_config(false));
  Rng rng(6);
  const Matrix w1 = random_activations(16, 16, rng);
  const Matrix w2 = random_activations(16, 16, rng);
  const Matrix x = random_activations(8, 16, rng);

  fast.load_weights_normalized(w1);
  physics.load_weights_normalized(w1);
  const Matrix y1 = fast.multiply_analog_batch(x);
  EXPECT_EQ(y1.max_abs_diff(physics.multiply_analog_batch(x)), 0.0);

  fast.load_weights_normalized(w2);
  physics.load_weights_normalized(w2);
  const Matrix y2 = fast.multiply_analog_batch(x);
  EXPECT_EQ(y2.max_abs_diff(physics.multiply_analog_batch(x)), 0.0);
  EXPECT_GT(y2.max_abs_diff(y1), 0.0);  // the gains really changed

  // Reloading w1 rebuilds its gains from the transmission table, every
  // ring state already filled — still bit-identical.
  fast.load_weights_normalized(w1);
  physics.load_weights_normalized(w1);
  EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(y1), 0.0);
  EXPECT_EQ(physics.multiply_analog_batch(x).max_abs_diff(y1), 0.0);
}

TEST(FastPath, TableFollowsDetuningFaultsAndReloads) {
  // A varied die with 6-bit weights driven through the same calls on a
  // fast and a physics core: the per-ring transmission table must be
  // dropped by every detuning and fault change, and a stale chain rebuilt
  // before its first sample, so every sample matches the ring walk.
  core::TensorCoreConfig config = core_config(true);
  config.weight_bits = 6;
  config.variation.seed = 11;
  core::TensorCore fast(config);
  config.fast_path = false;
  core::TensorCore physics(config);
  Rng rng(70);
  const Matrix w1 = random_activations(16, 16, rng);
  const Matrix w2 = random_activations(16, 16, rng);
  const Matrix x = random_activations(6, 16, rng);

  auto on_both = [&](auto&& step) {
    step(fast);
    step(physics);
  };
  // Compares analog and quantized samples; returns the analog ones.
  auto sample = [&](const char* stage) {
    const Matrix analog = fast.multiply_analog_batch(x);
    EXPECT_EQ(analog.max_abs_diff(physics.multiply_analog_batch(x)), 0.0)
        << stage;
    EXPECT_EQ(fast.multiply_batch(x).max_abs_diff(physics.multiply_batch(x)),
              0.0)
        << stage;
    return analog;
  };

  on_both([&](core::TensorCore& c) {
    c.load_weights_normalized(w1);
    c.set_thermal_detuning(0.7);
  });
  const Matrix detuned_w1 = sample("w1, detuned after the load");

  // Random 6-bit words share about half their bits, so about half of w2's
  // ring states come from the table w1 filled at this detuning.
  on_both([&](core::TensorCore& c) { c.load_weights_normalized(w2); });
  sample("w2 at the same detuning");

  on_both([&](core::TensorCore& c) {
    c.inject_ring_fault(2, 5, 1, core::RingFaultKind::kStuckOn);
  });
  sample("ring fault injected");
  on_both([](core::TensorCore& c) { c.clear_faults(); });
  sample("ring fault cleared");

  on_both([&](core::TensorCore& c) {
    c.recalibrate();
    c.load_weights_normalized(w1);
  });
  const Matrix locked_w1 = sample("re-locked, w1 reloaded");
  EXPECT_GT(locked_w1.max_abs_diff(detuned_w1), 0.0);  // detuning moved it

  // Detuned and reloaded with no sample between: the deferred path.
  on_both([&](core::TensorCore& c) {
    c.set_thermal_detuning(-0.4);
    c.load_weights_normalized(w2);
  });
  const Matrix reloaded = sample("detuned, then reloaded");

  // Detuned with no reload: the stale chain is rebuilt by the sample.
  on_both([](core::TensorCore& c) { c.set_thermal_detuning(1.1); });
  EXPECT_GT(sample("detuned, no reload").max_abs_diff(reloaded), 0.0);
}

TEST(FastPath, WeightLoadsAllocateNothingAfterTheFirst) {
  core::TensorCore core(core_config(true));
  Rng rng(23);
  const Matrix w1 = random_activations(16, 16, rng);
  const Matrix w2 = random_activations(16, 16, rng);
  // The first load sizes the word buffer, the chain and the table.
  core.load_weights_normalized(w1);
  EXPECT_EQ(allocations_during([&] { core.load_weights_normalized(w2); }), 0u);
  // A detuning drops the table; the reload refills it in place.
  core.set_thermal_detuning(0.5);
  EXPECT_EQ(allocations_during([&] { core.load_weights_normalized(w1); }), 0u);
}

/// Backend-level identity across encodings and readout modes, including
/// non-multiple-of-16 shapes and batch 1.
void check_backend_identity(bool differential, bool quantize, std::size_t s,
                            std::size_t k, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix x = random_activations(s, k, rng);
  const Matrix w = random_signed(k, m, rng);

  PhotonicBackendOptions options;
  options.differential_weights = differential;
  options.quantize_output = quantize;

  core::TensorCore fast_core(core_config(true));
  core::TensorCore physics_core(core_config(false));
  PhotonicBackend fast(fast_core, options);
  PhotonicBackend physics(physics_core, options);
  EXPECT_EQ(fast.matmul(x, w).max_abs_diff(physics.matmul(x, w)), 0.0)
      << "differential=" << differential << " quantize=" << quantize << " "
      << s << "x" << k << "*" << k << "x" << m;
}

TEST(FastPath, BackendBitIdenticalAllEncodingsAndReadouts) {
  for (const bool differential : {false, true}) {
    for (const bool quantize : {false, true}) {
      check_backend_identity(differential, quantize, 7, 20, 18, 100);
      check_backend_identity(differential, quantize, 1, 16, 16, 101);
    }
  }
}

TEST(FastPath, FleetBitIdenticalToPhysicsFleet) {
  Rng rng(7);
  const Matrix x = random_activations(12, 40, rng);
  const Matrix w = random_signed(40, 24, rng);

  for (const bool differential : {false, true}) {
    PhotonicBackendOptions options;
    options.differential_weights = differential;

    runtime::AcceleratorConfig fast_config{.cores = 4};
    runtime::AcceleratorConfig physics_config{.cores = 4};
    physics_config.core.fast_path = false;
    runtime::Accelerator fast(fast_config);
    runtime::Accelerator physics(physics_config);
    EXPECT_EQ(fast.matmul(x, w, options).max_abs_diff(
                  physics.matmul(x, w, options)),
              0.0);
  }
}

TEST(FastPath, MlpForwardBitIdenticalEndToEnd) {
  Rng rng(8);
  Mlp model(12, 10, 4, rng);
  Rng data_rng(9);
  const Matrix x = random_activations(9, 12, data_rng);

  PhotonicBackendOptions options;
  options.differential_weights = true;

  core::TensorCore fast_core(core_config(true));
  core::TensorCore physics_core(core_config(false));
  PhotonicBackend fast(fast_core, options);
  PhotonicBackend physics(physics_core, options);
  EXPECT_EQ(model.forward(fast, x).max_abs_diff(model.forward(physics, x)),
            0.0);

  runtime::AcceleratorConfig fleet_config{.cores = 3};
  fleet_config.core.fast_path = false;
  runtime::Accelerator physics_fleet(fleet_config);
  runtime::AcceleratorBackend fleet(physics_fleet, options);
  EXPECT_EQ(model.forward(fast, x).max_abs_diff(model.forward(fleet, x)), 0.0);
}

TEST(FastPath, CnnGraphBitIdenticalOnTheFleet) {
  Rng rng(10);
  graph::Graph g;
  const auto in = g.input(graph::Shape{{8, 8, 1}});
  auto v = g.conv2d(in, random_signed(9, 4, rng), 3);
  v = g.bias(v, std::vector<double>(4, 0.05));
  v = g.relu(v);
  v = g.maxpool(v, 2);
  v = g.flatten(v);
  v = g.matmul(v, random_signed(36, 5, rng));
  g.softmax(v);
  const graph::CompiledGraph compiled = graph::compile(g);

  Rng data_rng(11);
  const Matrix x = random_activations(4, 64, data_rng);

  PhotonicBackendOptions options;
  options.differential_weights = true;

  runtime::AcceleratorConfig fast_config{.cores = 4};
  runtime::AcceleratorConfig physics_config{.cores = 4};
  physics_config.core.fast_path = false;
  runtime::Accelerator fast_fleet(fast_config);
  runtime::Accelerator physics_fleet(physics_config);
  runtime::AcceleratorBackend fast(fast_fleet, options);
  runtime::AcceleratorBackend physics(physics_fleet, options);
  EXPECT_EQ(graph::run(compiled, fast, x).max_abs_diff(
                graph::run(compiled, physics, x)),
            0.0);
}

TEST(PlanCache, ReusesPlansAndRebuildsOnContentChange) {
  Rng rng(12);
  Matrix w = random_signed(20, 20, rng);

  WeightPlanCache cache;
  const auto p1 = cache.get(w, 16, 16, false);
  const auto p2 = cache.get(w, 16, 16, false);
  EXPECT_EQ(p1.get(), p2.get());  // same plan object, no rebuild
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(p1->passes.size(), 4u);
  EXPECT_EQ(p1->encoded.size(), 4u);

  // A different geometry or encoding is a different plan.
  cache.get(w, 16, 16, true);
  EXPECT_EQ(cache.builds(), 2u);

  // Changing the weight contents must invalidate: the cache is keyed by
  // content, so a stale plan (stale mapping, stale encoded blocks) can
  // never be served for updated weights.
  w(3, 3) = 5.0;  // new max |w|: the mapping scale must change too
  const auto p3 = cache.get(w, 16, 16, false);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_NE(p3.get(), p1.get());
  EXPECT_NE(p3->mapping.scale, p1->mapping.scale);

  cache.invalidate();
  cache.get(w, 16, 16, false);
  EXPECT_EQ(cache.builds(), 4u);
}

TEST(PlanCache, CachedMatmulBitIdenticalToUncached) {
  Rng rng(13);
  const Matrix x = random_activations(5, 20, rng);
  const Matrix w = random_signed(20, 20, rng);

  PhotonicBackendOptions options;
  core::TensorCore core_a(core_config(true));
  core::TensorCore core_b(core_config(true));
  PhotonicBackend cached(core_a, options);
  PhotonicBackend fresh(core_b, options);

  WeightPlanCache cache;
  const Matrix via_cache = cached.matmul_cached(x, w, cache);
  const Matrix direct = fresh.matmul(x, w);
  EXPECT_EQ(via_cache.max_abs_diff(direct), 0.0);
  // Second call through the same cache: no rebuild, same bits.
  EXPECT_EQ(cached.matmul_cached(x, w, cache).max_abs_diff(direct), 0.0);
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(PlanCache, MlpTrainingRefreshesCompiledPlans) {
  // Training rewrites the weights and relowers the schedule; the rebuilt
  // step caches must serve plans for the *new* weights — pinned by
  // comparing against an uncached float forward after the update.
  Rng rng(14);
  Mlp model(6, 8, 3, rng);
  Dataset data;
  data.inputs = random_activations(24, 6, rng);
  data.labels.resize(24);
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    data.labels[i] = i % 3;
  }

  FloatBackend reference;
  const Matrix x = random_activations(5, 6, rng);
  const Matrix before = model.forward(reference, x);

  Rng train_rng(15);
  model.train_epoch(data, 0.05, 8, train_rng);
  const Matrix after = model.forward(reference, x);
  EXPECT_GT(after.max_abs_diff(before), 0.0);

  // The compiled schedule (with its refreshed plan caches) must agree with
  // the raw layer math over the new weights.
  Matrix manual = matmul(x, model.layer1().w);
  for (std::size_t s = 0; s < manual.rows(); ++s)
    for (std::size_t c = 0; c < manual.cols(); ++c) {
      manual(s, c) += model.layer1().b[c];
      manual(s, c) = std::max(0.0, manual(s, c));
    }
  manual = matmul(manual, model.layer2().w);
  for (std::size_t s = 0; s < manual.rows(); ++s)
    for (std::size_t c = 0; c < manual.cols(); ++c)
      manual(s, c) += model.layer2().b[c];
  EXPECT_EQ(after.max_abs_diff(manual), 0.0);
}

}  // namespace
