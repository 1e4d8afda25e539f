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
#include <cstdint>
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
#include "graph/executor.hpp"
#include "graph/graph.hpp"
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
    c.inject_ring_faults({{.row = 2,
                           .col = 5,
                           .bit = 1,
                           .kind = core::RingFaultKind::kStuckOn}});
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

using WordMatrix = std::vector<std::vector<std::uint32_t>>;

WordMatrix random_words(const core::TensorCore& core, Rng& rng) {
  WordMatrix words(core.rows(), std::vector<std::uint32_t>(core.cols()));
  for (auto& row : words) {
    for (std::uint32_t& w : row) {
      w = static_cast<std::uint32_t>(rng.below(core.max_weight() + 1));
    }
  }
  return words;
}

/// Analog and quantized samples of `core` must equal `fresh`'s bitwise.
void expect_same_outputs(core::TensorCore& core, core::TensorCore& fresh,
                         const Matrix& x, const std::string& stage) {
  EXPECT_EQ(core.multiply_analog_batch(x).max_abs_diff(
                fresh.multiply_analog_batch(x)),
            0.0)
      << stage;
  EXPECT_EQ(core.multiply_batch(x).max_abs_diff(fresh.multiply_batch(x)), 0.0)
      << stage;
}

/// True when only output row `row` of the samples moved.
bool only_row_moved(const Matrix& before, const Matrix& after,
                    std::size_t row) {
  bool moved = false;
  for (std::size_t s = 0; s < before.rows(); ++s) {
    for (std::size_t r = 0; r < before.cols(); ++r) {
      if (before(s, r) == after(s, r)) continue;
      if (r != row) return false;
      moved = true;
    }
  }
  return moved;
}

TEST(FastPath, PartialReloadsMatchPhysicsAndAFreshCore) {
  // A load rebuilds only the macros whose stored words moved.  Loads that
  // change no word, one word of one macro, one whole row and every word are
  // interleaved with detuning, a ring fault, clear_faults and a re-lock on
  // a fast and a physics core.  After every step both must equal, bitwise,
  // a fresh core of the same die brought to the same detuning and faults
  // and loaded once: a changed macro left unprogrammed, or chain entries
  // kept from an earlier detuning or fault set, show up even where the
  // fast and physics cores would agree with each other.
  core::TensorCoreConfig config = core_config(true);
  config.variation.seed = 11;
  core::TensorCore fast(config);
  config.fast_path = false;
  core::TensorCore physics(config);
  config.fast_path = true;
  Rng rng(71);
  const Matrix x = random_activations(6, 16, rng);
  WordMatrix words = random_words(fast, rng);
  double detuning = 0.0;
  std::vector<core::RingFaultSite> faults;

  auto on_both = [&](auto&& step) {
    step(fast);
    step(physics);
  };
  auto load = [&] {
    on_both([&](core::TensorCore& c) { c.load_weights(words); });
  };
  // Checks both cores against a fresh one; returns its analog samples.
  auto sample = [&](const std::string& stage) {
    core::TensorCore fresh(config);
    fresh.set_thermal_detuning(detuning);
    fresh.inject_ring_faults(faults);
    fresh.load_weights(words);
    expect_same_outputs(fast, fresh, x, stage + " (fast)");
    expect_same_outputs(physics, fresh, x, stage + " (physics)");
    return fresh.multiply_analog_batch(x);
  };

  load();
  const Matrix first = sample("first load");
  load();
  EXPECT_EQ(sample("no word changed").max_abs_diff(first), 0.0);

  // The last word of macro (5, 2): one macro is rebuilt, one row moves.
  words[5][11] = (words[5][11] + 1) % 8;
  load();
  const Matrix one_word = sample("one word of one macro");
  EXPECT_TRUE(only_row_moved(first, one_word, 5));

  // Detuned, then a whole row reloaded with no sample between: the chain
  // is stale, so the unchanged macros must be rebuilt too.
  detuning = 0.6;
  on_both([&](core::TensorCore& c) { c.set_thermal_detuning(detuning); });
  words[3] = random_words(fast, rng)[0];
  load();
  const Matrix one_row = sample("detuned, then one whole row");
  EXPECT_GT(one_row.max_abs_diff(one_word), 0.0);

  // A fault on a ring whose stored bit it overrides, then a load that
  // changes no word: the stale chain is still rebuilt whole.
  const bool bit = (words[7][2] >> 1) & 1u;
  faults.push_back({.row = 7, .col = 2, .bit = 1,
                    .kind = bit ? core::RingFaultKind::kStuckOn
                                : core::RingFaultKind::kStuckOff});
  on_both([&](core::TensorCore& c) { c.inject_ring_faults(faults); });
  load();
  EXPECT_TRUE(
      only_row_moved(one_row, sample("ring fault, then no word changed"), 7));

  words = random_words(fast, rng);
  load();
  sample("every word, under the fault");

  faults.clear();
  on_both([](core::TensorCore& c) { c.clear_faults(); });
  words[12][12] = (words[12][12] + 3) % 8;  // first word of macro (12, 3)
  load();
  sample("faults cleared, then one word");

  detuning = 0.0;
  on_both([](core::TensorCore& c) { c.recalibrate(); });
  load();
  const Matrix relocked = sample("re-locked, then no word changed");

  words[0][1] = (words[0][1] + 5) % 8;
  load();
  EXPECT_TRUE(only_row_moved(relocked, sample("one word, chain current"), 0));
}

TEST(FastPath, ProbeSweepAndDetuningRoundTripLeaveNoTrace) {
  // drift_serving's core: 6-bit weights on a varied die.  A core taken
  // through a +-4 K probe sweep, a ring fault and its clearing, a detuning
  // y and back to x must equal, bit for bit, a fresh core of the same die
  // taken straight to x: in its fast outputs, its physics outputs and its
  // probe reading.  Each macro holds its detuning and each ring its cached
  // electro-optic shifts, so nothing of the sweep, the fault or y may
  // survive in them or in the transmission table.
  core::TensorCoreConfig config = core_config(true);
  config.weight_bits = 6;
  config.variation.seed = 42;
  Rng rng(72);
  const WordMatrix words = random_words(core::TensorCore(config), rng);
  const Matrix x = random_activations(6, 16, rng);
  std::vector<double> sweep;
  for (double k = -4.0; k <= 4.0; k += 0.5) sweep.push_back(k);
  const double x_kelvin = 0.35;
  const double y_kelvin = -1.2;
  const std::size_t row = 4;
  const std::size_t col = 9;
  const unsigned bit_row = 2;
  const bool stored = (words[row][col] >> (5 - bit_row)) & 1u;
  const core::RingFaultSite fault{
      .row = row, .col = col, .bit = bit_row,
      .kind = stored ? core::RingFaultKind::kStuckOn
                     : core::RingFaultKind::kStuckOff};

  std::vector<Matrix> fresh_outputs;
  for (const bool fast_path : {true, false}) {
    config.fast_path = fast_path;
    const std::string path = fast_path ? " (fast)" : " (physics)";
    core::TensorCore core(config);
    core.load_weights(words);
    core.set_thermal_detuning(x_kelvin);
    const Matrix at_x = core.multiply_analog_batch(x);
    const double probe_at_x = core.probe_transmission();

    const std::vector<double> curve = core.probe_response_curve(sweep);
    EXPECT_NE(curve.front(), curve[curve.size() / 2]) << path;
    EXPECT_EQ(core.probe_transmission(), probe_at_x)
        << "after the sweep" << path;
    EXPECT_EQ(core.multiply_analog_batch(x).max_abs_diff(at_x), 0.0)
        << "after the sweep" << path;

    core.inject_ring_faults({fault});
    EXPECT_TRUE(only_row_moved(at_x, core.multiply_analog_batch(x), row))
        << "under the fault" << path;
    core.clear_faults();
    core.set_thermal_detuning(y_kelvin);
    EXPECT_GT(core.multiply_analog_batch(x).max_abs_diff(at_x), 0.0)
        << "at y" << path;
    EXPECT_NE(core.probe_transmission(), probe_at_x) << "at y" << path;
    core.set_thermal_detuning(x_kelvin);

    core::TensorCore fresh(config);
    fresh.load_weights(words);
    fresh.set_thermal_detuning(x_kelvin);
    expect_same_outputs(core, fresh, x, "back at x" + path);
    EXPECT_EQ(core.probe_transmission(), fresh.probe_transmission()) << path;
    fresh_outputs.push_back(fresh.multiply_analog_batch(x));
  }
  EXPECT_EQ(fresh_outputs[0].max_abs_diff(fresh_outputs[1]), 0.0);
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

TEST(FastPath, ProbeReadingsAndPhysicsSamplesAllocateNothing) {
  // A probe reading walks every probe macro's rings, and a physics-oracle
  // sample every compute macro's; both read each macro's photocurrent from
  // a view of the input.  First drift_serving's core: 6-bit, varied and
  // detuned.
  core::TensorCoreConfig config = core_config(true);
  config.weight_bits = 6;
  config.variation.seed = 42;
  core::TensorCore drifting(config);
  Rng rng(29);
  drifting.load_weights(random_words(drifting, rng));
  drifting.set_thermal_detuning(0.35);
  const double reading = drifting.probe_transmission();  // warm-up
  EXPECT_NE(reading, 1.0);
  EXPECT_EQ(allocations_during([&] { drifting.probe_transmission(); }), 0u);

  // One row-form sample of a 3-bit 16 x 16 physics oracle.
  core::TensorCore physics(core_config(false));
  physics.load_weights_normalized(random_activations(16, 16, rng));
  const Matrix x = random_activations(1, 16, rng);
  Matrix out(1, 16);
  physics.multiply_analog_batch(x.data(), out.data());  // warm-up
  EXPECT_EQ(allocations_during(
                [&] { physics.multiply_analog_batch(x.data(), out.data()); }),
            0u);
}

TEST(FastPath, TilePassesIntoReusedBuffersAllocateNothing) {
  // A cached plan's passes, run into one set of gather buffers and one
  // reused contribution, allocate nothing once those have grown — for
  // every encoding and readout, across ragged and full tiles, and at a
  // smaller batch after a larger one.  Each pass equals the value form's,
  // which gathers into fresh buffers, bit for bit.
  core::TensorCore core(core_config(true));
  Rng rng(31);
  const Matrix w = random_signed(40, 20, rng);  // ragged k and m tiles
  const Matrix x_large = random_activations(6, 40, rng);
  const Matrix x_small = random_activations(2, 40, rng);
  for (const bool differential : {false, true}) {
    for (const bool quantize : {true, false}) {
      PhotonicBackendOptions options;
      options.differential_weights = differential;
      options.quantize_output = quantize;
      const auto weights = build_weight_plan(w, 16, 16, differential);
      TilePassBuffers buffers;
      TilePassResult result;
      Matrix x_norm;
      const auto run_all = [&](const Matrix& x) {
        const TilePlan plan = plan_from_weights(weights, x, x_norm);
        for (std::size_t i = 0; i < plan.passes.size(); ++i) {
          run_tile_pass(core, plan, i, x_norm, options, buffers, result);
        }
      };
      run_all(x_large);  // grows the buffers and the contribution
      const std::string label = std::string("differential=") +
                                (differential ? "1" : "0") +
                                " quantize=" + (quantize ? "1" : "0");
      EXPECT_EQ(allocations_during([&] { run_all(x_large); }), 0u) << label;
      EXPECT_EQ(allocations_during([&] { run_all(x_small); }), 0u) << label;

      const TilePlan plan = plan_from_weights(weights, x_small, x_norm);
      for (std::size_t i = 0; i < plan.passes.size(); ++i) {
        run_tile_pass(core, plan, i, x_norm, options, buffers, result);
        const TilePassResult fresh =
            run_tile_pass(core, plan, i, x_norm, options);
        EXPECT_EQ(result.contribution.rows(), plan.samples);
        EXPECT_EQ(result.contribution.data(), fresh.contribution.data())
            << label << " pass " << i;
        EXPECT_EQ(result.reload_time, fresh.reload_time);
      }
    }
  }
}

TEST(FastPath, FleetMatmulAllocatesAFixedCountPerCall) {
  // On cached plans a fleet matmul allocates only its result: as many
  // times for a batch-1 one-pass weight as for matmul_kernel's 256 x 128
  // times 128 x 64 over eight cores.
  runtime::AcceleratorConfig config;
  config.cores = 8;
  config.threads = 2;
  runtime::Accelerator fleet(config);
  Rng rng(37);
  const Matrix x_one = random_activations(1, 16, rng);
  const Matrix w_one = random_signed(16, 16, rng);
  const Matrix x_kernel = random_activations(256, 128, rng);
  const Matrix w_kernel = random_signed(128, 64, rng);
  // Warm-up builds both plans and grows every dispatch buffer.
  fleet.matmul(x_kernel, w_kernel);
  fleet.matmul(x_one, w_one);
  const std::size_t one_pass =
      allocations_during([&] { fleet.matmul(x_one, w_one); });
  const std::size_t kernel =
      allocations_during([&] { fleet.matmul(x_kernel, w_kernel); });
  EXPECT_EQ(one_pass, kernel);
  EXPECT_EQ(kernel, 1u);
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
  graph::Graph g(graph::Shape{{8, 8, 1}});
  g.conv2d(random_signed(9, 4, rng), 3)
      .bias(std::vector<double>(4, 0.05))
      .relu()
      .maxpool(2)
      .flatten()
      .matmul(random_signed(36, 5, rng));

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
  EXPECT_EQ(graph::run(g, fast, x).max_abs_diff(graph::run(g, physics, x)),
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
  // Training rewrites the weights and rebuilds the graph; the rebuilt
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

  // The rebuilt graph (with its fresh plan caches) must agree with
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
