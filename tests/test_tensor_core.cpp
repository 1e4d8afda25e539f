#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"

namespace {

using namespace ptc;
using namespace ptc::core;

TensorCoreConfig small_config(std::size_t rows, std::size_t cols) {
  TensorCoreConfig config;
  config.rows = rows;
  config.cols = cols;
  return config;
}

TEST(TensorCore, PaperGeometry) {
  const TensorCore core;
  EXPECT_EQ(core.rows(), 16u);
  EXPECT_EQ(core.cols(), 16u);
  EXPECT_EQ(core.weight_bits(), 3u);
  EXPECT_EQ(core.bitcell_count(), 768u);  // paper Sec. IV-D
  EXPECT_EQ(core.macros_per_row(), 4u);   // four 1x4 macros per row
}

TEST(TensorCore, ThroughputMatchesPaper) {
  const TensorCore core;
  EXPECT_DOUBLE_EQ(core.ops_per_sample(), 512.0);  // 16 x (16 mul + 16 add)
  EXPECT_NEAR(core.throughput_ops() / 1e12, 4.10, 0.01);  // 4.10 TOPS
}

TEST(TensorCore, PowerEfficiencyMatchesPaper) {
  const TensorCore core;
  EXPECT_NEAR(core.power(), 1.356, 0.015);             // ~1.36 W
  EXPECT_NEAR(core.tops_per_watt() / 1e12, 3.02, 0.03);  // 3.02 TOPS/W
}

TEST(TensorCore, PowerBreakdownSumsToTotal) {
  const TensorCore core;
  const auto b = core.breakdown();
  EXPECT_NEAR(b.total(), core.power(), 1e-12);
  EXPECT_GT(b.adc, 0.25);       // 16 eoADCs dominate ~297 mW
  EXPECT_GT(b.row_tia, 0.5);    // readout TIAs ~608 mW
  EXPECT_GT(b.psram_hold, 0.03);
  EXPECT_GT(b.comb_laser, 0.1);
}

TEST(TensorCore, WeightUpdateRate20GHz) {
  const TensorCore core;
  EXPECT_DOUBLE_EQ(core.weight_update_rate(), 20e9);
}

TEST(TensorCore, LoadWeightsReloadLatency) {
  TensorCore core;
  std::vector<std::vector<std::uint32_t>> w(
      16, std::vector<std::uint32_t>(16, 5));
  const double latency = core.load_weights(w);
  EXPECT_NEAR(latency * 1e9, 2.4, 1e-9);  // 16 words x 3 bits / 20 GHz
  EXPECT_EQ(core.psram().word(7, 7), 5u);
}

TEST(TensorCore, MultiplyMatchesDigitalReferenceWithinOneLsb) {
  TensorCore core;
  Rng rng(77);
  std::vector<std::vector<std::uint32_t>> w(16,
                                            std::vector<std::uint32_t>(16));
  for (auto& row : w)
    for (auto& v : row) v = static_cast<std::uint32_t>(rng.below(8));
  core.load_weights(w);

  std::vector<double> input(16);
  for (auto& v : input) v = rng.uniform();

  const auto codes = core.multiply(input);
  const auto reference = core.reference(input);
  for (std::size_t r = 0; r < 16; ++r) {
    // reference() is normalized to [0, 1]; the 3-bit ADC spans that range
    // with 8 bins, so the ideal (unquantized) code value is reference * 8.
    const double ideal = reference[r] * 8.0;
    EXPECT_NEAR(static_cast<double>(codes[r]), ideal, 1.1) << "row " << r;
  }
}

class RandomMatmuls : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMatmuls, AnalogRowValuesTrackReference) {
  TensorCore core;
  Rng rng(GetParam());
  std::vector<std::vector<std::uint32_t>> w(16,
                                            std::vector<std::uint32_t>(16));
  for (auto& row : w)
    for (auto& v : row) v = static_cast<std::uint32_t>(rng.below(8));
  core.load_weights(w);
  std::vector<double> input(16);
  for (auto& v : input) v = rng.uniform();

  const auto analog = core.multiply_analog(input);
  const auto reference = core.reference(input);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_NEAR(analog[r], reference[r], 0.02) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatmuls,
                         ::testing::Values(1, 2, 3, 11, 29));

TEST(TensorCore, NormalizedWeightLoadingQuantizes) {
  TensorCore core;
  Matrix w(16, 16, 0.0);
  w(0, 0) = 1.0;    // -> 7
  w(0, 1) = 0.5;    // -> 4 (round(3.5))
  w(0, 2) = 0.1;    // -> 1
  core.load_weights_normalized(w);
  EXPECT_EQ(core.psram().word(0, 0), 7u);
  EXPECT_EQ(core.psram().word(0, 1), 4u);
  EXPECT_EQ(core.psram().word(0, 2), 1u);
}

TEST(TensorCore, BatchMultiplyShapes) {
  TensorCore core;
  std::vector<std::vector<std::uint32_t>> w(
      16, std::vector<std::uint32_t>(16, 7));
  core.load_weights(w);
  Matrix inputs(3, 16, 0.5);
  const Matrix out = core.multiply_batch(inputs);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 16u);
  // Uniform weights and inputs: every output is identical and mid-scale.
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t r = 0; r < 16; ++r) EXPECT_NEAR(out(s, r), 0.5, 0.15);
}

TEST(TensorCore, LedgerAccruesPerSample) {
  TensorCore core;
  std::vector<std::vector<std::uint32_t>> w(
      16, std::vector<std::uint32_t>(16, 3));
  core.load_weights(w);
  const double before = core.ledger().total_energy();
  core.multiply(std::vector<double>(16, 0.5));
  core.multiply(std::vector<double>(16, 0.5));
  const double after = core.ledger().total_energy();
  EXPECT_EQ(core.samples_processed(), 2u);
  // Two 125 ps windows of ~1.36 W: ~0.34 nJ.
  EXPECT_NEAR((after - before) * 1e9, 0.339, 0.02);
}

TEST(TensorCore, SmallerGeometriesWork) {
  TensorCore core(small_config(4, 4));
  EXPECT_EQ(core.bitcell_count(), 48u);
  std::vector<std::vector<std::uint32_t>> w(4, std::vector<std::uint32_t>(4, 7));
  core.load_weights(w);
  const auto codes = core.multiply({1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(codes.size(), 4u);
  for (unsigned c : codes) EXPECT_EQ(c, 7u);  // full scale everywhere
}

TEST(TensorCore, EightByEightThroughputScales) {
  const TensorCore core(small_config(8, 8));
  // 8 x 2 x 8 = 128 ops/sample at 8 GS/s = 1.024 TOPS.
  EXPECT_NEAR(core.throughput_ops() / 1e12, 1.024, 1e-9);
}

TEST(TensorCore, EveryRowReadsThroughTheConfiguredLadder) {
  // A mismatched reference ladder in config.adc reaches every row: each
  // quantized output is the code a standalone converter built from the same
  // config gives that row's analog value, on the decision-window fast path
  // and on the ring-walk physics path alike.
  for (const bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "fast path" : "physics path");
    TensorCoreConfig config;
    config.fast_path = fast_path;
    config.adc.vref_mismatch_sigma = 0.05;
    config.adc.mismatch_seed = 5;
    TensorCore core(config);
    const EoAdc standalone(config.adc);
    EoAdcConfig ideal_config = config.adc;
    ideal_config.vref_mismatch_sigma = 0.0;
    const EoAdc ideal(ideal_config);

    for (std::size_t r = 0; r < core.rows(); ++r) {
      for (std::size_t ch = 0; ch < standalone.channel_count(); ++ch) {
        EXPECT_EQ(core.adc(r).reference_voltage(ch),
                  standalone.reference_voltage(ch))
            << "row " << r << ", channel " << ch;
      }
    }

    Rng rng(29);
    std::vector<std::vector<std::uint32_t>> w(
        core.rows(), std::vector<std::uint32_t>(core.cols()));
    for (auto& row : w)
      for (auto& v : row) v = static_cast<std::uint32_t>(rng.below(8));
    core.load_weights(w);
    const Matrix inputs = random_activations(64, core.cols(), rng);
    const Matrix analog = core.multiply_analog_batch(inputs);
    const Matrix out = core.multiply_batch(inputs);

    const double scale = static_cast<double>(standalone.max_code());
    std::size_t mismatch_decides = 0;
    for (std::size_t s = 0; s < inputs.rows(); ++s) {
      for (std::size_t r = 0; r < core.rows(); ++r) {
        // Readout gain 1: the row TIA maps full scale onto V_FS.
        const double v_adc = analog(s, r) * config.adc.v_full_scale;
        const unsigned code = fast_path ? standalone.code(v_adc)
                                        : standalone.convert(v_adc).code;
        EXPECT_EQ(out(s, r), static_cast<double>(code) / scale)
            << "sample " << s << ", row " << r;
        if (ideal.code(v_adc) != code) ++mismatch_decides;
      }
    }
    // Not vacuous: the mismatch moves at least one of these conversions.
    EXPECT_GT(mismatch_decides, 0u);
  }
}

TEST(TensorCore, BatchReadoutCountsEveryConversionAndMatchesSingleSamples) {
  // A batch books one conversion per row per sample, dead ladders included
  // (they still clock), and one saturation per full-scale code it outputs.
  // The dead row reads zero, and the batch equals single-sample multiplies
  // with their codes divided by max_code, bit for bit.  A readout gain of
  // 4 drives some rows to full scale.
  for (const bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "fast path" : "physics path");
    TensorCoreConfig config;
    config.fast_path = fast_path;
    TensorCore core(config);
    Rng rng(31);
    std::vector<std::vector<std::uint32_t>> w(
        core.rows(), std::vector<std::uint32_t>(core.cols()));
    for (auto& row : w)
      for (auto& v : row) v = static_cast<std::uint32_t>(rng.below(8));
    core.load_weights(w);
    constexpr std::size_t kDeadRow = 6;
    core.inject_adc_fault(kDeadRow);
    core.set_readout_gain(4.0);
    const Matrix inputs = random_activations(24, core.cols(), rng);

    const std::uint64_t conversions = core.adc_conversions();
    const std::uint64_t saturations = core.adc_saturations();
    const Matrix out = core.multiply_batch(inputs);
    EXPECT_EQ(core.adc_conversions() - conversions,
              inputs.rows() * core.rows());
    std::uint64_t full_scale = 0;
    for (const double level : out.data()) full_scale += level == 1.0 ? 1 : 0;
    ASSERT_GT(full_scale, 0u);
    ASSERT_LT(full_scale, out.data().size() - inputs.rows());
    EXPECT_EQ(core.adc_saturations() - saturations, full_scale);

    const double scale = static_cast<double>(core.adc(0).max_code());
    for (std::size_t s = 0; s < inputs.rows(); ++s) {
      EXPECT_EQ(out(s, kDeadRow), 0.0) << "sample " << s;
      const auto first = inputs.data().begin() +
                         static_cast<std::ptrdiff_t>(s * inputs.cols());
      const std::vector<unsigned> codes = core.multiply(
          {first, first + static_cast<std::ptrdiff_t>(inputs.cols())});
      for (std::size_t r = 0; r < core.rows(); ++r) {
        EXPECT_EQ(out(s, r), static_cast<double>(codes[r]) / scale)
            << "sample " << s << ", row " << r;
      }
    }
  }
}

TEST(TensorCore, RejectsBadShapes) {
  EXPECT_THROW(TensorCore(small_config(16, 15)), std::invalid_argument);
  TensorCore core;
  EXPECT_THROW(core.multiply(std::vector<double>(15, 0.5)),
               std::invalid_argument);
  std::vector<std::vector<std::uint32_t>> bad(3);
  EXPECT_THROW(core.load_weights(bad), std::invalid_argument);
  Matrix w(16, 16, 2.0);  // out of [0, 1]
  EXPECT_THROW(core.load_weights_normalized(w), std::invalid_argument);

  // A rejected load changes nothing: every value and word is checked
  // before the first is stored.  Each bad load differs from the resident
  // words from its first block on and is bad only in its last entry.
  for (const bool fast_path : {true, false}) {
    TensorCoreConfig config;
    config.fast_path = fast_path;
    config.variation.seed = 17;
    TensorCore varied(config);
    Rng rng(29);
    std::vector<std::vector<std::uint32_t>> words_a(
        16, std::vector<std::uint32_t>(16));
    for (auto& row : words_a) {
      for (std::uint32_t& word : row) {
        word = static_cast<std::uint32_t>(rng.below(8));
      }
    }
    varied.load_weights(words_a);
    const Matrix x = random_activations(4, 16, rng);
    const std::vector<std::uint32_t> stored(varied.psram().words().begin(),
                                            varied.psram().words().end());
    const std::uint64_t flips = varied.psram().bit_flips();
    const std::uint64_t writes = varied.psram().word_writes();
    const double energy = varied.psram().ledger().energy("psram_write");
    const Matrix analog = varied.multiply_analog_batch(x);
    const Matrix codes = varied.multiply_batch(x);

    Matrix other = random_activations(16, 16, rng);
    for (const double bad : {1.5, std::nan("")}) {
      other(15, 15) = bad;
      EXPECT_THROW(varied.load_weights_normalized(other),
                   std::invalid_argument);
    }
    std::vector<std::vector<std::uint32_t>> words_bad = words_a;
    for (auto& row : words_bad) {
      for (std::uint32_t& word : row) word = 7 - word;
    }
    words_bad[15][15] = 8;
    EXPECT_THROW(varied.load_weights(words_bad), std::invalid_argument);

    const char* path = fast_path ? "fast" : "physics";
    EXPECT_TRUE(std::equal(stored.begin(), stored.end(),
                           varied.psram().words().begin(),
                           varied.psram().words().end()))
        << path;
    EXPECT_EQ(varied.psram().bit_flips(), flips) << path;
    EXPECT_EQ(varied.psram().word_writes(), writes) << path;
    EXPECT_EQ(varied.psram().ledger().energy("psram_write"), energy)  // bitwise
        << path;
    EXPECT_EQ(varied.multiply_analog_batch(x).data(), analog.data()) << path;
    EXPECT_EQ(varied.multiply_batch(x).data(), codes.data()) << path;
  }
}

}  // namespace
