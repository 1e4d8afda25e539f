// The paper's Sec. IV-D performance model, as the simulated TensorCore
// reports it: headline throughput and efficiency, ops accounting, reload
// latency, the per-component power breakdown, geometry/precision/ADC-mode
// scaling, and Table I's "This Work" row, which reads the same accessors.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baseline/comparison.hpp"
#include "core/tensor_core.hpp"
#include "runtime/accelerator.hpp"

namespace {

using namespace ptc;
using namespace ptc::core;

TEST(PerformanceModel, PaperHeadlineNumbers) {
  TensorCore core;
  EXPECT_NEAR(core.throughput_ops() / 1e12, 4.10, 0.01);   // 4.10 TOPS
  EXPECT_NEAR(core.tops_per_watt() / 1e12, 3.02, 0.03);    // 3.02 TOPS/W
  EXPECT_EQ(core.bitcell_count(), 768u);                   // 768 bitcells
  EXPECT_DOUBLE_EQ(core.adc(0).sample_rate(), 8e9);        // ADC-limited
}

TEST(PerformanceModel, OpsAccounting) {
  const TensorCore core;
  // 16 rows x (16 multiplies + 16 additions).
  EXPECT_DOUBLE_EQ(core.ops_per_sample(), 512.0);
}

TEST(PerformanceModel, WeightReloadTime) {
  TensorCore core;
  const double reload = core.psram().reload_time();
  EXPECT_NEAR(reload * 1e9, 2.4, 1e-9);
  // One formula: a weight load returns it and the fleet bills it per pass.
  const std::vector<std::vector<std::uint32_t>> weights(
      core.rows(), std::vector<std::uint32_t>(core.cols(), 5));
  EXPECT_EQ(core.load_weights(weights), reload);
  const runtime::Accelerator accelerator({.cores = 2});
  EXPECT_EQ(accelerator.pass_cost(1).reload_s, reload);
}

TEST(PerformanceModel, PowerTableSumsToPower) {
  const TensorCore core;
  const TensorCore::PowerBreakdown parts = core.breakdown();
  double sum = 0.0;
  for (const double watts : {parts.adc, parts.row_tia, parts.comb_laser,
                             parts.psram_hold, parts.weight_update,
                             parts.control}) {
    EXPECT_GT(watts, 0.0);
    sum += watts;
  }
  EXPECT_NEAR(sum, core.power(), 1e-12);
}

TEST(PerformanceModel, AdcPowerShareMatchesPaperAdc) {
  const TensorCore core;
  // 16 ADCs at 18.6 mW each.
  EXPECT_NEAR(core.breakdown().adc * 1e3, 16 * 18.6, 2.0);
}

TEST(PerformanceModel, ReportRow) {
  // Table I's "This Work" row is the tensor core's own accessors, exactly.
  TensorCoreConfig big;
  big.rows = 32;
  big.cols = 32;
  for (const TensorCoreConfig& config : {TensorCoreConfig{}, big}) {
    const TensorCore core(config);
    const baseline::PerformanceReport report =
        baseline::table1_rows(config).back();
    EXPECT_EQ(report.name, "This Work");
    EXPECT_EQ(report.throughput_tops, core.throughput_ops() / 1e12);
    EXPECT_EQ(report.efficiency_tops_w, core.tops_per_watt() / 1e12);
    EXPECT_EQ(report.weight_update_hz, core.weight_update_rate());
  }
  const baseline::PerformanceReport report = baseline::table1_rows().back();
  EXPECT_NEAR(report.throughput_tops, 4.10, 0.01);
  EXPECT_NEAR(report.efficiency_tops_w, 3.02, 0.03);
  EXPECT_DOUBLE_EQ(report.weight_update_hz, 20e9);
}

TEST(PerformanceModel, ScalesWithGeometry) {
  TensorCoreConfig big;
  big.rows = 32;
  big.cols = 32;
  const TensorCore core(big);
  // 32 x 2 x 32 x 8e9 = 16.4 TOPS.
  EXPECT_NEAR(core.throughput_ops() / 1e12, 16.38, 0.05);
  EXPECT_EQ(core.bitcell_count(), 3072u);
}

TEST(PerformanceModel, PrecisionAffectsBitcellsNotThroughput) {
  TensorCoreConfig high_precision;
  high_precision.weight_bits = 5;
  const TensorCore core(high_precision);
  EXPECT_EQ(core.bitcell_count(), 1280u);
  EXPECT_NEAR(core.throughput_ops() / 1e12, 4.10, 0.01);
  // Reload takes longer: 16 x 5 bits at 20 GHz.
  EXPECT_NEAR(core.psram().reload_time() * 1e9, 4.0, 1e-9);
}

TEST(PerformanceModel, SlowAdcModeDropsThroughput) {
  TensorCoreConfig config;
  config.adc.use_amplifier_chain = false;
  const TensorCore core(config);
  // 416.7 MS/s instead of 8 GS/s: ~19x lower throughput.
  EXPECT_LT(core.throughput_ops() / 1e12, 0.25);
  EXPECT_GT(core.throughput_ops() / 1e12, 0.15);
}

}  // namespace
