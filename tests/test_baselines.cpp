#include <gtest/gtest.h>

#include "baseline/comparison.hpp"
#include "baseline/pcm_crossbar.hpp"

namespace {

using namespace ptc;
using namespace ptc::baseline;

TEST(PcmCrossbar, ProgramAndRead) {
  PcmCrossbar xbar;
  Matrix w(16, 16, 0.0);
  w(0, 0) = 1.0;
  w(0, 1) = 0.5;
  xbar.program(w);
  EXPECT_NEAR(xbar.transmittance(0, 0), 0.95, 1e-9);  // t_max
  EXPECT_NEAR(xbar.transmittance(0, 1), 0.5, 0.05);
  EXPECT_NEAR(xbar.transmittance(5, 5), 0.05, 1e-9);  // t_min
}

TEST(PcmCrossbar, MultiplyIsLinearInTransmittance) {
  PcmCrossbarConfig config;
  config.rows = 2;
  config.cols = 2;
  config.t_min = 0.0;
  config.t_max = 1.0;
  config.levels = 256;
  PcmCrossbar xbar(config);
  xbar.program(Matrix{{1.0, 0.5}, {0.0, 0.25}});
  const auto y = xbar.multiply({1.0, 1.0});
  EXPECT_NEAR(y[0], 1.5, 0.01);
  EXPECT_NEAR(y[1], 0.25, 0.01);
}

TEST(PcmCrossbar, WriteCostAndLatency) {
  PcmCrossbar xbar;
  Matrix w(16, 16, 0.7);
  const double latency = xbar.program(w);
  // 256 changed cells over 16 parallel rows at 100 ns each = 1.6 us —
  // versus the pSRAM array's 2.4 ns (the paper's update-speed argument).
  EXPECT_NEAR(latency * 1e6, 1.6, 0.01);
  EXPECT_NEAR(xbar.write_energy_consumed() * 1e9, 256 * 18e-3, 0.1);
  // Unchanged reprogram is free.
  EXPECT_NEAR(xbar.program(w), 0.0, 1e-12);
}

TEST(PcmCrossbar, DriftDegradesOverTime) {
  PcmCrossbar xbar;
  Matrix w(16, 16, 1.0);
  xbar.program(w);
  const auto fresh = xbar.multiply(std::vector<double>(16, 1.0), 0.0);
  const auto aged = xbar.multiply(std::vector<double>(16, 1.0), 3600.0);
  EXPECT_LT(aged[0], fresh[0]);
  EXPECT_GT(aged[0], 0.8 * fresh[0]);  // bounded drift
}

TEST(PcmCrossbar, EnduranceTracking) {
  PcmCrossbarConfig config;
  config.rows = 1;
  config.cols = 1;
  config.endurance = 10;
  PcmCrossbar xbar(config);
  for (int i = 0; i < 12; ++i) {
    Matrix w(1, 1, (i % 2) ? 1.0 : 0.0);
    xbar.program(w);
  }
  EXPECT_EQ(xbar.max_cell_updates(), 12u);
  EXPECT_TRUE(xbar.worn_out());
}

TEST(Comparison, TableHasAllSixRows) {
  const auto rows = table1_rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows.back().name, "This Work");
  // Paper Table I values.
  EXPECT_NEAR(rows[0].throughput_tops, 0.12, 0.01);   // [33]
  EXPECT_NEAR(rows[1].throughput_tops, 0.93, 1e-9);   // [48]
  EXPECT_NEAR(rows[2].throughput_tops, 11.0, 1e-9);   // [49]
  EXPECT_NEAR(rows[3].efficiency_tops_w, 10.0, 1e-9); // [50]
  EXPECT_NEAR(rows[4].throughput_tops, 3.98, 1e-9);   // [51]
  EXPECT_NEAR(rows.back().throughput_tops, 4.10, 0.01);
  EXPECT_NEAR(rows.back().efficiency_tops_w, 3.02, 0.03);
}

TEST(Comparison, ThisWorkHasFastestWeightUpdateExceptTfln) {
  const auto rows = table1_rows();
  const double ours = rows.back().weight_update_hz;
  EXPECT_DOUBLE_EQ(ours, 20e9);
  for (std::size_t i = 1; i + 1 < rows.size(); ++i) {  // skip [33] (60 GHz EO)
    EXPECT_GT(ours, rows[i].weight_update_hz) << rows[i].name;
  }
  // [33] updates faster but computes 34x slower than this work.
  EXPECT_GT(rows[0].weight_update_hz, ours);
  EXPECT_LT(rows[0].throughput_tops, 0.1 * rows.back().throughput_tops);
}

}  // namespace
