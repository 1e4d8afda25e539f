#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/montecarlo.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

namespace {

using namespace ptc;
using namespace ptc::sim;

TEST(Trace, RecordAndQuery) {
  Trace t;
  t.record(0.0, 0.0);
  t.record(1.0, 1.0);
  t.record(2.0, 0.5);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.value_at(0.5), 0.5);   // interpolated
  EXPECT_DOUBLE_EQ(t.value_at(-1.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(t.value_at(9.0), 0.5);
  EXPECT_DOUBLE_EQ(t.final_value(), 0.5);
  EXPECT_DOUBLE_EQ(t.max_value(), 1.0);
}

TEST(Trace, RejectsOutOfOrder) {
  Trace t;
  t.record(1.0, 0.0);
  EXPECT_THROW(t.record(0.5, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(t.record(1.0, 1.0));  // equal time allowed
}

TEST(TraceSet, NamedTracesAndCsv) {
  TraceSet set;
  set.at("q").record(0.0, 0.0);
  set.at("q").record(1.0, 1.8);
  set.at("qb").record(0.0, 1.8);
  set.at("qb").record(1.0, 0.0);
  EXPECT_TRUE(set.contains("q"));
  EXPECT_FALSE(set.contains("x"));
  EXPECT_THROW(set.get("missing"), std::invalid_argument);

  const std::string path = ::testing::TempDir() + "/ptc_traces.csv";
  set.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time,q,qb");
  std::remove(path.c_str());
}

TEST(Sweep, OneDimensional) {
  const auto points = sweep_1d({1.0, 2.0, 3.0}, [](double x) { return x * x; });
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[2].value, 9.0);
}

TEST(Sweep, ParallelVariantsMatchSequentialInGridOrder) {
  runtime::ThreadPool pool(4);
  const std::vector<double> grid{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  auto metric = [](double x) { return x * x - 1.0; };
  const auto seq = sweep_1d(grid, metric);
  const auto par = sweep_1d_parallel(pool, grid, metric);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i].parameter, seq[i].parameter);
    EXPECT_DOUBLE_EQ(par[i].value, seq[i].value);
  }
}

TEST(Sweep, ParallelHandlesEmptyGrid) {
  runtime::ThreadPool pool(2);
  EXPECT_TRUE(sweep_1d_parallel(pool, {}, [](double x) { return x; }).empty());
}

TEST(MonteCarlo, DeterministicAndIndependent) {
  auto trial = [](Rng& rng) { return rng.normal(10.0, 2.0); };
  const auto a = run_monte_carlo(500, 42, trial);
  const auto b = run_monte_carlo(500, 42, trial);
  EXPECT_EQ(a.samples, b.samples);  // same seed, same results
  EXPECT_NEAR(a.mean, 10.0, 0.3);
  EXPECT_NEAR(a.std_dev, 2.0, 0.3);
  EXPECT_EQ(a.trials, 500u);
  const auto c = run_monte_carlo(500, 43, trial);
  EXPECT_NE(a.samples[0], c.samples[0]);  // different seed differs
}

TEST(MonteCarlo, YieldWithPassPredicate) {
  auto trial = [](Rng& rng) { return rng.uniform(); };
  const auto summary = run_monte_carlo(
      2000, 7, trial, [](double x) { return x < 0.25; });
  EXPECT_NEAR(summary.yield, 0.25, 0.05);
  EXPECT_THROW(run_monte_carlo(0, 1, trial), std::invalid_argument);
}

}  // namespace
