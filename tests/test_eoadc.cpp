#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/eoadc.hpp"
#include "core/tensor_core.hpp"

namespace {

using namespace ptc::core;

TEST(EoAdc, QuantizationGeometry) {
  EoAdc adc;
  EXPECT_EQ(adc.bits(), 3u);
  EXPECT_EQ(adc.channel_count(), 8u);
  EXPECT_DOUBLE_EQ(adc.lsb(), 0.5);
  EXPECT_EQ(adc.max_code(), 7u);
  // References sit at bin centres.
  EXPECT_NEAR(adc.reference_voltage(0), 0.25, 1e-12);
  EXPECT_NEAR(adc.reference_voltage(7), 3.75, 1e-12);
}

class BinCentres : public ::testing::TestWithParam<unsigned> {};

TEST_P(BinCentres, OneHotAtEveryBinCentre) {
  const unsigned bin = GetParam();
  EoAdc adc;
  const double v = (bin + 0.5) * adc.lsb();
  const auto conv = adc.convert(v);
  EXPECT_EQ(conv.code, bin);
  EXPECT_TRUE(conv.any_active);
  EXPECT_FALSE(conv.boundary);
  EXPECT_FALSE(conv.fault);
  // Exactly one channel active: the 1-hot property.
  std::size_t active = 0;
  for (bool a : conv.active) active += a ? 1 : 0;
  EXPECT_EQ(active, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBins, BinCentres,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(EoAdc, PaperFig9StaticCases) {
  EoAdc adc;
  EXPECT_EQ(adc.code(0.72), 0b001u);
  EXPECT_EQ(adc.code(3.30), 0b110u);
  const auto boundary = adc.convert(2.0);
  EXPECT_EQ(boundary.code, 0b100u);
  EXPECT_TRUE(boundary.boundary);  // B4 and B5 both fired
}

TEST(EoAdc, BoundaryDoubleActivationPattern) {
  EoAdc adc;
  const auto conv = adc.convert(2.0);
  std::size_t active = 0;
  for (bool a : conv.active) active += a ? 1 : 0;
  EXPECT_EQ(active, 2u);
  EXPECT_TRUE(conv.active[3]);
  EXPECT_TRUE(conv.active[4]);
}

TEST(EoAdc, MonotoneTransferFunction) {
  EoAdc adc;
  unsigned prev = 0;
  for (double v = 0.0; v <= 4.0; v += 0.01) {
    const unsigned code = adc.code(v);
    EXPECT_GE(code, prev) << "non-monotonic at " << v;
    prev = code;
  }
  EXPECT_EQ(prev, 7u);  // reaches full scale
}

TEST(EoAdc, CodeEdgesUniformlySpaced) {
  EoAdc adc;
  const auto edges = adc.code_edges();
  ASSERT_EQ(edges.size(), 7u);
  for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
    EXPECT_NEAR(edges[k + 1] - edges[k], 0.5, 0.01);
  }
  // Small uniform offset from the activation-window overlap is expected.
  EXPECT_NEAR(edges[0], 0.49, 0.02);
}

TEST(EoAdc, LinearityCleanLadder) {
  EoAdc adc;
  const auto lin = adc.linearity();
  EXPECT_LT(lin.max_abs_dnl, 0.1);
  EXPECT_LT(lin.max_abs_inl, 0.1);
  EXPECT_FALSE(lin.missing_codes);  // Fig. 10: no missing codes
}

TEST(EoAdc, MismatchedLadderDegradesDnlWithoutMissingCodes) {
  EoAdcConfig config;
  config.vref_mismatch_sigma = 8e-3;
  config.mismatch_seed = 5;
  EoAdc adc(config);
  const auto lin = adc.linearity();
  EXPECT_GT(lin.max_abs_dnl, 0.005);  // visible DNL
  EXPECT_LT(lin.max_abs_dnl, 0.5);
  EXPECT_FALSE(lin.missing_codes);
}

TEST(EoAdc, Fig8ChannelPowerDipsAtReferences) {
  EoAdc adc;
  for (std::size_t ch = 0; ch < 8; ++ch) {
    const double at_ref = adc.channel_thru_power(ch, adc.reference_voltage(ch));
    EXPECT_LT(at_ref, 1e-6);  // deep notch at own reference
    // Half a volt away the channel is far above threshold.
    const double away =
        adc.channel_thru_power(ch, adc.reference_voltage(ch) + 0.5);
    EXPECT_GT(away, 2.5 * 18e-6);
  }
}

TEST(EoAdc, PowerBudgetMatchesPaper) {
  const EoAdc adc;
  EXPECT_NEAR(adc.optical_power_delivered() * 1e3, 1.744, 1e-6);
  EXPECT_NEAR(adc.optical_wall_power() * 1e3, 7.58, 0.01);   // paper: 7.58 mW
  EXPECT_NEAR(adc.electrical_power() * 1e3, 11.0, 0.1);      // paper: 11 mW
  EXPECT_NEAR(adc.energy_per_conversion() * 1e12, 2.32, 0.02);  // 2.32 pJ
  EXPECT_DOUBLE_EQ(adc.sample_rate(), 8e9);                  // 8 GS/s
}

TEST(EoAdc, AmplifierLessModeMatchesPaper) {
  EoAdcConfig config;
  config.use_amplifier_chain = false;
  const EoAdc slow(config);
  const EoAdc fast;
  // Paper: 416.7 MS/s with 58% less electrical power.
  EXPECT_NEAR(slow.sample_rate() / 1e6, 416.7, 25.0);
  const double reduction =
      1.0 - slow.electrical_power() / fast.electrical_power();
  EXPECT_NEAR(reduction, 0.58, 0.01);
}

class TransientVsStatic : public ::testing::TestWithParam<double> {};

TEST_P(TransientVsStatic, TransientCodeMatchesStatic) {
  EoAdc adc;
  const double v = GetParam();
  const unsigned expected = adc.code(v);
  const auto result = adc.convert_transient(v);
  EXPECT_EQ(result.conversion.code, expected) << "at " << v << " V";
  EXPECT_TRUE(result.completed);
}

INSTANTIATE_TEST_SUITE_P(Voltages, TransientVsStatic,
                         ::testing::Values(0.1, 0.72, 1.3, 1.6, 2.0, 2.4, 2.9,
                                           3.3, 3.9));

TEST(EoAdc, TransientDecisionWithinSamplingWindow) {
  EoAdc adc;
  // Worst case is near a code edge where the balanced current is smallest.
  const auto result = adc.convert_transient(1.95);
  EXPECT_TRUE(result.completed);
  EXPECT_LT(result.decision_time, 125e-12);  // inside the 8 GS/s window
}

TEST(EoAdc, TransientBoundaryCeiling) {
  EoAdc adc;
  const auto result = adc.convert_transient(2.0);
  EXPECT_EQ(result.conversion.code, 0b100u);
  EXPECT_TRUE(result.conversion.boundary);
}

TEST(EoAdc, TransientTracesRecorded) {
  EoAdc adc;
  ptc::sim::TraceSet traces;
  adc.convert_transient(0.72, &traces);
  ASSERT_TRUE(traces.contains("qp1"));
  ASSERT_TRUE(traces.contains("b1"));
  // The active channel's Qp discharges below its 0.9 V bias point.
  EXPECT_LT(traces.get("qp1").final_value(), 0.9);
  // An inactive channel's Qp climbs instead.
  EXPECT_GT(traces.get("qp5").final_value(), 0.9);
}

TEST(EoAdc, FourBitVariantWorks) {
  EoAdcConfig config;
  config.bits = 4;
  EoAdc adc(config);
  EXPECT_EQ(adc.channel_count(), 16u);
  EXPECT_DOUBLE_EQ(adc.lsb(), 0.25);
  // Spot-check a few bins.
  EXPECT_EQ(adc.code(0.125), 0u);
  EXPECT_EQ(adc.code(2.125), 8u);
  EXPECT_EQ(adc.code(3.875), 15u);
}

// --- decision window vs ring walk ---------------------------------------------
//
// code() decides through the interval table built from the bias window
// located at construction; convert() walks every ring.  The two must agree
// on every input, so the sweeps below hunt where a mismatch could hide: far
// out in bias up to (and past) the half-FSR limit the window is trusted to,
// the last doubles at either window edge, every break of the table, and the
// code edges of every channel (including ladders mismatched badly enough to
// leave dead zones, where the deepest-dip fallback decides).

}  // namespace

namespace ptc::core {

/// Reads the decision window and interval table EoAdc keeps private.
class EoAdcWindow : public ::testing::Test {
 protected:
  static bool fires(EoAdc& adc, double bias) { return adc.fires_at_bias(bias); }
  static double low(const EoAdc& adc) { return adc.window_lo_; }
  static double high(const EoAdc& adc) { return adc.window_hi_; }
  static double bias_limit(const EoAdc& adc) { return adc.bias_limit_; }
  static bool in_window(const EoAdc& adc, double bias) {
    return bias >= low(adc) && bias <= high(adc);
  }
  /// Inputs the interval table covers: [input_low, input_high].
  static double input_low(const EoAdc& adc) { return adc.window_v_lo_; }
  static double input_high(const EoAdc& adc) { return adc.window_v_hi_; }
  /// The table's breaks, in ascending order.
  static std::vector<double> breaks(const EoAdc& adc) {
    return {adc.breaks_.begin(),
            adc.breaks_.begin() + static_cast<std::ptrdiff_t>(adc.break_count_)};
  }
  /// True when interval i sends its inputs to the deepest-dip walk.
  static bool walks(const EoAdc& adc, std::size_t i) {
    return adc.interval_code_[i] == EoAdc::kWalk;
  }
};

}  // namespace ptc::core

namespace {

struct WindowCase {
  unsigned bits;
  double sigma;
  bool amplifiers;
};

std::string describe(const WindowCase& c) {
  return std::to_string(c.bits) + "-bit, sigma " + std::to_string(c.sigma) +
         (c.amplifiers ? "" : ", amplifier-less");
}

/// Ladders of every width and mismatch, plus the amplifier-less mode.
std::vector<WindowCase> window_cases() {
  std::vector<WindowCase> cases;
  for (unsigned bits = 1; bits <= 4; ++bits) {
    for (const double sigma : {0.0, 0.01, 0.05, 0.2}) {
      cases.push_back({bits, sigma, true});
    }
  }
  cases.push_back({3, 0.0, false});
  return cases;
}

/// The bias predicate depends only on the ring design, which only the
/// width changes (finer LSBs tune harder): one ideal ladder per width.
std::vector<WindowCase> ring_cases() {
  std::vector<WindowCase> cases;
  for (unsigned bits = 1; bits <= 4; ++bits) cases.push_back({bits, 0.0, true});
  return cases;
}

EoAdc make_adc(const WindowCase& c) {
  EoAdcConfig config;
  config.bits = c.bits;
  config.vref_mismatch_sigma = c.sigma;
  config.mismatch_seed = 11;
  config.use_amplifier_chain = c.amplifiers;
  return EoAdc(config);
}

/// Number of inputs where the window code differs from the ring walk.
std::size_t code_mismatches(EoAdc& adc, const std::vector<double>& inputs) {
  std::size_t mismatches = 0;
  for (const double v : inputs) {
    mismatches += adc.code(v) != adc.convert(v).code ? 1 : 0;
  }
  return mismatches;
}

TEST_F(EoAdcWindow, WindowIsTheWholeActiveSetUpToHalfAnFsr) {
  // Dense 1e-4 V steps over +-20 V of bias, where the window and the first
  // resonance order sit, then 0.1 % geometric steps out to the bias whose
  // electro-optic shift reaches half an FSR (kilovolts), the limit itself
  // and just past it: the predicate is the window everywhere.
  for (const WindowCase& c : ring_cases()) {
    EoAdc adc = make_adc(c);
    const double limit = bias_limit(adc);
    ASSERT_LT(low(adc), 0.0) << describe(c);
    ASSERT_GT(high(adc), 0.0) << describe(c);
    ASSERT_GT(limit, 20.0) << describe(c);
    std::vector<double> biases;
    for (int i = -200000; i <= 200000; ++i) biases.push_back(1e-4 * i);
    for (double b = 20.0; b < limit; b *= 1.001) {
      biases.push_back(b);
      biases.push_back(-b);
    }
    for (const double b : {limit, limit * (1.0 + 1e-12), limit * 1.001}) {
      biases.push_back(b);
      biases.push_back(-b);
    }
    std::size_t mismatches = 0;
    for (const double bias : biases) {
      mismatches += fires(adc, bias) != in_window(adc, bias) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << describe(c);
  }
}

TEST_F(EoAdcWindow, CodeMatchesRingWalkPastTheHalfFsrLimit) {
  // Near four times the limit the shift reaches a whole FSR and the next
  // resonance order fires again, outside the window.  Inputs that put a
  // channel's bias there, or anywhere on 0.1 % geometric steps from the
  // limit out to six times it, must go to the ring walk.
  for (const WindowCase& c : ring_cases()) {
    EoAdc adc = make_adc(c);
    const double limit = bias_limit(adc);
    std::vector<double> second_order;
    std::vector<double> inputs;
    for (double b = limit; b < 6.0 * limit; b *= 1.001) {
      for (const double bias : {b, -b}) {
        if (fires(adc, bias)) second_order.push_back(bias);
        inputs.push_back(adc.reference_voltage(0) - bias);
        inputs.push_back(adc.reference_voltage(adc.channel_count() - 1) - bias);
      }
    }
    ASSERT_FALSE(second_order.empty()) << describe(c);
    for (const double bias : second_order) {
      for (std::size_t ch = 0; ch < adc.channel_count(); ++ch) {
        inputs.push_back(adc.reference_voltage(ch) - bias);
      }
    }
    EXPECT_EQ(code_mismatches(adc, inputs), 0u) << describe(c);
  }
}

TEST_F(EoAdcWindow, EdgesAreExactToTheLastDouble) {
  // Every double within 2^16 ulps of both edges: the predicate flips once,
  // exactly between the edge and its outward neighbour.
  constexpr int kUlps = 1 << 16;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const WindowCase& c : ring_cases()) {
    EoAdc adc = make_adc(c);
    std::size_t mismatches = 0;
    for (const double edge : {low(adc), high(adc)}) {
      double below = edge;
      double above = edge;
      for (int i = 0; i < kUlps; ++i) {
        below = std::nextafter(below, -kInf);
        above = std::nextafter(above, kInf);
        mismatches += fires(adc, below) != in_window(adc, below);
        mismatches += fires(adc, above) != in_window(adc, above);
      }
      mismatches += fires(adc, edge) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u) << describe(c);
  }
}

TEST_F(EoAdcWindow, CodeMatchesRingWalkOnRandomInputs) {
  for (const WindowCase& c : window_cases()) {
    EoAdc adc = make_adc(c);
    ptc::Rng rng(c.bits * 100 + static_cast<unsigned>(c.sigma * 1000));
    std::vector<double> inputs(4000);
    for (double& v : inputs) v = -2.0 + 14.0 * rng.uniform();
    EXPECT_EQ(code_mismatches(adc, inputs), 0u) << describe(c);
  }
}

TEST_F(EoAdcWindow, CodeMatchesRingWalkAroundEveryChannelEdge) {
  // +-2000 ulps of input around the two inputs where each channel's bias
  // V_REF,k - V_IN crosses a window edge.
  constexpr int kUlps = 2000;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const WindowCase& c : window_cases()) {
    EoAdc adc = make_adc(c);
    std::vector<double> inputs;
    for (std::size_t ch = 0; ch < adc.channel_count(); ++ch) {
      for (const double edge : {low(adc), high(adc)}) {
        const double centre = adc.reference_voltage(ch) - edge;
        double below = centre;
        double above = centre;
        inputs.push_back(centre);
        for (int i = 0; i < kUlps; ++i) {
          below = std::nextafter(below, -kInf);
          above = std::nextafter(above, kInf);
          inputs.push_back(below);
          inputs.push_back(above);
        }
      }
    }
    EXPECT_EQ(code_mismatches(adc, inputs), 0u) << describe(c);
  }
}

TEST_F(EoAdcWindow, TableMatchesRingWalkAtEveryBreak) {
  // code() reads the interval table; convert() walks every ring.  They
  // must agree at every break and 2 ulps either side, at every interval's
  // midpoint, and on a 1 mV sweep over [-V_FS / 2, 1.5 V_FS].
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const WindowCase& c : window_cases()) {
    EoAdc adc = make_adc(c);
    const std::vector<double> ends = breaks(adc);
    ASSERT_FALSE(ends.empty()) << describe(c);
    ASSERT_LE(ends.size(), 2 * adc.channel_count()) << describe(c);
    ASSERT_TRUE(std::adjacent_find(ends.begin(), ends.end(),
                                   std::greater_equal<>()) == ends.end())
        << describe(c) << ": breaks not strictly ascending";
    ASSERT_GT(ends.front(), input_low(adc)) << describe(c);
    ASSERT_LE(ends.back(), input_high(adc)) << describe(c);

    std::vector<double> inputs;
    for (const double end : ends) {
      double below = end;
      double above = end;
      inputs.push_back(end);
      for (int i = 0; i < 2; ++i) {
        below = std::nextafter(below, -kInf);
        above = std::nextafter(above, kInf);
        inputs.push_back(below);
        inputs.push_back(above);
      }
    }
    for (std::size_t i = 0; i <= ends.size(); ++i) {
      const double left = i == 0 ? input_low(adc) : ends[i - 1];
      const double right = i == ends.size() ? input_high(adc) : ends[i];
      inputs.push_back(left + 0.5 * (right - left));
    }
    const double full_scale = adc.config().v_full_scale;
    const int steps = static_cast<int>(std::lround(2.0 * full_scale / 1e-3));
    for (int i = 0; i <= steps; ++i) {
      inputs.push_back(-0.5 * full_scale + 1e-3 * i);
    }
    EXPECT_EQ(code_mismatches(adc, inputs), 0u) << describe(c);
  }

  // The ideal 3-bit ladder: some channel fires on every interval that meets
  // [0, V_FS], so in-range inputs at readout gain 1 never walk the rings.
  const EoAdc ideal;
  const std::vector<double> ends = breaks(ideal);
  const double full_scale = ideal.config().v_full_scale;
  std::size_t in_range = 0;
  for (std::size_t i = 0; i <= ends.size(); ++i) {
    const double left = i == 0 ? input_low(ideal) : ends[i - 1];
    const double right = i == ends.size() ? input_high(ideal) : ends[i];
    if (left > full_scale || right <= 0.0) continue;
    ++in_range;
    EXPECT_FALSE(walks(ideal, i)) << "interval " << i;
  }
  EXPECT_GE(in_range, ideal.channel_count());
}

TEST_F(EoAdcWindow, NoChannelFallbackMatchesRingWalk) {
  // Out of range on either side, and inside the dead zones of a badly
  // mismatched ladder, no channel fires: the deepest dip decides.
  for (const WindowCase& c : window_cases()) {
    EoAdc adc = make_adc(c);
    std::vector<double> dead;
    for (int i = -400; i <= 1200; ++i) {
      const double v = 1e-2 * i;
      if (!adc.convert(v).any_active) dead.push_back(v);
    }
    ASSERT_FALSE(dead.empty()) << describe(c);
    EXPECT_EQ(code_mismatches(adc, dead), 0u) << describe(c);
  }
  // Far enough out to reach other resonance orders, and NaN: the ring walk.
  EoAdc adc;
  const std::vector<double> extreme = {
      -1e6, -2e4, 2e4, 1e6, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(code_mismatches(adc, extreme), 0u);
}

TEST(EoAdc, RejectsBadConfig) {
  EoAdcConfig bad;
  bad.bits = 5;
  EXPECT_THROW(EoAdc{bad}, std::invalid_argument);
  bad = {};
  bad.trip_offset_ratio = 0.9;
  EXPECT_THROW(EoAdc{bad}, std::invalid_argument);

  // Each of these would otherwise become an infinite, negative or
  // unphysical sample window or power, or be silently ignored.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double rate : {0.0, -8e9, kInf, kNaN}) {
    bad = {};
    bad.sample_rate_with_amps = rate;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << rate;
  }
  for (const double efficiency : {0.0, -0.23, 1.5, kNaN}) {
    bad = {};
    bad.wall_plug_efficiency = efficiency;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << efficiency;
  }
  for (const double sigma : {-1e-3, kNaN, kInf}) {
    bad = {};
    bad.vref_mismatch_sigma = sigma;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << sigma;
  }
  for (const double margin : {0.0, -1.18, kNaN}) {
    bad = {};
    bad.no_amp_margin = margin;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << margin;
  }
  for (const double level : {-0.1, EoAdcConfig{}.tia.bias_point, 1.2, kNaN}) {
    bad = {};
    bad.no_amp_low_level = level;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << level;
  }
  // A negative power would otherwise pass into electrical_power() and the
  // energy per conversion with the wrong sign.
  for (const double power : {-1.0, -0.5e-3, kNaN, kInf}) {
    bad = {};
    bad.tia.power = power;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << power;
  }
  for (const double power : {-1.0, -0.3e-3, kNaN, kInf}) {
    bad = {};
    bad.amplifier.power = power;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << power;
  }
  for (const double power : {-1.0, -1.62e-3, kNaN, kInf}) {
    bad = {};
    bad.decoder_static_power = power;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << power;
  }
  for (const double power : {-1.0, -3e-3, kNaN, kInf}) {
    bad = {};
    bad.clock_power = power;
    EXPECT_THROW(EoAdc{bad}, std::invalid_argument) << power;
  }
  // The boundary values stay valid.
  EoAdcConfig edge;
  edge.wall_plug_efficiency = 1.0;
  edge.no_amp_low_level = 0.0;
  edge.tia.power = 0.0;
  edge.amplifier.power = 0.0;
  edge.decoder_static_power = 0.0;
  edge.clock_power = 0.0;
  EXPECT_NO_THROW(EoAdc{edge});

  // A core builds its converter from the same config, so it fails the same
  // way.
  TensorCoreConfig core_config;
  core_config.adc.wall_plug_efficiency = 0.0;
  EXPECT_THROW(TensorCore{core_config}, std::invalid_argument);
}

}  // namespace
