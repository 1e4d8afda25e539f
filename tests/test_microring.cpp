#include <gtest/gtest.h>

#include "core/tech.hpp"
#include "optics/microring.hpp"

namespace {

using namespace ptc::optics;
using ptc::core::adc_ring_config;
using ptc::core::compute_ring_config;
using ptc::core::channel_wavelength;

// ---------------------------------------------------------------------------
// Compute/pSRAM ring (7.5 um, add-drop, 200 nm gaps) — paper Sec. IV-B.
// ---------------------------------------------------------------------------

TEST(ComputeRing, FsrMatchesPaper) {
  const Microring ring(compute_ring_config(0, 0.0));
  // Paper: 9.36 nm FSR.
  EXPECT_NEAR(ring.fsr(1310e-9) * 1e9, 9.36, 0.01);
}

TEST(ComputeRing, ResonancePinnedAtDesignWavelength) {
  const Microring ring(compute_ring_config(0, 0.0));
  EXPECT_NEAR(ring.resonance_near(1310e-9), 1310e-9, 1e-15);
}

class RingChannelSpacing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingChannelSpacing, DlStepsGiveChannelGrid) {
  // Paper Fig. 6: dL in {0, 68, 136, 204} nm -> resonances 2.33 nm apart.
  const std::size_t channel = GetParam();
  const Microring ring(compute_ring_config(channel, 0.0));
  const double expected = channel_wavelength(channel);
  EXPECT_NEAR(ring.resonance_near(expected) * 1e9, expected * 1e9, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Channels, RingChannelSpacing,
                         ::testing::Values(0, 1, 2, 3));

TEST(ComputeRing, OnStateExtinctionBelowMinus25dB) {
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_bias(0.0);  // pinned on resonance at 0 V
  EXPECT_LT(ring.thru_transmission(1310e-9), 3e-3);  // < -25 dB
  EXPECT_GT(ring.drop_transmission(1310e-9), 0.9);   // light exits the drop
}

TEST(ComputeRing, OffStatePassesThru) {
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_bias(1.8);  // VDD shifts the ring off resonance
  EXPECT_GT(ring.thru_transmission(1310e-9), 0.95);
  EXPECT_LT(ring.drop_transmission(1310e-9), 0.05);
}

TEST(ComputeRing, VddShiftIsSeveralLinewidths) {
  Microring ring(compute_ring_config(0, 0.0));
  const double fwhm = ring.fwhm(1310e-9);
  const double res0 = ring.resonance_near(1310e-9);
  ring.set_bias(1.8);
  const double res1 = ring.resonance_near(1310e-9);
  EXPECT_GT((res1 - res0) / fwhm, 2.0);
  EXPECT_NEAR((res1 - res0) * 1e12, 448.0, 5.0);  // ~448 pm at VDD
}

TEST(ComputeRing, PinBiasShiftsOperatingPoint) {
  // pSRAM latch rings resonate at VDD instead of 0 V.
  Microring latch_ring(compute_ring_config(0, 1.8));
  latch_ring.set_bias(1.8);
  EXPECT_LT(latch_ring.thru_transmission(1310e-9), 3e-3);
  latch_ring.set_bias(0.0);
  EXPECT_GT(latch_ring.thru_transmission(1310e-9), 0.95);
}

TEST(ComputeRing, PowerConservation) {
  // A passive ring cannot create power: thru + drop <= 1, the rest lost
  // in the ring.
  Microring ring(compute_ring_config(0, 0.0));
  for (double detune_pm : {0.0, 50.0, 200.0, 1000.0}) {
    const double lambda = 1310e-9 + detune_pm * 1e-12;
    EXPECT_LE(ring.thru_transmission(lambda) + ring.drop_transmission(lambda),
              1.0);
  }
}

TEST(ComputeRing, AdjacentChannelCrosstalkIsSmall) {
  // A ring resonant at channel 0 barely touches channel 1 (2.33 nm away).
  Microring ring(compute_ring_config(0, 0.0));
  ring.set_bias(0.0);
  EXPECT_GT(ring.thru_transmission(channel_wavelength(1)), 0.995);
  EXPECT_GT(ring.thru_transmission(channel_wavelength(3)), 0.995);
}

TEST(ComputeRing, PeriodicResonances) {
  const Microring ring(compute_ring_config(0, 0.0));
  const double fsr = ring.fsr(1310e-9);
  // The next resonance order sits one FSR away.
  const double next = ring.resonance_near(1310e-9 + fsr);
  EXPECT_NEAR(next - 1310e-9, fsr, 0.02 * fsr);
}

TEST(ComputeRing, ThermalShiftRedshifts) {
  // A ring object sits at its calibrated temperature; drift reaches a ring
  // through ring_index_shift's temperature, which a macro passes.
  const Microring ring(compute_ring_config(0, 0.0));
  const RingGeometry& g = ring.geometry();
  const double res0 = ring_resonance_near(
      g, ring_index_shift(g, ring.device(), 0.0, 0.0), 1310e-9);
  EXPECT_EQ(res0, ring.resonance_near(1310e-9));
  const double res1 = ring_resonance_near(
      g, ring_index_shift(g, ring.device(), 0.0, 5.0), 1310e-9);  // +5 K
  EXPECT_NEAR((res1 - res0) * 1e12, 350.0, 1.0);  // 5 K x 70 pm/K
}

TEST(ComputeRing, HeaterAndFabricationShifts) {
  // Drift and heater re-locks move the resonance through the temperature
  // (ThermalShiftRedshifts above); a fabrication error shifts it one for
  // one, either way.
  const Microring ring(compute_ring_config(0, 0.0));
  const RingGeometry& g = ring.geometry();
  RingDevice device = ring.device();
  device.resonance_error = 100e-12;
  EXPECT_NEAR((ring_resonance_near(g, ring_index_shift(g, device, 0.0, 0.0),
                                   1310e-9) -
               1310e-9) * 1e12,
              100.0, 0.5);
  device.resonance_error = -60e-12;
  EXPECT_NEAR((ring_resonance_near(g, ring_index_shift(g, device, 0.0, 0.0),
                                   1310e-9) -
               1310e-9) * 1e12,
              -60.0, 0.5);
}

// ---------------------------------------------------------------------------
// eoADC ring (10 um, all-pass, 250 nm gap, near-critical) — paper Sec. IV-C.
// ---------------------------------------------------------------------------

TEST(AdcRing, HighQAllPass) {
  const Microring ring(adc_ring_config());
  EXPECT_FALSE(ring.config().add_drop);
  EXPECT_DOUBLE_EQ(ring.drop_transmission(1310.5e-9), 0.0);
  // Loaded Q = resonance / FWHM: high-Q as the paper requires.
  const double res = ring.resonance_near(1310.5e-9);
  EXPECT_GT(res / ring.fwhm(res), 40e3);
  EXPECT_LT(res / ring.fwhm(res), 80e3);
}

TEST(AdcRing, NearCriticalCouplingExtinction) {
  Microring ring(adc_ring_config());
  ring.set_bias(0.0);
  EXPECT_LT(ring.thru_transmission(1310.5e-9), 1e-3);  // deep notch
}

TEST(AdcRing, ThresholdCrossingAtQuarterVolt) {
  // Calibration (core/tech.hpp): at |V_pn| = LSB/2 = 0.25 V the thru power
  // on 200 uW input equals the 18 uW reference.
  Microring ring(adc_ring_config());
  ring.set_bias(0.25);
  EXPECT_NEAR(200e-6 * ring.thru_transmission(1310.5e-9), 18e-6, 0.5e-6);
  ring.set_bias(-0.25);
  EXPECT_NEAR(200e-6 * ring.thru_transmission(1310.5e-9), 18e-6, 0.5e-6);
}

TEST(AdcRing, AdjacentReferenceStaysInactive) {
  // At |V_pn| = LSB = 0.5 V (the neighbouring channel's distance when the
  // input sits on a reference) the thru power is far above threshold.
  Microring ring(adc_ring_config());
  ring.set_bias(0.5);
  EXPECT_GT(200e-6 * ring.thru_transmission(1310.5e-9), 2.5 * 18e-6);
}

TEST(AdcRing, NotchDepthMonotoneInDetuning) {
  Microring ring(adc_ring_config());
  double prev = -1.0;
  for (double v = 0.0; v <= 1.0; v += 0.05) {
    ring.set_bias(v);
    const double t = ring.thru_transmission(1310.5e-9);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(AdcRing, FwhmMatchesDesign) {
  const Microring ring(adc_ring_config());
  EXPECT_NEAR(ring.fwhm(1310.5e-9) * 1e12, 26.4, 1.5);  // ~26 pm
}

TEST(Microring, RejectsBadConfig) {
  MicroringConfig bad = compute_ring_config(0, 0.0);
  bad.radius = 0.0;
  EXPECT_THROW(Microring{bad}, std::invalid_argument);
  bad = compute_ring_config(0, 0.0);
  bad.n_eff = 0.5;
  EXPECT_THROW(Microring{bad}, std::invalid_argument);
  const Microring good(compute_ring_config(0, 0.0));
  EXPECT_THROW(good.thru_transmission(0.0), std::invalid_argument);
}

}  // namespace
