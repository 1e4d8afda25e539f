#ifndef PTC_OPTICS_MICRORING_HPP
#define PTC_OPTICS_MICRORING_HPP

#include <span>

#include "optics/coupler.hpp"
#include "optics/pn_phase_shifter.hpp"

/// Microring resonator (MRR) — the workhorse device of the paper: it stores
/// the pSRAM state, performs the 1-bit multiplications, and quantizes the
/// eoADC input.
///
/// The model is the standard interferometric add-drop/all-pass transfer
/// function (e.g. Bogaerts et al., "Silicon microring resonators"):
///
///   phi(lambda)   = (2 pi / lambda) * [ n(lambda) * L + n_section * dL ]
///   T_thru (add-drop) = (t2^2 a^2 - 2 t1 t2 a cos phi + t1^2) / D
///   T_drop (add-drop) = (1 - t1^2)(1 - t2^2) a / D
///   T_thru (all-pass) = (a^2 - 2 t1 a cos phi + t1^2) / D1
///   D  = 1 - 2 t1 t2 a cos phi + (t1 t2 a)^2,   D1 with t2 = 1
///
/// with self-couplings t1/t2 derived from the physical gaps, single-pass
/// amplitude a from the propagation loss, and an effective index
///   n(lambda) = n_eff0 + dn/dlambda (lambda - lambda_design) + dn_tuning
/// whose dispersion term reproduces the group index (and hence the FSR), and
/// whose tuning term aggregates pn-junction bias, ambient temperature, and
/// fabrication error — all expressed as equivalent resonance shifts
/// (delta_n = n_g * delta_lambda / lambda).
///
/// The resonance is *pinned*: at bias == pin_bias (and zero thermal/fab
/// offsets, dL = 0) one resonance falls exactly on design_wavelength.  dL
/// (the paper's "ring adjustment length", Fig. 6) adds optical path through a
/// section of calibrated index n_section, shifting the resonance by
/// (lambda / (n_g L)) * n_section * dL — n_section's default is fitted so
/// that dL = 68 nm yields the paper's 2.33 nm channel spacing.
namespace ptc::optics {

struct MicroringConfig {
  double radius = 7.5e-6;             ///< ring radius [m]
  double dl = 0.0;                    ///< ring length adjustment [m] (Fig. 6)
  double coupling_gap_thru = 200e-9;  ///< input-bus gap [m]
  double coupling_gap_drop = 200e-9;  ///< drop-bus gap [m]; ignored if !add_drop
  bool add_drop = true;               ///< false = all-pass (single bus)
  double design_wavelength = 1310e-9; ///< resonance pinned here [m]
  double pin_bias = 0.0;              ///< bias [V] at which the pin holds
  double n_eff = 2.4;                 ///< modal effective index (order count)
  double n_g = 3.8907;                ///< group index; sets the FSR
  double n_section = 4.7957;          ///< calibrated index of the dL section
  double loss_db_per_cm = 3.0;        ///< round-trip propagation loss
  PnJunctionConfig junction;          ///< electro-optic tuning model
  double dlambda_dt = 70e-12;         ///< ambient thermal sensitivity [m/K]
  CouplerConfig coupler;              ///< gap -> coupling mapping
};

class Microring {
 public:
  explicit Microring(const MicroringConfig& config);

  // --- electrical / environmental state -----------------------------------
  /// Sets the pn-junction bias [V] (instantaneous; drivers model dynamics).
  void set_bias(double v) { bias_ = v; }
  double bias() const { return bias_; }

  /// Ambient temperature deviation from nominal [K].
  void set_temperature_offset(double delta_kelvin) { dtemp_ = delta_kelvin; }
  double temperature_offset() const { return dtemp_; }

  /// Fabrication-induced resonance error [m] (Monte-Carlo variation).
  void set_resonance_error(double dlambda) { fab_error_ = dlambda; }
  double resonance_error() const { return fab_error_; }

  // --- spectral responses ---------------------------------------------------
  /// Power transmission input -> thru port at the given wavelength [0, 1].
  double thru_transmission(double wavelength) const {
    return thru_transmission_at(bias_, wavelength);
  }

  /// Thru transmission the ring would have at junction bias `bias` [V],
  /// every other tuning contribution as currently set.  Callers that derive
  /// the bias per evaluation (weight bits, reference ladders) read the
  /// spectrum through this without writing the bias into the ring.
  double thru_transmission_at(double bias, double wavelength) const;

  /// thru_transmission_at(bias, wavelengths[i]) into out[i] for every i,
  /// evaluating the bias's tuning shift once.
  void thru_spectrum_at(double bias, std::span<const double> wavelengths,
                        std::span<double> out) const;

  /// Power transmission input -> drop port (0 for all-pass rings).
  double drop_transmission(double wavelength) const;

  /// Resonance wavelength nearest to `wavelength`, including every active
  /// tuning contribution [m].
  double resonance_near(double wavelength) const;

  /// Free spectral range at the given wavelength [m].
  double fsr(double wavelength) const;

  /// Full width at half depth of the thru-port notch nearest `wavelength`,
  /// measured numerically [m].
  double fwhm(double wavelength) const;

  // --- derived device constants ---------------------------------------------
  double circumference() const { return circumference_; }
  double self_coupling_thru() const { return t1_; }
  double self_coupling_drop() const { return t2_; }
  double single_pass_amplitude() const { return amplitude_; }

  const MicroringConfig& config() const { return config_; }
  const PnPhaseShifter& junction() const { return junction_; }

 private:
  /// Aggregate resonance shift from bias/thermal/fabrication [m].
  double tuning_shift(double bias) const;

  /// Effective-index change of the tuning shift at the given bias.
  double index_shift(double bias) const;

  /// Round-trip phase at the given wavelength and tuning index change.
  double round_trip_phase(double dn_tuning, double wavelength) const;

  /// Thru transmission at the given round-trip phase.
  double thru_at_phase(double phase) const;

  MicroringConfig config_;
  PnPhaseShifter junction_;
  double pin_shift_;   ///< electro-optic shift at pin_bias [m]
  double circumference_;
  double n_eff0_;      ///< pinned effective index at design wavelength
  double dn_dlambda_;  ///< modal dispersion, reproduces n_g
  double t1_;
  double t2_;
  double amplitude_;   ///< single-pass field amplitude a

  double bias_ = 0.0;
  double dtemp_ = 0.0;
  double fab_error_ = 0.0;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_MICRORING_HPP
