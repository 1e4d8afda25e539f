#ifndef PTC_OPTICS_MICRORING_HPP
#define PTC_OPTICS_MICRORING_HPP

#include <algorithm>
#include <cmath>
#include <numbers>

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
/// The transfer functions are free functions of a ring's constants, split
/// by who shares them: RingGeometry (fixed by the design, the same for
/// every ring built from one config) and RingDevice (what fabrication
/// variation spreads).  `Microring` evaluates them for one standalone
/// device at its calibrated temperature; core::VectorComputeMacro keeps
/// only a RingDevice and two cached electro-optic shifts per multiply ring
/// and passes its macro's thermal detuning, so every ring of the simulator
/// goes through the same formula.
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

/// The round-trip-phase terms a ring's design fixes; fabrication variation
/// leaves them alone.
struct RingGeometry {
  double design_wavelength = 0.0;  ///< [m]
  double n_g = 0.0;                ///< group index
  double n_eff0 = 0.0;             ///< pinned effective index at design
  double dn_dlambda = 0.0;         ///< modal dispersion, reproduces n_g [1/m]
  double circumference = 0.0;      ///< [m]
  double section_path = 0.0;       ///< n_section * dL [m]
  bool add_drop = true;
};

/// The terms fabrication variation spreads from ring to ring.
struct RingDevice {
  double t1 = 0.0;               ///< input-bus field self-coupling
  double t2 = 0.0;               ///< drop-bus field self-coupling (1 all-pass)
  double amplitude = 0.0;        ///< single-pass field amplitude a
  double dlambda_dt = 0.0;       ///< thermo-optic sensitivity [m/K]
  double resonance_error = 0.0;  ///< fabrication resonance error [m]
};

/// Effective-index change of a ring tuned by an electro-optic resonance
/// shift `eo_shift` [m] (junction shift at its bias minus the shift at its
/// pin bias) at `delta_kelvin` from the calibrated temperature.  Tuning is
/// expressed as a resonance shift; the equivalent index change is
/// delta_n = n_g * delta_lambda / lambda (group index because a resonance
/// displacement is a group-delay quantity).
inline double ring_index_shift(const RingGeometry& g, const RingDevice& d,
                               double eo_shift, double delta_kelvin) {
  const double thermal = d.dlambda_dt * delta_kelvin;
  const double tuning = eo_shift + thermal + d.resonance_error;
  return g.n_g * tuning / g.design_wavelength;
}

/// Round-trip phase at `wavelength` [m] under tuning index change `dn`.
inline double ring_round_trip_phase(const RingGeometry& g, double dn,
                                    double wavelength) {
  const double n_eff =
      g.n_eff0 + g.dn_dlambda * (wavelength - g.design_wavelength) + dn;
  const double optical_path = n_eff * g.circumference + g.section_path;
  return 2.0 * std::numbers::pi * optical_path / wavelength;
}

/// Power transmission input -> thru port [0, 1] at `wavelength` [m] under
/// tuning index change `dn` (ring_index_shift).
inline double ring_thru_transmission(const RingGeometry& g,
                                     const RingDevice& d, double dn,
                                     double wavelength) {
  const double t1 = d.t1;
  const double a = d.amplitude;
  const double cos_phi = std::cos(ring_round_trip_phase(g, dn, wavelength));
  if (g.add_drop) {
    const double t2 = d.t2;
    const double t1t2a = t1 * t2 * a;
    const double den = 1.0 - 2.0 * t1t2a * cos_phi + t1t2a * t1t2a;
    const double numer = t2 * t2 * a * a - 2.0 * t1t2a * cos_phi + t1 * t1;
    return std::clamp(numer / den, 0.0, 1.0);
  }
  const double ta = t1 * a;
  const double den = 1.0 - 2.0 * ta * cos_phi + ta * ta;
  const double numer = a * a - 2.0 * ta * cos_phi + t1 * t1;
  return std::clamp(numer / den, 0.0, 1.0);
}

/// Power transmission input -> drop port (0 for all-pass rings).
double ring_drop_transmission(const RingGeometry& g, const RingDevice& d,
                              double dn, double wavelength);

/// Resonance wavelength nearest to `wavelength` under tuning index change
/// `dn` [m].
double ring_resonance_near(const RingGeometry& g, double dn,
                           double wavelength);

class Microring {
 public:
  explicit Microring(const MicroringConfig& config);

  // --- electrical state -----------------------------------------------------
  /// Sets the pn-junction bias [V] (instantaneous; drivers model dynamics).
  /// A ring object sits at its calibrated temperature with no fabrication
  /// error: a drifting or varied multiply ring is a RingDevice its macro
  /// evaluates with its own detuning.
  void set_bias(double v) { bias_ = v; }
  double bias() const { return bias_; }

  // --- spectral responses ---------------------------------------------------
  /// Power transmission input -> thru port at the given wavelength [0, 1].
  double thru_transmission(double wavelength) const {
    return thru_transmission_at(bias_, wavelength);
  }

  /// Thru transmission the ring would have at junction bias `bias` [V].
  /// Callers that derive the bias per evaluation (reference ladders) read
  /// the spectrum through this without writing the bias into the ring.
  double thru_transmission_at(double bias, double wavelength) const;

  /// Power transmission input -> drop port (0 for all-pass rings).
  double drop_transmission(double wavelength) const;

  /// Resonance wavelength nearest to `wavelength`, including the bias
  /// tuning [m].
  double resonance_near(double wavelength) const;

  /// Free spectral range at the given wavelength [m].
  double fsr(double wavelength) const;

  /// Full width at half depth of the thru-port notch nearest `wavelength`,
  /// measured numerically [m].
  double fwhm(double wavelength) const;

  /// Electro-optic resonance shift at junction bias `bias` relative to the
  /// pin bias [m] — the `eo_shift` ring_index_shift takes.
  double electro_optic_shift(double bias) const {
    return junction_.resonance_shift(bias) - pin_shift_;
  }

  // --- derived device constants ---------------------------------------------
  const RingGeometry& geometry() const { return geometry_; }
  const RingDevice& device() const { return device_; }

  const MicroringConfig& config() const { return config_; }
  const PnPhaseShifter& junction() const { return junction_; }

 private:
  /// Tuning index change at the given bias.
  double index_shift(double bias) const {
    return ring_index_shift(geometry_, device_, electro_optic_shift(bias),
                            0.0);
  }

  MicroringConfig config_;
  PnPhaseShifter junction_;
  double pin_shift_;  ///< electro-optic shift at pin_bias [m]
  RingGeometry geometry_;
  RingDevice device_;
  double bias_ = 0.0;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_MICRORING_HPP
