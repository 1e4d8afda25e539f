#ifndef PTC_OPTICS_PN_PHASE_SHIFTER_HPP
#define PTC_OPTICS_PN_PHASE_SHIFTER_HPP

/// Plasma-dispersion pn-junction phase shifter embedded in the microrings.
///
/// Applying a voltage across the junction changes the free-carrier density in
/// the waveguide, shifting the effective index and hence the ring resonance.
/// The model captures the two behaviours the paper relies on:
///  * a signed, monotonic resonance shift around v = 0 (the eoADC encodes the
///    analog input as the junction voltage V_REF - V_IN and needs both red
///    and blue shifts, Fig. 3(a)), and
///  * a mildly compressive (square-root) large-signal characteristic, as the
///    depletion width grows with the square root of the junction drop.
namespace ptc::optics {

struct PnJunctionConfig {
  /// Small-signal resonance tuning efficiency d(lambda)/dV at v = 0 [m/V].
  double efficiency = 17e-12;
  /// Built-in potential [V]; sets the square-root compression knee.
  double built_in_potential = 0.9;
  /// Electro-optic response time constant [s] (depletion-mode: ~ps class).
  double response_time = 2e-12;
};

class PnPhaseShifter {
 public:
  explicit PnPhaseShifter(const PnJunctionConfig& config = {});

  /// Resonance wavelength shift for junction voltage v [m].  Odd-symmetric,
  /// equal to efficiency * v for small |v|, compressing as sqrt for large |v|.
  double resonance_shift(double v) const;

  const PnJunctionConfig& config() const { return config_; }

 private:
  PnJunctionConfig config_;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_PN_PHASE_SHIFTER_HPP
