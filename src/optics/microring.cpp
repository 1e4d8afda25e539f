#include "optics/microring.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::optics {

double ring_drop_transmission(const RingGeometry& g, const RingDevice& d,
                              double dn, double wavelength) {
  if (!g.add_drop) return 0.0;
  const double a = d.amplitude;
  const double cos_phi = std::cos(ring_round_trip_phase(g, dn, wavelength));
  const double t1t2a = d.t1 * d.t2 * a;
  const double den = 1.0 - 2.0 * t1t2a * cos_phi + t1t2a * t1t2a;
  const double numer = (1.0 - d.t1 * d.t1) * (1.0 - d.t2 * d.t2) * a;
  return std::clamp(numer / den, 0.0, 1.0);
}

double ring_resonance_near(const RingGeometry& g, double dn,
                           double wavelength) {
  // Solve n(lambda) L + n_section dL = m lambda by fixed-point iteration;
  // the index varies slowly, so a handful of iterations suffices.
  auto optical_path = [&](double lam) {
    const double n_eff =
        g.n_eff0 + g.dn_dlambda * (lam - g.design_wavelength) + dn;
    return n_eff * g.circumference + g.section_path;
  };
  const double m = std::round(optical_path(wavelength) / wavelength);
  double lam = wavelength;
  for (int i = 0; i < 20; ++i) {
    const double next = optical_path(lam) / m;
    if (std::fabs(next - lam) < 1e-18) return next;
    lam = next;
  }
  return lam;
}

Microring::Microring(const MicroringConfig& config)
    : config_(config),
      junction_(config.junction),
      pin_shift_(junction_.resonance_shift(config.pin_bias)) {
  expects(config.radius > 0.0, "ring radius must be positive");
  expects(config.dl >= 0.0, "ring length adjustment must be >= 0");
  expects(config.design_wavelength > 0.0, "design wavelength must be positive");
  expects(config.n_eff > 1.0 && config.n_g >= 1.0, "invalid modal indices");
  expects(config.loss_db_per_cm >= 0.0, "loss must be >= 0");

  const double circumference = 2.0 * std::numbers::pi * config.radius;

  // Pin one resonance exactly at design_wavelength for dl = 0 and
  // bias = pin_bias: choose the azimuthal order m from the nominal index,
  // then back out the index that makes m * lambda_design an exact round trip.
  const double m =
      std::round(config.n_eff * circumference / config.design_wavelength);
  expects(m >= 1.0, "ring is too small to support a resonance");
  const double n_eff0 = m * config.design_wavelength / circumference;

  geometry_.design_wavelength = config.design_wavelength;
  geometry_.n_g = config.n_g;
  geometry_.n_eff0 = n_eff0;
  // Dispersion chosen so the configured group index (and hence FSR) holds:
  // n_g = n_eff - lambda * dn/dlambda.
  geometry_.dn_dlambda = (n_eff0 - config.n_g) / config.design_wavelength;
  geometry_.circumference = circumference;
  geometry_.section_path = config.n_section * config.dl;
  geometry_.add_drop = config.add_drop;

  const DirectionalCoupler coupler(config.coupler);
  device_.t1 = coupler.self_coupling(config.coupling_gap_thru);
  device_.t2 =
      config.add_drop ? coupler.self_coupling(config.coupling_gap_drop) : 1.0;
  const double loss_db =
      config.loss_db_per_cm * (circumference + config.dl) * 100.0;
  device_.amplitude = std::sqrt(units::db_to_ratio(-loss_db));
  device_.dlambda_dt = config.dlambda_dt;
}

double Microring::thru_transmission_at(double bias, double wavelength) const {
  expects(wavelength > 0.0, "wavelength must be positive");
  return ring_thru_transmission(geometry_, device_, index_shift(bias),
                                wavelength);
}

double Microring::drop_transmission(double wavelength) const {
  expects(wavelength > 0.0, "wavelength must be positive");
  return ring_drop_transmission(geometry_, device_, index_shift(bias_),
                                wavelength);
}

double Microring::resonance_near(double wavelength) const {
  return ring_resonance_near(geometry_, index_shift(bias_), wavelength);
}

double Microring::fsr(double wavelength) const {
  const double group_path =
      config_.n_g * geometry_.circumference + geometry_.section_path;
  return wavelength * wavelength / group_path;
}

double Microring::fwhm(double wavelength) const {
  const double res = resonance_near(wavelength);
  const double t_min = thru_transmission(res);
  // Baseline: a quarter FSR off resonance is effectively out of the notch.
  const double t_max = thru_transmission(res + 0.25 * fsr(res));
  ensures(t_max > t_min, "thru response has no notch to measure");
  const double half_level = 0.5 * (t_max + t_min);

  auto cross = [&](double direction) {
    double lo = 0.0;                 // at notch centre: T < half_level
    double hi = 0.25 * fsr(res);     // far out: T > half_level
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (thru_transmission(res + direction * mid) < half_level) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };
  return cross(+1.0) + cross(-1.0);
}

}  // namespace ptc::optics
