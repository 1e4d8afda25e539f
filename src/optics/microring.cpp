#include "optics/microring.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::optics {

namespace {
constexpr double two_pi = 2.0 * std::numbers::pi;
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

  circumference_ = two_pi * config.radius;

  // Pin one resonance exactly at design_wavelength for dl = 0 and
  // bias = pin_bias: choose the azimuthal order m from the nominal index,
  // then back out the index that makes m * lambda_design an exact round trip.
  const double m = std::round(config.n_eff * circumference_ /
                              config.design_wavelength);
  expects(m >= 1.0, "ring is too small to support a resonance");
  n_eff0_ = m * config.design_wavelength / circumference_;

  // Dispersion chosen so the configured group index (and hence FSR) holds:
  // n_g = n_eff - lambda * dn/dlambda.
  dn_dlambda_ = (n_eff0_ - config.n_g) / config.design_wavelength;

  const DirectionalCoupler coupler(config.coupler);
  t1_ = coupler.self_coupling(config.coupling_gap_thru);
  t2_ = config.add_drop ? coupler.self_coupling(config.coupling_gap_drop) : 1.0;

  const double loss_db =
      config.loss_db_per_cm * (circumference_ + config.dl) * 100.0;
  amplitude_ = std::sqrt(units::db_to_ratio(-loss_db));
}

double Microring::tuning_shift(double bias) const {
  const double electro_optic = junction_.resonance_shift(bias) - pin_shift_;
  const double thermal = config_.dlambda_dt * dtemp_;
  return electro_optic + thermal + fab_error_;
}

double Microring::index_shift(double bias) const {
  // Tuning is expressed as a resonance shift; the equivalent index change is
  // delta_n = n_g * delta_lambda / lambda (group index because a resonance
  // displacement is a group-delay quantity).
  return config_.n_g * tuning_shift(bias) / config_.design_wavelength;
}

double Microring::round_trip_phase(double dn_tuning, double wavelength) const {
  const double n_eff = n_eff0_ +
                       dn_dlambda_ * (wavelength - config_.design_wavelength) +
                       dn_tuning;
  const double optical_path =
      n_eff * circumference_ + config_.n_section * config_.dl;
  return two_pi * optical_path / wavelength;
}

double Microring::thru_at_phase(double phase) const {
  const double a = amplitude_;
  const double cos_phi = std::cos(phase);
  if (config_.add_drop) {
    const double t1t2a = t1_ * t2_ * a;
    const double d = 1.0 - 2.0 * t1t2a * cos_phi + t1t2a * t1t2a;
    const double numer =
        t2_ * t2_ * a * a - 2.0 * t1t2a * cos_phi + t1_ * t1_;
    return std::clamp(numer / d, 0.0, 1.0);
  }
  const double ta = t1_ * a;
  const double d = 1.0 - 2.0 * ta * cos_phi + ta * ta;
  const double numer = a * a - 2.0 * ta * cos_phi + t1_ * t1_;
  return std::clamp(numer / d, 0.0, 1.0);
}

double Microring::thru_transmission_at(double bias, double wavelength) const {
  expects(wavelength > 0.0, "wavelength must be positive");
  return thru_at_phase(round_trip_phase(index_shift(bias), wavelength));
}

void Microring::thru_spectrum_at(double bias,
                                 std::span<const double> wavelengths,
                                 std::span<double> out) const {
  expects(out.size() == wavelengths.size(),
          "need one output per wavelength");
  const double dn_tuning = index_shift(bias);
  for (std::size_t i = 0; i < wavelengths.size(); ++i) {
    expects(wavelengths[i] > 0.0, "wavelength must be positive");
    out[i] = thru_at_phase(round_trip_phase(dn_tuning, wavelengths[i]));
  }
}

double Microring::drop_transmission(double wavelength) const {
  expects(wavelength > 0.0, "wavelength must be positive");
  if (!config_.add_drop) return 0.0;
  const double a = amplitude_;
  const double cos_phi =
      std::cos(round_trip_phase(index_shift(bias_), wavelength));
  const double t1t2a = t1_ * t2_ * a;
  const double d = 1.0 - 2.0 * t1t2a * cos_phi + t1t2a * t1t2a;
  const double numer = (1.0 - t1_ * t1_) * (1.0 - t2_ * t2_) * a;
  return std::clamp(numer / d, 0.0, 1.0);
}

double Microring::resonance_near(double wavelength) const {
  // Solve n(lambda) L + n_section dL = m lambda by fixed-point iteration;
  // the index varies slowly, so a handful of iterations suffices.
  const double dn_tuning = index_shift(bias_);
  auto optical_path = [&](double lam) {
    const double n_eff = n_eff0_ +
                         dn_dlambda_ * (lam - config_.design_wavelength) +
                         dn_tuning;
    return n_eff * circumference_ + config_.n_section * config_.dl;
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

double Microring::fsr(double wavelength) const {
  const double group_path =
      config_.n_g * circumference_ + config_.n_section * config_.dl;
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
