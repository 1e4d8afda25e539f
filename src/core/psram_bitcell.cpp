#include "core/psram_bitcell.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::core {

namespace {

optics::MicroringConfig latch_ring(const PsramConfig& config) {
  // Latch rings resonate when driven to VDD (paper Sec. II-A: "lambda_IN is
  // selected to resonate with the MRRs when a voltage VDD is applied").
  return compute_ring_config(config.channel, config.vdd);
}

}  // namespace

PsramBitcell::PsramBitcell(const PsramConfig& config)
    : config_(config),
      ring_m1_(latch_ring(config)),
      ring_m2_(latch_ring(config)),
      pd_(config.photodiode),
      driver_d2_(config.driver),
      driver_d1_(config.driver),
      pd_lag_p1_(pd_.response_time_constant()),
      pd_lag_p2_(pd_.response_time_constant()),
      pd_lag_p3_(pd_.response_time_constant()),
      pd_lag_p4_(pd_.response_time_constant()) {
  expects(config.bias_power >= 0.0, "bias power must be >= 0");
  expects(config.write_power > 0.0, "write power must be positive");
  expects(config.write_pulse_width > 0.0, "pulse width must be positive");
  expects(config.node_capacitance > 0.0, "node capacitance must be positive");
  expects(config.dt > 0.0 && config.dt <= 1e-12 * 2.0,
          "timestep must be positive and <= 2 ps for stability");
  // PS1 splits the bias laser between the two rings.
  ring_input_power_ = 0.5 * config.bias_power *
                      units::db_to_ratio(-config.splitter_excess_db);
  initialize(false);
}

void PsramBitcell::initialize(bool value) {
  v_q_ = value ? config_.vdd : 0.0;
  v_qb_ = value ? 0.0 : config_.vdd;
  driver_d2_.reset(v_q_);
  driver_d1_.reset(v_qb_);
  ring_m1_.set_bias(v_q_);
  ring_m2_.set_bias(v_qb_);
  pd_lag_p1_.reset(0.0);
  pd_lag_p2_.reset(0.0);
  pd_lag_p3_.reset(0.0);
  pd_lag_p4_.reset(0.0);
}

void PsramBitcell::step_once(double p_wbl, double p_wblb, bool bias_on) {
  const double dt = config_.dt;
  const double lambda = channel_wavelength(config_.channel);

  // Ring drivers buffer the storage nodes onto the ring junctions.
  ring_m1_.set_bias(driver_d2_.step(v_q_, dt));
  ring_m2_.set_bias(driver_d1_.step(v_qb_, dt));

  // Quasi-static optics: the ring response time is absorbed in the driver
  // and photodiode lags.
  const double p_in = bias_on ? ring_input_power_ : 0.0;
  const double thru1 = p_in * ring_m1_.thru_transmission(lambda);
  const double drop1 = p_in * ring_m1_.drop_transmission(lambda);
  const double thru2 = p_in * ring_m2_.thru_transmission(lambda);
  const double drop2 = p_in * ring_m2_.drop_transmission(lambda);

  // Write light: WBL illuminates P3 (Q up) and P2 (QB down); WBLB
  // illuminates P1 (QB up) and P4 (Q down).  Each bitline splits 50:50
  // between its two photodiodes.
  const double split = 0.5 * units::db_to_ratio(-config_.splitter_excess_db);
  const double p1 = pd_lag_p1_.step(thru1 + p_wblb * split, dt);
  const double p2 = pd_lag_p2_.step(drop1 + p_wbl * split, dt);
  const double p3 = pd_lag_p3_.step(thru2 + p_wbl * split, dt);
  const double p4 = pd_lag_p4_.step(drop2 + p_wblb * split, dt);

  const double i_qb = pd_.current(p1) - pd_.current(p2) - config_.leakage_current;
  const double i_q = pd_.current(p3) - pd_.current(p4) - config_.leakage_current;

  v_qb_ = std::clamp(v_qb_ + i_qb * dt / config_.node_capacitance, 0.0,
                     config_.vdd);
  v_q_ = std::clamp(v_q_ + i_q * dt / config_.node_capacitance, 0.0,
                    config_.vdd);
}

WriteResult PsramBitcell::write(bool value, sim::TraceSet* traces,
                                double timeout) {
  const double pulse = config_.write_pulse_width;
  const double driver_energy_before =
      driver_d1_.consumed_energy() + driver_d2_.consumed_energy();

  const double target_q = value ? config_.vdd : 0.0;
  const double target_qb = value ? 0.0 : config_.vdd;
  const double rail_tol = 0.1 * config_.vdd;

  WriteResult result;
  double settle = -1.0;
  double t = 0.0;
  while (t < timeout) {
    const bool in_pulse = t < pulse;
    const double p_wbl = (in_pulse && value) ? config_.write_power : 0.0;
    const double p_wblb = (in_pulse && !value) ? config_.write_power : 0.0;
    step_once(p_wbl, p_wblb, /*bias_on=*/true);
    t += config_.dt;
    if (traces != nullptr) {
      traces->at("wbl").record(t, p_wbl);
      traces->at("wblb").record(t, p_wblb);
      traces->at("q").record(t, v_q_);
      traces->at("qb").record(t, v_qb_);
    }
    const bool settled = std::fabs(v_q_ - target_q) < rail_tol &&
                         std::fabs(v_qb_ - target_qb) < rail_tol;
    if (settled && settle < 0.0) settle = t;
    if (!settled) settle = -1.0;
    // Stop early once the pulse has ended and the latch has been settled for
    // a hold-feedback time constant.
    if (t > pulse && settle > 0.0 && t - settle > 50e-12) break;
  }

  result.success = settle > 0.0 && q() == value && is_stable();
  result.settle_time = settle > 0.0 ? settle : timeout;
  result.laser_energy =
      config_.write_power * pulse / config_.wall_plug_efficiency;
  result.driver_energy = driver_d1_.consumed_energy() +
                         driver_d2_.consumed_energy() - driver_energy_before;
  return result;
}

void PsramBitcell::hold(double duration, bool bias_on) {
  expects(duration >= 0.0, "duration must be >= 0");
  for (double t = 0.0; t < duration; t += config_.dt) {
    step_once(0.0, 0.0, bias_on);
  }
}

bool PsramBitcell::is_stable() const {
  const double tol = 0.1 * config_.vdd;
  const bool q_high = v_q_ > config_.vdd - tol && v_qb_ < tol;
  const bool q_low = v_q_ < tol && v_qb_ > config_.vdd - tol;
  return q_high || q_low;
}

}  // namespace ptc::core
