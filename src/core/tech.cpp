#include "core/tech.hpp"

#include "common/expects.hpp"

namespace ptc::core {

optics::MicroringConfig compute_ring_config(std::size_t channel,
                                            double pin_bias) {
  expects(channel < 8, "compute rings support at most 8 channels per FSR");
  optics::MicroringConfig config;
  config.radius = 7.5e-6;
  config.dl = tech_dl_step * static_cast<double>(channel);
  config.coupling_gap_thru = 200e-9;
  config.coupling_gap_drop = 200e-9;
  config.add_drop = true;
  config.design_wavelength = tech_lambda_base;
  config.pin_bias = pin_bias;
  config.n_eff = 2.4;
  config.n_g = 3.8907;
  config.n_section = 4.7957;
  config.loss_db_per_cm = 3.0;
  config.junction.efficiency = 340e-12;   // high-efficiency phase shifter
  config.junction.built_in_potential = 0.9;
  config.junction.response_time = 5e-12;
  return config;
}

optics::MicroringConfig adc_ring_config() {
  optics::MicroringConfig config;
  config.radius = 10e-6;
  config.dl = 0.0;
  config.coupling_gap_thru = 250e-9;
  config.add_drop = false;
  config.design_wavelength = tech_adc_wavelength;
  config.pin_bias = 0.0;  // resonates when V_pn = V_REF - V_IN = 0
  config.n_eff = 2.4;
  config.n_g = 3.8907;
  config.loss_db_per_cm = 8.0;            // doped junction ring
  config.junction.efficiency = 17.65e-12; // depletion-mode (fast, small)
  config.junction.built_in_potential = 0.9;
  config.junction.response_time = 2e-12;
  return config;
}

double channel_wavelength(std::size_t channel) {
  expects(channel < 8, "at most 8 channels per FSR");
  return tech_lambda_base + tech_channel_spacing * static_cast<double>(channel);
}

}  // namespace ptc::core
