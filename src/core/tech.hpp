#ifndef PTC_CORE_TECH_HPP
#define PTC_CORE_TECH_HPP

#include <cstddef>

#include "optics/microring.hpp"

/// GF45SPCLO-like technology defaults shared by the core blocks.
///
/// The paper's device models come from GlobalFoundries' proprietary
/// monolithic 45SPCLO PDK; this header centralizes the calibrated behavioral
/// equivalents.  Every number below is either stated in the paper or
/// back-derived from a number stated in the paper:
///
///  * compute/pSRAM ring: 7.5 um radius, 200 nm gaps (paper Sec. IV-B)
///    -> with group index 3.8907 the FSR is the paper's 9.36 nm;
///    -> the dL section index 4.7957 makes dL = 68 nm shift the resonance by
///       the paper's 2.33 nm channel spacing;
///    -> a 340 pm/V high-efficiency junction gives a 448 pm shift at
///       VDD = 1.8 V (~2.8 linewidths), a -30 dB on-state and 97% off-state
///       thru transmission — the 1-bit multiply contrast of Fig. 2.
///  * eoADC ring: 10 um radius, 250 nm gap (paper Sec. IV-C), 8 dB/cm doped
///    ring loss puts the ring near critical coupling (T_min ~ 4e-4);
///    a 17.65 pm/V depletion efficiency places the activation threshold
///    (thru power == 18 uW reference at 200 uW input) exactly +-LSB/2 = 0.25 V
///    from each reference voltage, the paper's quantization geometry.
namespace ptc::core {

/// Supply voltage [V] (paper Sec. IV-C: 1.8 V analog and digital supplies).
inline constexpr double tech_vdd = 1.8;

/// Laser wall-plug efficiency (paper ref. [47]).
inline constexpr double tech_wall_plug = 0.23;

/// Base WDM wavelength, channel 0 [m].
inline constexpr double tech_lambda_base = 1310e-9;

/// WDM channel spacing [m] (paper Sec. IV-B: 2.33 nm).
inline constexpr double tech_channel_spacing = 2.33e-9;

/// Ring length adjustment step per channel [m] (paper Fig. 6: 68 nm).
inline constexpr double tech_dl_step = 68e-9;

/// Number of WDM channels per vector compute macro (paper Sec. III).
inline constexpr std::size_t tech_wdm_channels = 4;

/// eoADC input wavelength [m] (paper Sec. IV-C: 1310.5 nm).
inline constexpr double tech_adc_wavelength = 1310.5e-9;

/// Compute/pSRAM microring (add-drop, 7.5 um, 200 nm gaps) tuned to WDM
/// channel `channel` via the ring-length adjustment.  `pin_bias` selects the
/// bias voltage at which the ring sits exactly on its channel resonance
/// (0 V for multiply rings, VDD for the pSRAM latch rings).
optics::MicroringConfig compute_ring_config(std::size_t channel,
                                            double pin_bias);

/// eoADC microring (all-pass, 10 um, 250 nm gap, near-critical coupling).
/// The resonance is pinned at the ADC input wavelength for zero junction
/// voltage, i.e. when V_IN equals the channel's reference voltage.
optics::MicroringConfig adc_ring_config();

/// Wavelength of WDM channel `channel` [m].
double channel_wavelength(std::size_t channel);

}  // namespace ptc::core

#endif  // PTC_CORE_TECH_HPP
