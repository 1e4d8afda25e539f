#ifndef PTC_CORE_EOADC_HPP
#define PTC_CORE_EOADC_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/amplifier.hpp"
#include "circuit/rom_decoder.hpp"
#include "circuit/tia.hpp"
#include "core/tech.hpp"
#include "optics/microring.hpp"
#include "optics/photodiode.hpp"
#include "sim/trace.hpp"

/// 1-hot encoding electro-optic ADC (eoADC) — paper Sec. II-C / Figs. 3, 8,
/// 9, 10.
///
/// A p-bit converter uses 2^p microrings.  Ring k's pn junction sees
/// V_pn = V_REF,k - V_IN with V_REF,k = (k + 1/2) * LSB, so ring k sits on
/// resonance at the input wavelength exactly when V_IN is inside bin k.  A
/// balanced photodiode compares each ring's thru power against an 18 uW
/// reference: on resonance the thru power collapses below the reference and
/// the summing node Qp discharges — only *one* thresholding block activates
/// per conversion (1-hot), the property that lets the eoADC avoid the
/// 2^p - 1 simultaneous comparator firings of a thermometer-coded flash.
///
/// An inverter-based TIA plus a cascaded voltage amplifier restore Qp's
/// small swing to a rail-to-rail level within the 125 ps conversion window
/// (8 GS/s); removing them leaves Qp to slew the full logic swing itself,
/// reproducing the paper's amplifier-less operating point (416.7 MS/s at 58%
/// lower electrical power).  A ceiling-priority ROM decoder resolves the
/// deliberate overlap between adjacent activation windows (paper Fig. 9,
/// V_IN = 2 V activates B4 *and* B5, decoded as 100).
///
/// Quantization geometry: Fig. 9 puts V_IN = 2 V on the B4/B5 boundary
/// (decoded 100 = 4 LSB), so LSB = 0.5 V and V_FS = 2^3 LSB = 4.0 V;
/// activation window half-width ~0.26 V > LSB/2, so windows overlap only at
/// bin boundaries.
///
/// Conversion is pure: every conversion method is const and the converter
/// holds no state that a conversion changes, so one instance can serve any
/// number of identical readout channels (TensorCore reads all its rows
/// through one).
namespace ptc::core {

struct EoAdcConfig {
  unsigned bits = 3;
  double v_full_scale = 4.0;            ///< [V], 2^bits x 0.5 V LSB
  double input_power_per_ring = 200e-6; ///< [W] (paper: 200 uW)
  double reference_power = 18e-6;       ///< [W] per channel (paper: 18 uW)
  /// Deliberate sense asymmetry: a channel activates when its thru power is
  /// below trip_offset_ratio * reference_power.  >1 guarantees adjacent
  /// double-activation at exact bin boundaries (resolved by the ceiling
  /// decoder) instead of dead zones.
  double trip_offset_ratio = 1.08;
  double qp_capacitance = 50e-15;       ///< balanced-PD summing node [F]
  /// Qp logic-low level that the amplifier-less mode must reach [V].
  double no_amp_low_level = 0.1;
  /// Conversion-window safety margin for the amplifier-less mode.
  double no_amp_margin = 1.18;
  optics::PhotodiodeConfig photodiode{};
  circuit::InverterTiaConfig tia{};        ///< 0.5 mW/channel default
  circuit::VoltageAmpConfig amplifier{};   ///< 0.3 mW/channel default
  double decoder_static_power = 1.62e-3;   ///< [W]
  double clock_power = 3.0e-3;             ///< S/H + clock distribution [W]
  bool use_amplifier_chain = true;         ///< false = low-power slow mode
  double sample_rate_with_amps = 8e9;      ///< [Hz] (paper: 8 GS/s)
  /// Reference-ladder mismatch (std-dev, volts); 0 = ideal ladder.
  double vref_mismatch_sigma = 0.0;
  std::uint64_t mismatch_seed = 1;
  double wall_plug_efficiency = tech_wall_plug;
  double dt = 0.25e-12;                    ///< transient timestep [s]
};

class EoAdc {
 public:
  explicit EoAdc(const EoAdcConfig& config = {});

  unsigned bits() const { return config_.bits; }
  std::size_t channel_count() const { return std::size_t{1} << config_.bits; }
  double lsb() const;
  unsigned max_code() const { return (1u << config_.bits) - 1; }

  /// Reference voltage of channel `ch` (bin centre), including any sampled
  /// ladder mismatch [V].
  double reference_voltage(std::size_t ch) const;

  /// Thru-port optical power of channel `ch`'s ring for a given input [W]
  /// (the Fig. 8 characteristic).
  double channel_thru_power(std::size_t ch, double v_in) const;

  /// Channel activation pattern for a given input (static model).
  std::vector<bool> channel_activations(double v_in) const;

  struct Conversion {
    unsigned code = 0;
    bool any_active = false;
    bool boundary = false;  ///< two adjacent channels fired (ceiling applied)
    bool fault = false;
    std::vector<bool> active;
  };

  /// Static (settled) conversion: walks every channel's ring physics.
  Conversion convert(double v_in) const;

  /// Output code, equal to convert(v).code for every input.  All rings
  /// share one design, so channel k fires exactly when its junction bias
  /// V_REF,k - V_IN lies in one active window [beta_lo, beta_hi], located
  /// once at construction to adjacent doubles.  The computed bias never
  /// rises as V_IN does, so channel k fires on one input interval
  /// [enter_k, leave_k), and the 1-hot pattern changes only at those
  /// breaks (at most 2^(p+1)).  Construction bisects every break to
  /// adjacent doubles and stores, per interval between breaks, the ROM
  /// code of the pattern at its left end.  A conversion then finds its
  /// interval (a bucket of 64 over the breaks, then a short forward scan
  /// over the exact break doubles) and reads the code.  The ring walk runs
  /// only on an interval where no channel fires (deepest-dip fallback),
  /// and for inputs far enough out of range to reach another resonance
  /// order, or NaN.
  unsigned code(double v_in) const {
    // The negated test also sends NaN inputs down the ring walk.
    if (!(v_in >= window_v_lo_ && v_in <= window_v_hi_)) {
      return convert(v_in).code;
    }
    // Every break in a lower bucket lies below v_in (the bucket index
    // never falls as v_in rises); the +inf sentinel ends the scan.
    std::size_t i = bucket_start_[bucket(v_in)];
    while (v_in >= breaks_[i]) ++i;
    const std::uint8_t c = interval_code_[i];
    return c != kWalk ? c : deepest_channel(v_in);
  }

  struct TransientResult {
    Conversion conversion;
    double decision_time = 0.0;  ///< time until the output code is final [s]
    bool completed = false;      ///< decided within the conversion window
  };

  /// Full transient conversion: ring/PD dynamics, Qp integration, TIA +
  /// amplifier chain, ROM decode at the end of the sampling window.
  /// Waveforms (qp_k, b_k) are recorded when `traces` is given (Fig. 9).
  TransientResult convert_transient(double v_in,
                                    sim::TraceSet* traces = nullptr) const;

  /// Code transition voltages (2^p - 1 edges), located by bisection on the
  /// static conversion.
  std::vector<double> code_edges() const;

  struct Linearity {
    std::vector<double> code_edges;
    std::vector<double> dnl;  ///< per inner code, in LSB
    std::vector<double> inl;  ///< per edge, in LSB (endpoint-fit)
    double max_abs_dnl = 0.0;
    double max_abs_inl = 0.0;
    bool missing_codes = false;
  };

  /// Transfer-function linearity (Fig. 10): DNL/INL from measured edges.
  Linearity linearity() const;

  // --- power / energy -------------------------------------------------------
  /// Optical power delivered on chip: 2^p * (input + reference) [W].
  double optical_power_delivered() const;
  /// Wall-plug optical power [W] (paper: 7.58 mW).
  double optical_wall_power() const;
  /// Electrical power in the current mode [W] (paper: 11 mW with amps).
  double electrical_power() const;
  /// optical_wall_power + electrical_power [W].
  double total_power() const;
  /// Sample rate in the current mode [Hz].
  double sample_rate() const;
  /// total_power / sample_rate [J] (paper: 2.32 pJ with amps).
  double energy_per_conversion() const;

  const EoAdcConfig& config() const { return config_; }

 private:
  /// Test fixture that pins the decision window and the interval table to
  /// the ring physics.
  friend class EoAdcWindow;

  double ring_thru_transmission(std::size_t ch, double v_in) const;
  double activation_threshold_power() const;
  /// The channel predicate shared by every ring, as a function of junction
  /// bias V_pn = V_REF - V_IN: thru power below the trip level.
  bool fires_at_bias(double bias) const;
  /// Locates the active window and the input range where it is exact.
  void locate_window();
  /// Builds the interval table over [window_v_lo_, window_v_hi_].
  void build_table();
  /// Bucket of an input on the uniform grid over the breaks, clamped to
  /// [0, kBuckets - 1]; never decreases as v_in rises.
  std::size_t bucket(double v_in) const {
    const double pos = (v_in - breaks_[0]) * bucket_scale_;
    if (!(pos > 0.0)) return 0;
    return pos < static_cast<double>(kBuckets - 1)
               ? static_cast<std::size_t>(pos)
               : kBuckets - 1;
  }
  /// No channel fired: the channel with the deepest dip (nearest code).
  unsigned deepest_channel(double v_in) const;

  /// Breaks of a 4-bit ladder: each of 16 channels enters and leaves once.
  static constexpr std::size_t kMaxBreaks = 32;
  static constexpr std::size_t kBuckets = 64;
  /// Interval code that sends the input to the deepest-dip walk.
  static constexpr std::uint8_t kWalk = 0xFF;

  EoAdcConfig config_;
  /// The ring design all 2^p channels share: every evaluation passes the
  /// channel's junction bias (V_REF,k - V_IN) explicitly, so one ring reads
  /// every channel and its own bias stays unused.
  optics::Microring ring_;
  std::vector<double> vref_;
  optics::Photodiode photodiode_;
  circuit::CeilingRomDecoder decoder_;
  /// Bias whose electro-optic shift reaches half an FSR [V]: up to it the
  /// thru notch rises monotonically with |bias|.
  double bias_limit_ = 0.0;
  /// Active bias window [window_lo_, window_hi_] [V]: for |bias| up to
  /// bias_limit_, fires_at_bias(b) holds exactly for lo <= b <= hi.  Empty
  /// (lo > hi) when no single window exists; code() then walks the rings.
  double window_lo_ = 1.0;
  double window_hi_ = -1.0;
  /// Inputs for which every channel's bias stays within half an FSR of
  /// resonance, so the window is the whole active set.
  double window_v_lo_ = 1.0;
  double window_v_hi_ = -1.0;
  /// Sorted, distinct inputs in (window_v_lo_, window_v_hi_] where some
  /// channel starts or stops firing, then +inf up to the end of the array.
  std::array<double, kMaxBreaks + 1> breaks_;
  std::size_t break_count_ = 0;
  /// Per interval i = [breaks_[i - 1], breaks_[i]) (interval 0 starts at
  /// window_v_lo_): the ROM code of its pattern, or kWalk when no channel
  /// fires.
  std::array<std::uint8_t, kMaxBreaks + 1> interval_code_{};
  /// Per bucket: the number of breaks in lower buckets.
  std::array<std::uint8_t, kBuckets> bucket_start_{};
  /// kBuckets / (last break - first break); 0 with fewer than two breaks.
  double bucket_scale_ = 0.0;
};

}  // namespace ptc::core

#endif  // PTC_CORE_EOADC_HPP
