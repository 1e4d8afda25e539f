#ifndef PTC_CORE_VECTOR_MACRO_HPP
#define PTC_CORE_VECTOR_MACRO_HPP

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/expects.hpp"
#include "core/fault.hpp"
#include "core/tech.hpp"
#include "core/variation.hpp"
#include "optics/microring.hpp"
#include "optics/photodiode.hpp"

/// Mixed-signal multi-bit photonic vector-multiply compute core — paper
/// Fig. 2 / Sec. II-B.
///
/// The macro multiplies an analog intensity-encoded input vector
/// IN = [IN_1 .. IN_m] (one WDM channel per element, m = tech_wdm_channels)
/// by an n-bit digital weight vector stored in pSRAM:
///
///  * each channel's comb line passes an intensity encoder and a cascade
///    of n 50:50 splitters, which make binary-scaled copies IN/2, IN/4,
///    ..., IN/2^n — one per weight bit, MSB row first (InputPath);
///  * bit row b carries m microrings, ring (b, k) tuned to channel k and
///    driven by weight bit w_k[n-1-b]: on resonance (bit = 0) it strips the
///    channel from the bus, off resonance (bit = 1) it passes it;
///  * each bit row terminates in a photodiode; the n photocurrents sum on a
///    shared node, yielding  I ~ sum_k IN_k * W_k / 2^n.
///
/// The spectral evaluation includes inter-channel crosstalk: every ring's
/// transfer function is evaluated at *every* channel wavelength, exactly the
/// methodology the paper describes in Sec. IV-B.
///
/// The macro keeps no ring objects.  The design at each ring position
/// fixes an optics::RingGeometry; each multiply ring keeps only what
/// variation spreads (optics::RingDevice), its drive-level offset, and the
/// electro-optic shift of each bias its stored bit selects, derived once
/// per bias (at construction and at every fault change).  The thermal
/// detuning is one number per macro, passed to optics::ring_index_shift
/// at every evaluation.
namespace ptc::core {

struct VectorMacroConfig {
  unsigned weight_bits = 3;                  ///< n
  double comb_power_per_line = 2.2e-3;       ///< [W] per WDM channel
  double encoder_insertion_loss_db = 0.5;
  double encoder_extinction_db = 25.0;
  double splitter_excess_db = 0.1;
  optics::PhotodiodeConfig photodiode{};
  /// Per-device fabrication/drive-level variation; variation.seed == 0 is
  /// the pristine design device.  A TensorCore derives one child seed per
  /// macro, so every macro of a varied core is a distinct device.
  VariationConfig variation{};
};

/// One channel's input path: its comb line, intensity encoder and
/// binary-weighted splitter cascade, as the constants a configuration
/// fixes.  The physics walk and the tensor core's fast path both compute
/// tap powers through taps(), so they multiply the same doubles in the
/// same order.
struct InputPath {
  /// Checks insertion loss >= 0 dB, extinction > 0 dB, excess loss >= 0 dB
  /// and comb power > 0.
  explicit InputPath(const VectorMacroConfig& config);

  double line_power;  ///< comb line power [W]
  double loss;        ///< encoder insertion loss (power ratio)
  double floor;       ///< finite-extinction leakage floor (power ratio)
  double tap_factor;  ///< per splitter stage: 0.5 times its excess loss

  /// Tap powers [W] of one channel encoding x in [0, 1]: out[b * stride]
  /// for bit row b = 0 (MSB, IN/2) .. bits - 1 (IN/2^bits).  The encoder
  /// spans [floor, 1] instead of [0, 1]; each stage multiplies the
  /// remainder by tap_factor, and the last remainder goes to an absorber.
  void taps(double x, unsigned bits, double* out, std::size_t stride) const {
    expects(x >= 0.0 && x <= 1.0,
            "encoded values must be normalized to [0, 1]");
    const double transmission = floor + (1.0 - floor) * x;
    double p = line_power * (loss * transmission);
    for (unsigned b = 0; b < bits; ++b) {
      p *= tap_factor;
      out[b * stride] = p;
    }
  }
};

class VectorComputeMacro {
 public:
  explicit VectorComputeMacro(const VectorMacroConfig& config = {});

  unsigned weight_bits() const { return config_.weight_bits; }
  std::uint32_t max_weight() const { return (1u << config_.weight_bits) - 1; }

  /// Loads the n-bit weights (one per channel); weights drive the multiply
  /// rings' bias lines (plus each ring's static pSRAM drive-level offset
  /// when variation is enabled).
  void load_weights(std::span<const std::uint32_t> weights);
  void load_weights(std::initializer_list<std::uint32_t> weights) {
    load_weights(std::span(weights.begin(), weights.size()));
  }

  /// Ambient temperature deviation from the calibrated operating point [K],
  /// seen by every multiply ring.  Each ring responds through its own
  /// (variation-spread) thermo-optic sensitivity, so a common-mode drift
  /// still detunes the rings heterogeneously.  Stores one number: every
  /// evaluation passes it to the ring-transfer helper.
  void set_temperature_offset(double delta_kelvin) {
    temperature_offset_ = delta_kelvin;
  }

  const std::vector<std::uint32_t>& weights() const { return weights_; }

  struct Result {
    double photocurrent = 0.0;  ///< summed photodiode current [A]
    double normalized = 0.0;    ///< photocurrent / full-scale photocurrent
    std::vector<double> per_bit_current;  ///< one entry per bit row [A]
  };

  /// Multiplies the loaded weights by the normalized analog inputs
  /// (values in [0, 1], one per channel).
  Result multiply(const std::vector<double>& inputs) const;

  /// multiply()'s photocurrent [A] alone, from a view of the inputs;
  /// allocates nothing.
  double photocurrent(std::span<const double> inputs) const;

  /// Ideal (error-free) normalized result for comparison:
  /// sum_k in_k * w_k / (m * (2^n - 1)).
  double ideal_normalized(const std::vector<double>& inputs) const;

  /// Thru transmissions of ring `ring` of bit row `bit_row` at every
  /// channel wavelength (out[ch], tech_wdm_channels entries) when its pSRAM
  /// cell stores `bit`, whatever the loaded weights: one index shift, then
  /// one transmission per channel.  Bit row b's chain transmission at channel
  /// ch — what its photodiode sees of that channel — is the product of
  /// out[ch] over the row's rings in ring order from 1.0, each at its
  /// stored bit; multiply() builds it that way.
  void ring_spectrum(unsigned bit_row, std::size_t ring, bool bit,
                     std::span<double> out) const;

  // --- hard faults -----------------------------------------------------------
  /// Latches one multiply ring's drive line: from now on the ring ignores
  /// its weight bit (and drive-level offset) and sits at the stuck bias.
  /// The ring's electro-optic shifts are re-derived from (stored bit,
  /// drive-level offset, fault latch) here, and every evaluation reads
  /// them, so the physics walk and the fast path see the identical faulted
  /// device.
  void set_ring_fault(unsigned bit_row, std::size_t channel,
                      RingFaultKind kind);
  /// Releases every latched ring: biases follow the weight bits again.
  void clear_ring_faults();
  std::size_t ring_fault_count() const { return ring_fault_count_; }

  const VectorMacroConfig& config() const { return config_; }

 private:
  /// Summed photocurrent; with `per_bit`, also each bit row's current
  /// (weight_bits() entries).
  double compute_current(std::span<const double> inputs,
                         double* per_bit) const;
  /// Junction bias of ring (bit_row, ring) storing `bit`: VDD or 0 plus the
  /// ring's drive-level offset, unless a fault latches the drive line.
  double ring_bias(unsigned bit_row, std::size_t ring, bool bit) const;
  /// Re-derives ring (bit_row, ring)'s electro-optic shift for both bits.
  void refresh_shifts(unsigned bit_row, std::size_t ring);

  /// One multiply ring: what variation spreads, and the electro-optic
  /// shift of the bias each stored bit selects.
  struct Ring {
    optics::RingDevice device;
    double bias_offset = 0.0;     ///< static pSRAM drive-level offset [V]
    double eo_shift[2] = {};      ///< at stored bit 0 / 1 (or its latch) [m]
  };

  VectorMacroConfig config_;
  double wavelengths_[tech_wdm_channels];  ///< channel_wavelength(ch)
  InputPath input_;
  optics::Photodiode photodiode_;
  /// The design ring at each ring position (its geometry and junction):
  /// ring k of every bit row is built from compute_ring_config(k).
  std::vector<optics::Microring> designs_;
  /// rings_[bit_row * tech_wdm_channels + ring]; bit_row 0 = MSB (receives
  /// IN/2).
  std::vector<Ring> rings_;
  std::vector<std::uint32_t> weights_;
  /// Per-ring stuck-at states, [bit_row][channel] flattened; empty until
  /// the first fault is injected (the common, healthy case stays free).
  std::vector<std::uint8_t> ring_faults_;
  std::size_t ring_fault_count_ = 0;
  double full_scale_current_ = 0.0;
  double temperature_offset_ = 0.0;
};

}  // namespace ptc::core

#endif  // PTC_CORE_VECTOR_MACRO_HPP
