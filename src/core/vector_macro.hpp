#ifndef PTC_CORE_VECTOR_MACRO_HPP
#define PTC_CORE_VECTOR_MACRO_HPP

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/fault.hpp"
#include "core/tech.hpp"
#include "core/variation.hpp"
#include "optics/frequency_comb.hpp"
#include "optics/microring.hpp"
#include "optics/photodiode.hpp"
#include "optics/splitter.hpp"

/// Mixed-signal multi-bit photonic vector-multiply compute core — paper
/// Fig. 2 / Sec. II-B.
///
/// The macro multiplies an analog intensity-encoded input vector
/// IN = [IN_1 .. IN_m] (one WDM channel per element) by an n-bit digital
/// weight vector stored in pSRAM:
///
///  * a frequency comb + intensity encoders produce the WDM input bundle;
///  * a cascade of n 50:50 splitters creates binary-scaled copies IN/2,
///    IN/4, ..., IN/2^n — one per weight bit, MSB row first;
///  * bit row b carries m microrings, ring (b, k) tuned to channel k and
///    driven by weight bit w_k[n-1-b]: on resonance (bit = 0) it strips the
///    channel from the bus, off resonance (bit = 1) it passes it;
///  * each bit row terminates in a photodiode; the n photocurrents sum on a
///    shared node, yielding  I ~ sum_k IN_k * W_k / 2^n.
///
/// The spectral evaluation includes inter-channel crosstalk: every ring's
/// transfer function is evaluated at *every* channel wavelength, exactly the
/// methodology the paper describes in Sec. IV-B.
namespace ptc::core {

struct VectorMacroConfig {
  std::size_t channels = tech_wdm_channels;  ///< m (vector length per macro)
  unsigned weight_bits = 3;                  ///< n
  double comb_power_per_line = 2.2e-3;       ///< [W] per WDM channel
  double encoder_insertion_loss_db = 0.5;
  double encoder_extinction_db = 25.0;
  double splitter_excess_db = 0.1;
  optics::PhotodiodeConfig photodiode{};
  double wall_plug_efficiency = tech_wall_plug;
  /// Per-device fabrication/drive-level variation; variation.seed == 0 is
  /// the pristine design device.  A TensorCore derives one child seed per
  /// macro, so every macro of a varied core is a distinct device.
  VariationConfig variation{};
};

class VectorComputeMacro {
 public:
  explicit VectorComputeMacro(const VectorMacroConfig& config = {});

  std::size_t channels() const { return config_.channels; }
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
  /// applied to every multiply ring.  Each ring responds through its own
  /// (variation-spread) thermo-optic sensitivity, so a common-mode drift
  /// still detunes the rings heterogeneously.
  void set_temperature_offset(double delta_kelvin);
  double temperature_offset() const { return temperature_offset_; }

  const std::vector<std::uint32_t>& weights() const { return weights_; }

  struct Result {
    double photocurrent = 0.0;  ///< summed photodiode current [A]
    double normalized = 0.0;    ///< photocurrent / full-scale photocurrent
    std::vector<double> per_bit_current;  ///< one entry per bit row [A]
  };

  /// Multiplies the loaded weights by the normalized analog inputs
  /// (values in [0, 1], one per channel).
  Result multiply(const std::vector<double>& inputs) const;

  /// Ideal (error-free) normalized result for comparison:
  /// sum_k in_k * w_k / (m * (2^n - 1)).
  double ideal_normalized(const std::vector<double>& inputs) const;

  /// Full-scale photocurrent (all inputs 1, all weights max) [A].
  double full_scale_current() const { return full_scale_current_; }

  /// Transmission of channel `channel` through bit-row `bit_row`'s ring
  /// chain, given current weights — the ring walk of the physics path, and
  /// exposes crosstalk for tests/benches.
  double chain_transmission(std::size_t bit_row, std::size_t channel) const;

  /// Thru transmissions of ring `ring` of bit row `bit_row` at every
  /// channel wavelength (out[ch], channels() entries) when its pSRAM cell
  /// stores `bit`, whatever the loaded weights.  chain_transmission(b, ch)
  /// is the product of out[ch] over the row's rings in ring order, each at
  /// its stored bit.
  void ring_spectrum(unsigned bit_row, std::size_t ring, bool bit,
                     std::span<double> out) const;

  // --- hard faults -----------------------------------------------------------
  /// Latches one multiply ring's drive line: from now on the ring ignores
  /// its weight bit (and drive-level offset) and sits at the stuck bias.
  /// Every transmission evaluation derives the ring's bias from (stored
  /// bit, drive-level offset, fault latch), so the physics walk and the
  /// fast path see the identical faulted device.
  void set_ring_fault(unsigned bit_row, std::size_t channel,
                      RingFaultKind kind);
  /// Releases every latched ring: biases follow the weight bits again.
  void clear_ring_faults();
  std::size_t ring_fault_count() const { return ring_fault_count_; }

  /// Optical wall-plug power of the macro's comb lines [W].
  double comb_wall_power() const;

  const VectorMacroConfig& config() const { return config_; }

 private:
  double compute_current(const std::vector<double>& inputs,
                         std::vector<double>* per_bit) const;
  /// Junction bias of ring (bit_row, ring) storing `bit`: VDD or 0 plus the
  /// ring's drive-level offset, unless a fault latches the drive line.
  double ring_bias(unsigned bit_row, std::size_t ring, bool bit) const;

  VectorMacroConfig config_;
  std::vector<double> wavelengths_;  ///< channel_wavelength(ch) per channel
  optics::IntensityEncoder encoder_;
  optics::Photodiode photodiode_;
  /// rings_[bit_row][channel]; bit_row 0 = MSB (receives IN/2).  Their
  /// bias is never set: evaluations pass ring_bias() explicitly.
  std::vector<std::vector<optics::Microring>> rings_;
  /// Static per-ring pSRAM drive-level offsets [V], same indexing as
  /// rings_; empty when variation is disabled.
  std::vector<std::vector<double>> bias_offsets_;
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
