#include "core/vector_macro.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::core {

VectorComputeMacro::VectorComputeMacro(const VectorMacroConfig& config)
    : config_(config),
      encoder_(config.encoder_insertion_loss_db, config.encoder_extinction_db),
      taps_(config.weight_bits, config.splitter_excess_db),
      photodiode_(config.photodiode) {
  expects(config.channels >= 1 && config.channels <= tech_wdm_channels * 2,
          "channel count exceeds the usable FSR window");
  expects(config.weight_bits >= 1 && config.weight_bits <= 8,
          "weight precision must be in [1, 8] bits");
  expects(config.comb_power_per_line > 0.0, "comb power must be positive");

  wavelengths_.reserve(config.channels);
  for (std::size_t ch = 0; ch < config.channels; ++ch) {
    wavelengths_.push_back(channel_wavelength(ch));
  }
  comb_lines_ =
      optics::FrequencyComb(wavelengths_, config.comb_power_per_line).emit();

  designs_.reserve(config.channels);
  for (std::size_t ch = 0; ch < config.channels; ++ch) {
    // Multiply rings sit on resonance at 0 V (weight bit 0 strips the
    // channel) and shift off resonance at VDD (bit 1 passes it).
    designs_.emplace_back(compute_ring_config(ch, /*pin_bias=*/0.0));
  }
  const VariationModel variation(config.variation);
  Rng variation_rng(config.variation.seed);
  rings_.resize(static_cast<std::size_t>(config.weight_bits) * config.channels);
  for (unsigned row = 0; row < config.weight_bits; ++row) {
    for (std::size_t ch = 0; ch < config.channels; ++ch) {
      Ring& ring = rings_[row * config.channels + ch];
      if (variation.enabled()) {
        // Per-ring fabrication spread, drawn in (bit_row, channel) order.
        const auto d = variation.sample_ring(variation_rng);
        optics::MicroringConfig varied = designs_[ch].config();
        varied.loss_db_per_cm *= d.loss_scale;
        varied.coupling_gap_thru *= d.coupling_scale;
        varied.coupling_gap_drop *= d.coupling_scale;
        varied.dlambda_dt *= d.thermal_scale;
        ring.device = optics::Microring(varied).device();
        ring.device.resonance_error = d.resonance_error;
        ring.bias_offset = d.bias_offset;
      } else {
        ring.device = designs_[ch].device();
      }
      refresh_shifts(row, ch);
    }
  }
  weights_.assign(config.channels, 0);

  // Calibrate the full-scale photocurrent: all inputs at 1, all weights max.
  load_weights(std::vector<std::uint32_t>(config.channels, max_weight()));
  full_scale_current_ =
      compute_current(std::vector<double>(config.channels, 1.0), nullptr);
  ensures(full_scale_current_ > 0.0, "full-scale calibration failed");
  load_weights(std::vector<std::uint32_t>(config.channels, 0));
}

void VectorComputeMacro::load_weights(std::span<const std::uint32_t> weights) {
  expects(weights.size() == config_.channels,
          "need exactly one weight per channel");
  for (std::uint32_t w : weights) {
    expects(w <= max_weight(), "weight exceeds the configured precision");
  }
  weights_.assign(weights.begin(), weights.end());
}

double VectorComputeMacro::ring_bias(unsigned bit_row, std::size_t ring,
                                     bool bit) const {
  if (!ring_faults_.empty()) {
    // A latched drive line pins the ring regardless of the stored bit:
    // stuck-ON parks it on resonance (permanent bit 0, channel always
    // stripped), stuck-OFF latches it at VDD (permanent bit 1).
    switch (static_cast<RingFaultKind>(
        ring_faults_[bit_row * config_.channels + ring])) {
      case RingFaultKind::kStuckOn:
        return 0.0;
      case RingFaultKind::kStuckOff:
        return tech_vdd;
      case RingFaultKind::kNone:
        break;
    }
  }
  const double offset = rings_[bit_row * config_.channels + ring].bias_offset;
  return (bit ? tech_vdd : 0.0) + offset;
}

void VectorComputeMacro::refresh_shifts(unsigned bit_row, std::size_t ring) {
  Ring& r = rings_[bit_row * config_.channels + ring];
  for (const bool bit : {false, true}) {
    r.eo_shift[bit ? 1 : 0] =
        designs_[ring].electro_optic_shift(ring_bias(bit_row, ring, bit));
  }
}

void VectorComputeMacro::ring_spectrum(unsigned bit_row, std::size_t ring,
                                       bool bit, std::span<double> out) const {
  expects(bit_row < config_.weight_bits, "bit row out of range");
  expects(ring < config_.channels, "ring out of range");
  expects(out.size() == config_.channels, "need one output per channel");
  const Ring& r = rings_[bit_row * config_.channels + ring];
  const optics::RingGeometry& geometry = designs_[ring].geometry();
  const double dn = optics::ring_index_shift(
      geometry, r.device, r.eo_shift[bit ? 1 : 0], temperature_offset_);
  for (std::size_t ch = 0; ch < config_.channels; ++ch) {
    out[ch] = optics::ring_thru_transmission(geometry, r.device, dn,
                                             wavelengths_[ch]);
  }
}

void VectorComputeMacro::set_ring_fault(unsigned bit_row, std::size_t channel,
                                        RingFaultKind kind) {
  expects(bit_row < config_.weight_bits, "bit row out of range");
  expects(channel < config_.channels, "channel out of range");
  if (ring_faults_.empty()) {
    ring_faults_.assign(
        static_cast<std::size_t>(config_.weight_bits) * config_.channels, 0);
  }
  std::uint8_t& slot = ring_faults_[bit_row * config_.channels + channel];
  if (slot == static_cast<std::uint8_t>(RingFaultKind::kNone) &&
      kind != RingFaultKind::kNone) {
    ++ring_fault_count_;
  } else if (slot != static_cast<std::uint8_t>(RingFaultKind::kNone) &&
             kind == RingFaultKind::kNone) {
    --ring_fault_count_;
  }
  slot = static_cast<std::uint8_t>(kind);
  refresh_shifts(bit_row, channel);
}

void VectorComputeMacro::clear_ring_faults() {
  for (std::size_t i = 0; i < ring_faults_.size(); ++i) {
    if (ring_faults_[i] == 0) continue;
    ring_faults_[i] = 0;
    refresh_shifts(static_cast<unsigned>(i / config_.channels),
                   i % config_.channels);
  }
  ring_faults_.clear();
  ring_fault_count_ = 0;
}

double VectorComputeMacro::compute_current(const std::vector<double>& inputs,
                                           std::vector<double>* per_bit) const {
  expects(inputs.size() == config_.channels,
          "need exactly one input per channel");

  // The encoders imprint the inputs on the comb lines; the splitter
  // cascade makes the binary-weighted copies.
  const std::vector<optics::WdmSignal> bit_inputs =
      taps_.split(encoder_.encode(comb_lines_, inputs));

  const std::size_t m = config_.channels;
  if (per_bit != nullptr) per_bit->assign(config_.weight_bits, 0.0);
  double total_power_on_pds = 0.0;
  for (unsigned row = 0; row < config_.weight_bits; ++row) {
    // Every channel passes through every ring of the row — this is where
    // inter-channel crosstalk enters.  Each ring is evaluated once, at its
    // stored bit, and its spectrum multiplies into every channel's chain
    // transmission in ring order.  Bit row 0 is the MSB (significance
    // 2^(n-1)).
    const unsigned bit_index = config_.weight_bits - 1 - row;
    double transmission[2 * tech_wdm_channels];
    double spectrum[2 * tech_wdm_channels];
    std::fill_n(transmission, m, 1.0);
    for (std::size_t ring = 0; ring < m; ++ring) {
      const bool bit = (weights_[ring] >> bit_index) & 1u;
      ring_spectrum(row, ring, bit, std::span(spectrum, m));
      for (std::size_t ch = 0; ch < m; ++ch) transmission[ch] *= spectrum[ch];
    }
    double row_power = 0.0;
    for (std::size_t ch = 0; ch < m; ++ch) {
      row_power += bit_inputs[row].channel(ch).power * transmission[ch];
    }
    if (per_bit != nullptr)
      (*per_bit)[row] = photodiode_.config().responsivity * row_power;
    total_power_on_pds += row_power;
  }
  return photodiode_.config().responsivity * total_power_on_pds;
}

VectorComputeMacro::Result VectorComputeMacro::multiply(
    const std::vector<double>& inputs) const {
  Result result;
  result.photocurrent = compute_current(inputs, &result.per_bit_current);
  result.normalized = result.photocurrent / full_scale_current_;
  return result;
}

double VectorComputeMacro::ideal_normalized(
    const std::vector<double>& inputs) const {
  expects(inputs.size() == config_.channels,
          "need exactly one input per channel");
  double acc = 0.0;
  for (std::size_t ch = 0; ch < config_.channels; ++ch) {
    acc += inputs[ch] * static_cast<double>(weights_[ch]);
  }
  return acc / (static_cast<double>(config_.channels) *
                static_cast<double>(max_weight()));
}

}  // namespace ptc::core
