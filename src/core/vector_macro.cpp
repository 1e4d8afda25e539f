#include "core/vector_macro.hpp"

#include <cmath>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::core {

VectorComputeMacro::VectorComputeMacro(const VectorMacroConfig& config)
    : config_(config),
      encoder_(config.encoder_insertion_loss_db, config.encoder_extinction_db),
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

  const VariationModel variation(config.variation);
  Rng variation_rng(config.variation.seed);
  rings_.resize(config.weight_bits);
  if (variation.enabled()) bias_offsets_.resize(config.weight_bits);
  for (unsigned row = 0; row < config.weight_bits; ++row) {
    rings_[row].reserve(config.channels);
    if (variation.enabled()) bias_offsets_[row].reserve(config.channels);
    for (std::size_t ch = 0; ch < config.channels; ++ch) {
      // Multiply rings sit on resonance at 0 V (weight bit 0 strips the
      // channel) and shift off resonance at VDD (bit 1 passes it).
      optics::MicroringConfig ring = compute_ring_config(ch, /*pin_bias=*/0.0);
      if (variation.enabled()) {
        // Per-ring fabrication spread, drawn in (bit_row, channel) order.
        const auto d = variation.sample_ring(variation_rng);
        ring.loss_db_per_cm *= d.loss_scale;
        ring.coupling_gap_thru *= d.coupling_scale;
        ring.coupling_gap_drop *= d.coupling_scale;
        ring.dlambda_dt *= d.thermal_scale;
        rings_[row].emplace_back(ring);
        rings_[row].back().set_resonance_error(d.resonance_error);
        bias_offsets_[row].push_back(d.bias_offset);
      } else {
        rings_[row].emplace_back(ring);
      }
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
  const double offset =
      bias_offsets_.empty() ? 0.0 : bias_offsets_[bit_row][ring];
  return (bit ? tech_vdd : 0.0) + offset;
}

void VectorComputeMacro::ring_spectrum(unsigned bit_row, std::size_t ring,
                                       bool bit, std::span<double> out) const {
  expects(bit_row < config_.weight_bits, "bit row out of range");
  expects(ring < config_.channels, "ring out of range");
  rings_[bit_row][ring].thru_spectrum_at(ring_bias(bit_row, ring, bit),
                                         wavelengths_, out);
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
}

void VectorComputeMacro::clear_ring_faults() {
  ring_faults_.clear();
  ring_fault_count_ = 0;
}

void VectorComputeMacro::set_temperature_offset(double delta_kelvin) {
  temperature_offset_ = delta_kelvin;
  for (auto& row : rings_) {
    for (auto& ring : row) {
      ring.set_temperature_offset(delta_kelvin);
    }
  }
}

double VectorComputeMacro::chain_transmission(std::size_t bit_row,
                                              std::size_t channel) const {
  expects(bit_row < rings_.size(), "bit row out of range");
  expects(channel < config_.channels, "channel out of range");
  const double lambda = wavelengths_[channel];
  // Bit row 0 is the MSB (significance 2^(n-1)).
  const unsigned bit_index = config_.weight_bits - 1 - bit_row;
  double transmission = 1.0;
  for (std::size_t ring = 0; ring < config_.channels; ++ring) {
    const bool bit = (weights_[ring] >> bit_index) & 1u;
    transmission *= rings_[bit_row][ring].thru_transmission_at(
        ring_bias(static_cast<unsigned>(bit_row), ring, bit), lambda);
  }
  return transmission;
}

double VectorComputeMacro::compute_current(const std::vector<double>& inputs,
                                           std::vector<double>* per_bit) const {
  expects(inputs.size() == config_.channels,
          "need exactly one input per channel");

  // Comb + encoders produce the WDM input bundle.
  optics::FrequencyComb comb(optics::WavelengthGrid(wavelengths_),
                             config_.comb_power_per_line,
                             config_.wall_plug_efficiency);
  const optics::WdmSignal encoded = encoder_.encode(comb.emit(), inputs);

  // Binary-weighted splitter cascade: tap k carries IN / 2^(k+1).
  const optics::BinaryWeightedTaps taps(config_.weight_bits,
                                        config_.splitter_excess_db);
  const std::vector<optics::WdmSignal> bit_inputs = taps.split(encoded);

  if (per_bit != nullptr) per_bit->assign(config_.weight_bits, 0.0);
  double total_power_on_pds = 0.0;
  for (unsigned row = 0; row < config_.weight_bits; ++row) {
    double row_power = 0.0;
    for (std::size_t ch = 0; ch < config_.channels; ++ch) {
      // Channel ch passes through every ring of the row — this is where
      // inter-channel crosstalk enters.
      row_power +=
          bit_inputs[row].channel(ch).power * chain_transmission(row, ch);
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

double VectorComputeMacro::comb_wall_power() const {
  return config_.comb_power_per_line * static_cast<double>(config_.channels) /
         config_.wall_plug_efficiency;
}

}  // namespace ptc::core
