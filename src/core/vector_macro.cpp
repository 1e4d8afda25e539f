#include "core/vector_macro.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::core {

namespace {
constexpr std::size_t kChannels = tech_wdm_channels;
}  // namespace

InputPath::InputPath(const VectorMacroConfig& config)
    : line_power(config.comb_power_per_line),
      loss(units::db_to_ratio(-config.encoder_insertion_loss_db)),
      floor(units::db_to_ratio(-config.encoder_extinction_db)),
      tap_factor(units::db_to_ratio(-config.splitter_excess_db) * 0.5) {
  expects(config.encoder_insertion_loss_db >= 0.0,
          "insertion loss must be >= 0 dB");
  expects(config.encoder_extinction_db > 0.0,
          "extinction ratio must be > 0 dB");
  expects(config.splitter_excess_db >= 0.0, "excess loss must be >= 0 dB");
  expects(config.comb_power_per_line > 0.0, "comb power must be positive");
}

VectorComputeMacro::VectorComputeMacro(const VectorMacroConfig& config)
    : config_(config), input_(config), photodiode_(config.photodiode) {
  expects(config.weight_bits >= 1 && config.weight_bits <= 8,
          "weight precision must be in [1, 8] bits");

  designs_.reserve(kChannels);
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    wavelengths_[ch] = channel_wavelength(ch);
    // Multiply rings sit on resonance at 0 V (weight bit 0 strips the
    // channel) and shift off resonance at VDD (bit 1 passes it).
    designs_.emplace_back(compute_ring_config(ch, /*pin_bias=*/0.0));
  }
  const VariationModel variation(config.variation);
  Rng variation_rng(config.variation.seed);
  rings_.resize(static_cast<std::size_t>(config.weight_bits) * kChannels);
  for (unsigned row = 0; row < config.weight_bits; ++row) {
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      Ring& ring = rings_[row * kChannels + ch];
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
  // Calibrate the full-scale photocurrent: all inputs at 1, all weights max.
  weights_.assign(kChannels, max_weight());
  double ones[kChannels];
  std::fill_n(ones, kChannels, 1.0);
  full_scale_current_ = photocurrent(ones);
  ensures(full_scale_current_ > 0.0, "full-scale calibration failed");
  weights_.assign(kChannels, 0);
}

void VectorComputeMacro::load_weights(std::span<const std::uint32_t> weights) {
  expects(weights.size() == kChannels, "need exactly one weight per channel");
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
        ring_faults_[bit_row * kChannels + ring])) {
      case RingFaultKind::kStuckOn:
        return 0.0;
      case RingFaultKind::kStuckOff:
        return tech_vdd;
      case RingFaultKind::kNone:
        break;
    }
  }
  const double offset = rings_[bit_row * kChannels + ring].bias_offset;
  return (bit ? tech_vdd : 0.0) + offset;
}

void VectorComputeMacro::refresh_shifts(unsigned bit_row, std::size_t ring) {
  Ring& r = rings_[bit_row * kChannels + ring];
  for (const bool bit : {false, true}) {
    r.eo_shift[bit ? 1 : 0] =
        designs_[ring].electro_optic_shift(ring_bias(bit_row, ring, bit));
  }
}

void VectorComputeMacro::ring_spectrum(unsigned bit_row, std::size_t ring,
                                       bool bit, std::span<double> out) const {
  expects(bit_row < config_.weight_bits, "bit row out of range");
  expects(ring < kChannels, "ring out of range");
  expects(out.size() == kChannels, "need one output per channel");
  const Ring& r = rings_[bit_row * kChannels + ring];
  const optics::RingGeometry& geometry = designs_[ring].geometry();
  const double dn = optics::ring_index_shift(
      geometry, r.device, r.eo_shift[bit ? 1 : 0], temperature_offset_);
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    out[ch] = optics::ring_thru_transmission(geometry, r.device, dn,
                                             wavelengths_[ch]);
  }
}

void VectorComputeMacro::set_ring_fault(unsigned bit_row, std::size_t channel,
                                        RingFaultKind kind) {
  expects(bit_row < config_.weight_bits, "bit row out of range");
  expects(channel < kChannels, "channel out of range");
  if (ring_faults_.empty()) {
    ring_faults_.assign(
        static_cast<std::size_t>(config_.weight_bits) * kChannels, 0);
  }
  std::uint8_t& slot = ring_faults_[bit_row * kChannels + channel];
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
    refresh_shifts(static_cast<unsigned>(i / kChannels), i % kChannels);
  }
  ring_faults_.clear();
  ring_fault_count_ = 0;
}

double VectorComputeMacro::compute_current(std::span<const double> inputs,
                                           double* per_bit) const {
  expects(inputs.size() == kChannels, "need exactly one input per channel");

  // Tap powers q[bit_row][channel]: each channel's encoded comb line after
  // the binary-weighted splitter cascade.
  const unsigned bits = config_.weight_bits;
  double taps[8 * kChannels];
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    input_.taps(inputs[ch], bits, taps + ch, kChannels);
  }

  const double responsivity = photodiode_.config().responsivity;
  double total_power_on_pds = 0.0;
  for (unsigned row = 0; row < bits; ++row) {
    // Every channel passes through every ring of the row — this is where
    // inter-channel crosstalk enters.  Each ring is evaluated once, at its
    // stored bit, and its spectrum multiplies into every channel's chain
    // transmission in ring order.  Bit row 0 is the MSB (significance
    // 2^(n-1)).
    const unsigned bit_index = bits - 1 - row;
    double transmission[kChannels];
    double spectrum[kChannels];
    std::fill_n(transmission, kChannels, 1.0);
    for (std::size_t ring = 0; ring < kChannels; ++ring) {
      const bool bit = (weights_[ring] >> bit_index) & 1u;
      ring_spectrum(row, ring, bit, spectrum);
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        transmission[ch] *= spectrum[ch];
      }
    }
    double row_power = 0.0;
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      row_power += taps[row * kChannels + ch] * transmission[ch];
    }
    if (per_bit != nullptr) per_bit[row] = responsivity * row_power;
    total_power_on_pds += row_power;
  }
  return responsivity * total_power_on_pds;
}

double VectorComputeMacro::photocurrent(std::span<const double> inputs) const {
  return compute_current(inputs, nullptr);
}

VectorComputeMacro::Result VectorComputeMacro::multiply(
    const std::vector<double>& inputs) const {
  Result result;
  result.per_bit_current.assign(config_.weight_bits, 0.0);
  result.photocurrent = compute_current(inputs, result.per_bit_current.data());
  result.normalized = result.photocurrent / full_scale_current_;
  return result;
}

double VectorComputeMacro::ideal_normalized(
    const std::vector<double>& inputs) const {
  expects(inputs.size() == kChannels, "need exactly one input per channel");
  double acc = 0.0;
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    acc += inputs[ch] * static_cast<double>(weights_[ch]);
  }
  return acc / (static_cast<double>(kChannels) *
                static_cast<double>(max_weight()));
}

}  // namespace ptc::core
