#include "core/tensor_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ptc::core {

TensorCore::TensorCore(const TensorCoreConfig& config)
    : config_([&] {
        TensorCoreConfig c = config;
        // The pSRAM geometry always mirrors the compute geometry.
        c.psram.rows = c.rows;
        c.psram.words_per_row = c.cols;
        c.psram.bits_per_word = c.weight_bits;
        c.macro.weight_bits = c.weight_bits;
        return c;
      }()),
      psram_(config_.psram),
      input_(config_.macro),
      adc_(config_.adc) {
  expects(config_.rows >= 1, "core needs at least one row");
  expects(config_.cols >= 1, "core needs at least one column");
  expects(config_.cols % tech_wdm_channels == 0,
          "cols must be a multiple of the macro channel count");

  const VariationModel variation(config_.variation);
  macros_.resize(config_.rows);
  const std::size_t tiles = macros_per_row();
  for (std::size_t row = 0; row < config_.rows; ++row) {
    macros_[row].reserve(tiles);
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      VectorMacroConfig macro_config = config_.macro;
      if (variation.enabled()) {
        // Every macro is a distinct fabricated device on this die.
        macro_config.variation = config_.variation;
        macro_config.variation.seed = variation.child_seed(row * tiles + tile);
      }
      macros_[row].emplace_back(macro_config);
    }
  }
  adc_dead_.assign(config_.rows, 0);

  // Reserved calibration row: one macro per tile, weights all zero (as a
  // macro is built) so every probe ring sits on resonance — the steepest
  // flank of its transfer function, where a common-mode detuning moves the
  // summed photocurrent the most.  Child seeds start `rows` indices past
  // the compute macros' (those indices stay reserved), so the probe row
  // never disturbs the compute macros' variation streams and keeps its own.
  probe_macros_.reserve(tiles);
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    VectorMacroConfig probe_macro_config = config_.macro;
    if (variation.enabled()) {
      probe_macro_config.variation = config_.variation;
      probe_macro_config.variation.seed =
          variation.child_seed(config_.rows * tiles + config_.rows + tile);
    }
    probe_macros_.emplace_back(probe_macro_config);
  }
  probe_input_.assign(tech_wdm_channels, 1.0);
  probe_reference_ = 0.0;
  for (const VectorComputeMacro& macro : probe_macros_) {
    probe_reference_ += macro.photocurrent(probe_input_);
  }
  ensures(probe_reference_ > 0.0, "probe row calibration failed");

  // Full-scale row current: all inputs 1, all weights max across every tile.
  // The probe is the *design* device (variation stripped): a varied die's
  // deviation from this full scale is exactly the accuracy error the
  // variation/recalibration studies measure.
  VectorMacroConfig probe_config = config_.macro;
  probe_config.variation = VariationConfig{};
  VectorComputeMacro probe(probe_config);
  probe.load_weights(
      std::vector<std::uint32_t>(tech_wdm_channels, probe.max_weight()));
  full_scale_row_current_ =
      probe.photocurrent(probe_input_) * static_cast<double>(tiles);
  ensures(full_scale_row_current_ > 0.0, "row full-scale calibration failed");

  // Every code's readout level, code / max_code, for the batch readout.
  const unsigned max_code = adc_.max_code();
  code_levels_.resize(max_code + 1);
  for (unsigned code = 0; code <= max_code; ++code) {
    code_levels_[code] =
        static_cast<double>(code) / static_cast<double>(max_code);
  }
  analog_scratch_.assign(config_.rows, 0.0);

  const auto power_parts = breakdown();
  ledger_.add_static_power("adc", power_parts.adc);
  ledger_.add_static_power("row_tia", power_parts.row_tia);
  ledger_.add_static_power("comb_laser", power_parts.comb_laser);
  ledger_.add_static_power("psram_hold", power_parts.psram_hold);
  ledger_.add_static_power("weight_update", power_parts.weight_update);
  ledger_.add_static_power("control", power_parts.control);
}

std::size_t TensorCore::macros_per_row() const {
  return config_.cols / tech_wdm_channels;
}

double TensorCore::load_weights(
    const std::vector<std::vector<std::uint32_t>>& weights) {
  expects(weights.size() == config_.rows, "weight matrix row count mismatch");
  word_scratch_.clear();
  for (const auto& row : weights) {
    expects(row.size() == config_.cols, "weight matrix column count mismatch");
    word_scratch_.insert(word_scratch_.end(), row.begin(), row.end());
  }
  return load_words();
}

double TensorCore::load_weights_normalized(const Matrix& weights) {
  expects(weights.rows() == config_.rows && weights.cols() == config_.cols,
          "weight matrix shape mismatch");
  const double scale = static_cast<double>(max_weight());
  // Matrix storage is row-major, the pSRAM's word order.  A rejected value
  // throws before load_words stores anything.
  const std::vector<double>& values = weights.data();
  word_scratch_.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double w = values[i];
    expects(w >= 0.0 && w <= 1.0, "normalized weights must be in [0, 1]");
    // std::lround without the library call: rounds half away from zero.
    // x is in [0, max_weight], where x minus its truncation is exact.
    const double x = w * scale;
    const auto whole = static_cast<std::uint32_t>(x);
    word_scratch_[i] =
        whole + (x - static_cast<double>(whole) >= 0.5 ? 1u : 0u);
  }
  return load_words();
}

double TensorCore::load_words() {
  // The pSRAM's words always equal the macros' copies: both start all
  // zero, and only this loop changes either, reprogramming a macro right
  // after its block is stored.  So the blocks the pSRAM skips as unchanged
  // are exactly the macros whose rings and chain entries were built from
  // the words they hold.  A stale chain predates the current detuning or
  // fault set and is rebuilt whole below.
  constexpr std::size_t m = tech_wdm_channels;
  const bool chain_current = config_.fast_path && !fast_.stale;
  const double latency =
      psram_.write_matrix(word_scratch_, m, [&](std::size_t first) {
        const std::size_t row = first / config_.cols;
        const std::size_t tile = (first - row * config_.cols) / m;
        macros_[row][tile].load_weights(psram_.words().subspan(first, m));
        if (chain_current) build_macro_chain(row, tile);
      });
  weights_loaded_ = true;
  if (config_.fast_path && fast_.stale) build_chain();
  return latency;
}

void TensorCore::build_chain() {
  if (fast_.table.empty()) {
    // Rows are grouped in blocks of kRowBlock with their gains interleaved
    // innermost, so the side-by-side replay reads them contiguously; the
    // last block is padded with zero-gain rows whose sums are never read.
    const std::size_t tiles = macros_per_row();
    const std::size_t bits = config_.weight_bits;
    constexpr std::size_t m = tech_wdm_channels;
    const std::size_t rings = config_.rows * tiles * bits * m;
    const std::size_t blocks = (config_.rows + kRowBlock - 1) / kRowBlock;
    fast_.chain.assign(blocks * kRowBlock * tiles * bits * m, 0.0);
    fast_.table.assign(rings * 2 * m, 0.0);
    fast_.filled.assign(rings * 2, 0);
  }
  for (std::size_t row = 0; row < config_.rows; ++row) {
    for (std::size_t tile = 0; tile < macros_per_row(); ++tile) {
      build_macro_chain(row, tile);
    }
  }
  fast_.stale = false;
}

void TensorCore::build_macro_chain(std::size_t row, std::size_t tile) {
  const std::size_t bits = config_.weight_bits;
  constexpr std::size_t m = tech_wdm_channels;
  const std::size_t tiles = config_.cols / m;
  const std::size_t block = row / kRowBlock;
  const std::size_t j = row % kRowBlock;
  const std::uint32_t* tile_words =
      psram_.words().data() + row * config_.cols + tile * m;
  const VectorComputeMacro& macro = macros_[row][tile];
  for (std::size_t bit = 0; bit < bits; ++bit) {
    // Bit row 0 is the MSB (significance 2^(n-1)).
    const std::size_t shift = bits - 1 - bit;
    const std::size_t ring0 = ((row * tiles + tile) * bits + bit) * m;
    // Per-channel products over the bit row's rings in ring order, each
    // ring at the spectrum of its stored bit.
    double transmission[m];
    std::fill_n(transmission, m, 1.0);
    for (std::size_t k = 0; k < m; ++k) {
      const bool stored = (tile_words[k] >> shift) & 1u;
      const std::size_t slot = (ring0 + k) * 2 + (stored ? 1 : 0);
      double* spectrum = fast_.table.data() + slot * m;
      if (fast_.filled[slot] == 0) {
        macro.ring_spectrum(static_cast<unsigned>(bit), k, stored,
                            std::span(spectrum, m));
        fast_.filled[slot] = 1;
      }
      for (std::size_t ch = 0; ch < m; ++ch) {
        transmission[ch] *= spectrum[ch];
      }
    }
    double* gains = fast_.chain.data() +
                    ((block * tiles + tile) * bits + bit) * m * kRowBlock + j;
    for (std::size_t ch = 0; ch < m; ++ch) {
      gains[ch * kRowBlock] = transmission[ch];
    }
  }
}

void TensorCore::invalidate_fast_path() {
  std::fill(fast_.filled.begin(), fast_.filled.end(), std::uint8_t{0});
  fast_.stale = true;
}

void TensorCore::set_thermal_detuning(double delta_kelvin) {
  // A stuck heater has no tuning authority: the detuning stays frozen at
  // whatever value it had when the fault hit, and recalibrate() cannot
  // re-lock the core until the fault is cleared.
  if (heater_stuck_) return;
  detuning_ = delta_kelvin;
  for (auto& row : macros_) {
    for (auto& macro : row) {
      macro.set_temperature_offset(delta_kelvin);
    }
  }
  // The probe row shares the die, so ambient drift detunes it identically —
  // that coupling is exactly what makes its transmission a drift sensor.
  for (auto& macro : probe_macros_) {
    macro.set_temperature_offset(delta_kelvin);
  }
  // Serving reloads before it samples, so the gains are rebuilt lazily: by
  // the next load, or by the first sample if none comes first.
  invalidate_fast_path();
}

void TensorCore::recalibrate() {
  set_thermal_detuning(0.0);
  ++calibration_epoch_;
}

double TensorCore::probe_transmission() const {
  double current = 0.0;
  for (const VectorComputeMacro& macro : probe_macros_) {
    current += macro.photocurrent(probe_input_);
  }
  return current / probe_reference_;
}

std::vector<double> TensorCore::probe_response_curve(
    const std::vector<double>& detunings) {
  std::vector<double> out;
  out.reserve(detunings.size());
  for (const double k : detunings) {
    for (auto& macro : probe_macros_) macro.set_temperature_offset(k);
    out.push_back(probe_transmission());
  }
  for (auto& macro : probe_macros_) macro.set_temperature_offset(detuning_);
  return out;
}

void TensorCore::analog_row_values_physics(const double* input, double* out) {
  constexpr std::size_t m = tech_wdm_channels;
  for (std::size_t row = 0; row < config_.rows; ++row) {
    double current = 0.0;
    for (std::size_t tile = 0; tile < macros_per_row(); ++tile) {
      current += macros_[row][tile].photocurrent(
          std::span(input + tile * m, m));
    }
    out[row] = current / full_scale_row_current_;
  }
}

void TensorCore::analog_row_values(const double* input, double* out) {
  if (!fast_path_active()) {
    analog_row_values_physics(input, out);
    return;
  }
  if (fast_.stale) build_chain();

  // Per-sample tap powers q[tile][bit_row][ch], through the input path the
  // physics walk uses, shared by every output row.
  const std::size_t bits = config_.weight_bits;
  constexpr std::size_t m = tech_wdm_channels;
  const std::size_t tiles = macros_per_row();
  tap_scratch_.resize(tiles * bits * m);
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    for (std::size_t ch = 0; ch < m; ++ch) {
      input_.taps(input[tile * m + ch], config_.weight_bits,
                  tap_scratch_.data() + tile * bits * m + ch, m);
    }
  }
  replay_rows(out);
}

void TensorCore::replay_rows(double* out) const {
  // Canonical-order photocurrent sum: channels within a bit row, bit rows
  // within a macro, macro tiles along the row — the same nesting the
  // spectral walk uses, so the accumulation is bit-identical.  Rows are
  // independent sums, so kRowBlock of them replay side by side (each with
  // its own accumulators, each in the canonical order) over their
  // interleaved gains; the tap powers are loaded once per block.
  const std::size_t bits = config_.weight_bits;
  constexpr std::size_t m = tech_wdm_channels;
  const std::size_t tiles = macros_per_row();
  const double responsivity = config_.macro.photodiode.responsivity;
  const double* taps = tap_scratch_.data();
  const std::size_t row_stride = tiles * bits * m;
  for (std::size_t row = 0; row < config_.rows; row += kRowBlock) {
    const double* gains = fast_.chain.data() + row * row_stride;
    double current[kRowBlock] = {};
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      double power_on_pds[kRowBlock] = {};
      for (std::size_t bit = 0; bit < bits; ++bit) {
        const std::size_t offset = (tile * bits + bit) * m;
        const double* q = taps + offset;
        const double* g = gains + offset * kRowBlock;
        double row_power[kRowBlock] = {};
        for (std::size_t ch = 0; ch < m; ++ch) {
          for (std::size_t j = 0; j < kRowBlock; ++j) {
            row_power[j] += q[ch] * g[ch * kRowBlock + j];
          }
        }
        for (std::size_t j = 0; j < kRowBlock; ++j) {
          power_on_pds[j] += row_power[j];
        }
      }
      for (std::size_t j = 0; j < kRowBlock; ++j) {
        current[j] += responsivity * power_on_pds[j];
      }
    }
    for (std::size_t j = 0; j < kRowBlock && row + j < config_.rows; ++j) {
      out[row + j] = current[j] / full_scale_row_current_;
    }
  }
}

std::vector<double> TensorCore::multiply_analog(
    const std::vector<double>& input) {
  expects(input.size() == config_.cols, "input length must equal cols");
  std::vector<double> row_values(config_.rows, 0.0);
  analog_row_values(input.data(), row_values.data());
  return row_values;
}

template <class Emit>
std::uint64_t TensorCore::read_out(const double* analog, Emit emit) const {
  // Row TIA maps the full-scale current range onto the ADC input range,
  // scaled by the programmable readout gain.  The physics oracle converts
  // through the ring walk, so every fast-vs-physics comparison also pins
  // the eoADC interval table.
  const unsigned max_code = adc_.max_code();
  std::uint64_t saturations = 0;
  for (std::size_t row = 0; row < config_.rows; ++row) {
    const double v_adc = analog[row] * readout_gain_ * config_.adc.v_full_scale;
    unsigned code = 0;
    if (adc_dead_[row] == 0) {
      code = config_.fast_path ? adc_.code(v_adc) : adc_.convert(v_adc).code;
    }
    saturations += code == max_code ? 1 : 0;
    emit(row, code);
  }
  return saturations;
}

std::vector<unsigned> TensorCore::multiply(const std::vector<double>& input) {
  const std::vector<double> analog = multiply_analog(input);
  std::vector<unsigned> codes(config_.rows, 0);
  adc_saturations_ += read_out(
      analog.data(), [&](std::size_t row, unsigned code) { codes[row] = code; });
  adc_conversions_ += config_.rows;
  ++samples_;
  // One ADC sample window of static power is burned per multiply.
  ledger_.accrue_static(1.0 / adc_.sample_rate());
  return codes;
}

std::size_t TensorCore::batch_samples(std::span<const double> inputs,
                                      std::span<double> out) const {
  const std::size_t samples = inputs.size() / config_.cols;
  expects(inputs.size() == samples * config_.cols,
          "inputs must hold whole rows of cols values");
  expects(out.size() == samples * config_.rows,
          "outputs must hold one row of rows values per sample");
  return samples;
}

void TensorCore::multiply_analog_batch(std::span<const double> inputs,
                                       std::span<double> out) {
  const std::size_t samples = batch_samples(inputs, out);
  for (std::size_t s = 0; s < samples; ++s) {
    // A sample is a contiguous slice; its analog values land directly in
    // its output row — no per-sample copies.
    analog_row_values(inputs.data() + s * config_.cols,
                      out.data() + s * config_.rows);
  }
}

Matrix TensorCore::multiply_analog_batch(const Matrix& inputs) {
  expects(inputs.cols() == config_.cols, "input width must equal cols");
  Matrix out(inputs.rows(), config_.rows);
  multiply_analog_batch(inputs.data(), out.data());
  return out;
}

void TensorCore::multiply_batch(std::span<const double> inputs,
                                std::span<double> out) {
  const std::size_t samples = batch_samples(inputs, out);
  const double sample_window = 1.0 / adc_.sample_rate();
  std::uint64_t saturations = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    analog_row_values(inputs.data() + s * config_.cols, analog_scratch_.data());
    double* row_out = out.data() + s * config_.rows;
    saturations += read_out(analog_scratch_.data(),
                            [&](std::size_t row, unsigned code) {
                              row_out[row] = code_levels_[code];
                            });
    ++samples_;
    ledger_.accrue_static(sample_window);
  }
  adc_conversions_ += samples * config_.rows;
  adc_saturations_ += saturations;
}

Matrix TensorCore::multiply_batch(const Matrix& inputs) {
  expects(inputs.cols() == config_.cols, "input width must equal cols");
  Matrix out(inputs.rows(), config_.rows);
  multiply_batch(inputs.data(), out.data());
  return out;
}

std::vector<double> TensorCore::reference(
    const std::vector<double>& input) const {
  expects(input.size() == config_.cols, "input length must equal cols");
  std::vector<double> out(config_.rows, 0.0);
  const double denom = static_cast<double>(config_.cols) *
                       static_cast<double>(max_weight());
  for (std::size_t row = 0; row < config_.rows; ++row) {
    double acc = 0.0;
    for (std::size_t col = 0; col < config_.cols; ++col) {
      acc += input[col] * static_cast<double>(psram_.word(row, col));
    }
    out[row] = acc / denom;
  }
  return out;
}

double TensorCore::ops_per_sample() const {
  // rows dot products of length cols: cols multiplies + cols additions each.
  return static_cast<double>(config_.rows) * 2.0 *
         static_cast<double>(config_.cols);
}

double TensorCore::throughput_ops() const {
  return ops_per_sample() * adc_.sample_rate();
}

TensorCore::PowerBreakdown TensorCore::breakdown() const {
  PowerBreakdown b;
  const auto rows = static_cast<double>(config_.rows);
  b.adc = rows * adc_.total_power();
  b.row_tia = rows * config_.row_tia_power;
  // Comb lines are broadcast across rows: one line per column channel.
  b.comb_laser = static_cast<double>(config_.cols) *
                 config_.macro.comb_power_per_line /
                 config_.wall_plug_efficiency;
  b.psram_hold = psram_.hold_wall_power();
  // Weight streaming: all rows write in parallel, one cell per slot each.
  const double write_events_per_second =
      rows * config_.psram.write_rate * config_.weight_update_duty;
  b.weight_update = write_events_per_second * config_.psram.write_energy;
  b.control = config_.control_power;
  return b;
}

double TensorCore::power() const { return breakdown().total(); }

double TensorCore::tops_per_watt() const {
  return throughput_ops() / power();
}

void TensorCore::set_readout_gain(double gain) {
  expects(gain > 0.0, "readout gain must be positive");
  readout_gain_ = gain;
}

const EoAdc& TensorCore::adc(std::size_t row) const {
  expects(row < config_.rows, "row index out of range");
  return adc_;
}

void TensorCore::inject_ring_faults(const std::vector<RingFaultSite>& sites) {
  constexpr std::size_t m = tech_wdm_channels;
  for (const RingFaultSite& site : sites) {
    expects(site.row < config_.rows && site.col < config_.cols,
            "ring coordinates out of range");
    macros_[site.row][site.col / m].set_ring_fault(site.bit, site.col % m,
                                                   site.kind);
  }
  invalidate_fast_path();
}

void TensorCore::inject_stuck_heater() { heater_stuck_ = true; }

void TensorCore::inject_adc_fault(std::size_t row) {
  expects(row < config_.rows, "row index out of range");
  adc_dead_[row] = 1;
}

bool TensorCore::adc_faulted(std::size_t row) const {
  expects(row < config_.rows, "row index out of range");
  return adc_dead_[row] != 0;
}

std::size_t TensorCore::adc_fault_count() const {
  std::size_t count = 0;
  for (const std::uint8_t dead : adc_dead_) count += dead != 0 ? 1 : 0;
  return count;
}

std::size_t TensorCore::ring_fault_count() const {
  std::size_t count = 0;
  for (const auto& row : macros_) {
    for (const VectorComputeMacro& macro : row) {
      count += macro.ring_fault_count();
    }
  }
  return count;
}

void TensorCore::clear_faults() {
  for (auto& row : macros_) {
    for (VectorComputeMacro& macro : row) macro.clear_ring_faults();
  }
  std::fill(adc_dead_.begin(), adc_dead_.end(), 0);
  heater_stuck_ = false;
  invalidate_fast_path();
}

TensorCore::SelfTestResult TensorCore::self_test(std::size_t samples,
                                                 std::uint64_t seed) {
  expects(samples >= 1, "self-test needs at least one probe vector");
  if (!weights_loaded_) {
    // Nothing resident: program a checkerboard BIST pattern so the probes
    // exercise every ring row in both bit polarities.
    std::vector<std::vector<std::uint32_t>> pattern(
        config_.rows, std::vector<std::uint32_t>(config_.cols));
    for (std::size_t r = 0; r < config_.rows; ++r) {
      for (std::size_t c = 0; c < config_.cols; ++c) {
        pattern[r][c] = (r + c) % 2 == 0 ? max_weight() : max_weight() >> 1;
      }
    }
    load_weights(pattern);
  }

  SelfTestResult result;
  Rng rng(seed);
  std::vector<double> input(config_.cols);
  std::vector<unsigned> row_max_code(config_.rows, 0);
  std::vector<double> row_max_analog(config_.rows, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    for (double& x : input) x = rng.uniform();
    const std::vector<double> analog = multiply_analog(input);
    const std::vector<unsigned> codes = multiply(input);
    const std::vector<double> ref = reference(input);
    for (std::size_t r = 0; r < config_.rows; ++r) {
      const double err = std::abs(analog[r] - ref[r]);
      if (err > result.max_row_error) result.max_row_error = err;
      if (codes[r] > row_max_code[r]) row_max_code[r] = codes[r];
      if (analog[r] > row_max_analog[r]) row_max_analog[r] = analog[r];
    }
  }
  // A ladder is stuck when its codes pin at zero while the analog value it
  // should quantize clears 1.5 LSB — beyond any healthy quantization floor
  // or reference-ladder mismatch.
  const double lsb =
      1.0 / static_cast<double>(adc_.max_code()) / readout_gain_;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    if (row_max_code[r] == 0 && row_max_analog[r] > 1.5 * lsb) {
      ++result.stuck_adc_rows;
    }
  }
  result.heater_locked = !heater_stuck_;
  return result;
}

}  // namespace ptc::core
