#include "core/psram_array.hpp"

#include "common/expects.hpp"

namespace ptc::core {

PsramArray::PsramArray(const PsramArrayConfig& config) : config_(config) {
  expects(config.rows >= 1 && config.words_per_row >= 1,
          "array must have at least one word");
  expects(config.bits_per_word >= 1 && config.bits_per_word <= 16,
          "bits per word must be in [1, 16]");
  expects(config.write_rate > 0.0, "write rate must be positive");
  expects(config.write_energy >= 0.0, "write energy must be >= 0");
  words_.assign(config.rows * config.words_per_row, 0);
  cell_flips_.assign(words_.size() * config.bits_per_word, 0);
  cell_limits_ = FaultModel(config.fault).cell_limits(cell_flips_.size());
}

std::size_t PsramArray::bitcell_count() const {
  return config_.rows * config_.words_per_row * config_.bits_per_word;
}

std::uint32_t PsramArray::max_weight() const {
  return (1u << config_.bits_per_word) - 1;
}

std::size_t PsramArray::write_word(std::size_t row, std::size_t index,
                                   std::uint32_t value) {
  expects(row < config_.rows && index < config_.words_per_row,
          "word coordinates out of range");
  expects(value <= max_weight(), "weight exceeds the word precision");
  return store_words(row * config_.words_per_row + index,
                     std::span(&value, 1), ledger_.energy_slot("psram_write"));
}

double PsramArray::write_matrix(std::span<const std::uint32_t> values) {
  expects(values.size() == words_.size(),
          "matrix size must match the array geometry");
  const std::uint32_t max = max_weight();
  for (const std::uint32_t value : values) {
    expects(value <= max, "weight exceeds the word precision");
  }
  // One ledger lookup per matrix; the words book their energy in word
  // order, the same sum write_word would build.
  store_words(0, values, ledger_.energy_slot("psram_write"));
  // Rows update in parallel; each row streams words bit-serially at the
  // write rate.
  const double slots = static_cast<double>(config_.words_per_row) *
                       static_cast<double>(config_.bits_per_word);
  return slots / config_.write_rate;
}

std::size_t PsramArray::store_words(std::size_t first,
                                    std::span<const std::uint32_t> values,
                                    double& energy) {
  const unsigned bits = config_.bits_per_word;
  std::size_t flipped_total = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t word_index = first + i;
    std::uint32_t& word = words_[word_index];
    std::uint32_t applied = values[i];
    std::uint32_t* cells = cell_flips_.data() + word_index * bits;
    if (!cell_limits_.empty()) {
      const double* limits = cell_limits_.data() + word_index * bits;
      for (unsigned b = 0; b < bits; ++b) {
        if ((((applied ^ word) >> b) & 1u) != 0u &&
            static_cast<double>(cells[b]) >= limits[b]) {
          // Worn cell: the toggle silently fails and the bit holds its
          // last value.  No switching event, no write energy —
          // write-verify (the write_errors counter) is how a BIST finds
          // out.
          applied = (applied & ~(1u << b)) | (word & (1u << b));
          ++write_errors_;
        }
      }
    }
    const std::uint32_t flips = word ^ applied;
    word = applied;
    // Every flipped bit is one switching event of its cell.
    std::size_t flipped = 0;
    for (unsigned b = 0; b < bits; ++b) {
      const std::uint32_t flip = (flips >> b) & 1u;
      cells[b] += flip;
      flipped += flip;
    }
    flipped_total += flipped;
    energy += static_cast<double>(flipped) * config_.write_energy;
  }
  word_writes_ += values.size();
  bit_flips_ += flipped_total;
  return flipped_total;
}

std::uint32_t PsramArray::word(std::size_t row, std::size_t index) const {
  expects(row < config_.rows && index < config_.words_per_row,
          "word coordinates out of range");
  return words_[row * config_.words_per_row + index];
}

bool PsramArray::bit(std::size_t row, std::size_t index, unsigned b) const {
  expects(b < config_.bits_per_word, "bit index out of range");
  return (word(row, index) >> b) & 1u;
}

double PsramArray::hold_wall_power() const {
  return static_cast<double>(bitcell_count()) * config_.hold_bias_power /
         config_.wall_plug_efficiency;
}

std::uint64_t PsramArray::max_cell_flips() const {
  std::uint32_t worst = 0;
  for (const std::uint32_t flips : cell_flips_) {
    if (flips > worst) worst = flips;
  }
  return worst;
}

double PsramArray::word_write_time() const {
  return static_cast<double>(config_.bits_per_word) / config_.write_rate;
}

std::size_t PsramArray::failed_cells() const {
  if (cell_limits_.empty()) return 0;
  std::size_t failed = 0;
  for (std::size_t cell = 0; cell < cell_flips_.size(); ++cell) {
    if (static_cast<double>(cell_flips_[cell]) >= cell_limits_[cell]) ++failed;
  }
  return failed;
}

double PsramArray::endurance_remaining() const {
  if (cell_limits_.empty()) return 1.0;
  double worst = 1.0;
  for (std::size_t cell = 0; cell < cell_flips_.size(); ++cell) {
    const double remaining =
        1.0 - static_cast<double>(cell_flips_[cell]) / cell_limits_[cell];
    if (remaining < worst) worst = remaining;
  }
  return worst < 0.0 ? 0.0 : worst;
}

}  // namespace ptc::core
