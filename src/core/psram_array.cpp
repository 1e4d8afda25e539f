#include "core/psram_array.hpp"

#include <bit>

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
  ++word_writes_;
  return store_words(row * config_.words_per_row + index,
                     std::span(&value, 1), ledger_.energy_slot("psram_write"));
}

std::size_t PsramArray::store_words(std::size_t first,
                                    std::span<const std::uint32_t> values,
                                    double& energy) {
  std::size_t flipped_total = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t& word = words_[first + i];
    // A word rewritten with its stored value toggles no cell and books no
    // energy (adding 0 J leaves the ledger as is).
    if (values[i] == word) continue;
    // Every flipped bit is one switching event of its cell.
    const auto flipped =
        static_cast<std::size_t>(std::popcount(word ^ values[i]));
    word = values[i];
    flipped_total += flipped;
    energy += static_cast<double>(flipped) * config_.write_energy;
  }
  bit_flips_ += flipped_total;
  return flipped_total;
}

std::uint32_t PsramArray::word(std::size_t row, std::size_t index) const {
  expects(row < config_.rows && index < config_.words_per_row,
          "word coordinates out of range");
  return words_[row * config_.words_per_row + index];
}

double PsramArray::hold_wall_power() const {
  return static_cast<double>(bitcell_count()) * config_.hold_bias_power /
         config_.wall_plug_efficiency;
}

double PsramArray::word_write_time() const {
  return static_cast<double>(config_.bits_per_word) / config_.write_rate;
}

}  // namespace ptc::core
