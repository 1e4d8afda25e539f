#ifndef PTC_CORE_PSRAM_ARRAY_HPP
#define PTC_CORE_PSRAM_ARRAY_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/energy.hpp"
#include "common/expects.hpp"
#include "core/tech.hpp"

/// Array-scale photonic SRAM.
///
/// The device-level PsramBitcell integrates ~10^3 ODE steps per write, which
/// is the right tool for Fig. 5 but not for a 768-bitcell tensor core.  The
/// array therefore uses a *behavioral* cell calibrated against the device
/// model (write energy, write latency, hold power — see
/// tests/test_psram.cpp, which asserts the two levels agree) and tracks
/// energy/latency through an EnergyLedger.
///
/// Write scheduling follows the paper's Sec. III organisation: every row has
/// its own write port, and the cells of a row are written one per 20 GHz
/// write slot (50 ps), so a full reload of an r x c x n-bit array costs
/// (c * n) slots.
namespace ptc::core {

struct PsramArrayConfig {
  std::size_t rows = 16;
  std::size_t words_per_row = 16;  ///< weights per row
  unsigned bits_per_word = 3;      ///< weight precision (n)
  double write_rate = 20e9;        ///< per-cell update rate [Hz] (paper: 20 GHz)
  double write_energy = 0.493e-12; ///< per switching event [J] (paper: ~0.5 pJ)
  double hold_bias_power = 10e-6;  ///< CW optical bias per cell [W] (-20 dBm)
  double wall_plug_efficiency = tech_wall_plug;
};

class PsramArray {
 public:
  explicit PsramArray(const PsramArrayConfig& config = {});

  std::size_t rows() const { return config_.rows; }
  std::size_t words_per_row() const { return config_.words_per_row; }
  unsigned bits_per_word() const { return config_.bits_per_word; }

  /// Total number of bitcells (rows * words * bits); 768 for the paper's
  /// 16 x 16 x 3-bit configuration.
  std::size_t bitcell_count() const;

  /// Maximum storable weight value, 2^bits - 1.
  std::uint32_t max_weight() const;

  /// Writes one weight word; bits that actually flip cost write energy and
  /// one write slot each.  Returns the number of flipped bits.
  std::size_t write_word(std::size_t row, std::size_t index,
                         std::uint32_t value);

  /// Writes a full weight matrix (row-major, rows x words_per_row) in
  /// blocks of `block` words, which must divide the array.  Every word's
  /// range is checked before any is stored, so a rejected matrix changes
  /// nothing.  A block equal to the stored words is skipped; any other is
  /// stored, then `on_store(first)` is called with its first flat word
  /// index.  All rows are written in parallel; returns reload_time()
  /// whatever changed.  Every word counts as a word write; only flipped
  /// bits cost energy, booked in word order (the sum write_word would
  /// build), so rewriting the stored matrix books none.
  template <class OnStore>
  double write_matrix(std::span<const std::uint32_t> values, std::size_t block,
                      OnStore&& on_store);

  /// Full-array reload latency [s]: rows write in parallel, each streaming
  /// words_per_row * bits_per_word slots at the write rate (paper: 2.4 ns).
  double reload_time() const {
    return static_cast<double>(config_.words_per_row) *
           static_cast<double>(config_.bits_per_word) / config_.write_rate;
  }

  std::uint32_t word(std::size_t row, std::size_t index) const;

  /// Every stored word, row-major (rows x words_per_row).
  std::span<const std::uint32_t> words() const { return words_; }

  /// Static hold power: per-cell optical bias at wall-plug efficiency [W].
  double hold_wall_power() const;

  /// Time to write one word (bits_per_word write slots) [s].
  double word_write_time() const;

  /// Cumulative write energy ledger.
  const circuit::EnergyLedger& ledger() const { return ledger_; }
  circuit::EnergyLedger& ledger() { return ledger_; }

  // --- write counters (fleet-health sensor channels) ------------------------
  /// Word writes performed since construction (including no-flip writes).
  std::uint64_t word_writes() const { return word_writes_; }
  /// Bitcell switching events since construction; each costs write_energy.
  std::uint64_t bit_flips() const { return bit_flips_; }

 private:
  /// Stores checked words from flat word index `first` on, booking each
  /// word's flips and energy into `energy` (the ledger's psram_write slot)
  /// in word order.  A word equal to the stored one flips no bit and is
  /// skipped.  Callers count the word writes.  Returns the number of
  /// flipped bits.
  std::size_t store_words(std::size_t first,
                          std::span<const std::uint32_t> values,
                          double& energy);

  PsramArrayConfig config_;
  std::vector<std::uint32_t> words_;  // row-major
  circuit::EnergyLedger ledger_;
  std::uint64_t word_writes_ = 0;
  std::uint64_t bit_flips_ = 0;
};

template <class OnStore>
double PsramArray::write_matrix(std::span<const std::uint32_t> values,
                                std::size_t block, OnStore&& on_store) {
  expects(values.size() == words_.size(),
          "matrix size must match the array geometry");
  expects(block >= 1 && values.size() % block == 0,
          "write blocks must tile the array");
  // A word fits the precision iff it sets no bit above max_weight(), so
  // the OR of all words sets one iff some word does: one pass checks
  // them all before the first store.
  std::uint32_t set_bits = 0;
  for (const std::uint32_t value : values) set_bits |= value;
  expects((set_bits & ~max_weight()) == 0,
          "weight exceeds the word precision");
  // One ledger lookup per matrix; blocks store in word order.
  double& energy = ledger_.energy_slot("psram_write");
  for (std::size_t first = 0; first < values.size(); first += block) {
    std::uint32_t moved = 0;
    for (std::size_t i = first; i < first + block; ++i) {
      moved |= values[i] ^ words_[i];
    }
    if (moved == 0) continue;
    store_words(first, values.subspan(first, block), energy);
    on_store(first);
  }
  word_writes_ += values.size();
  return reload_time();
}

}  // namespace ptc::core

#endif  // PTC_CORE_PSRAM_ARRAY_HPP
