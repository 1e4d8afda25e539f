#ifndef PTC_CORE_PSRAM_ARRAY_HPP
#define PTC_CORE_PSRAM_ARRAY_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/energy.hpp"
#include "core/fault.hpp"
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
  /// Write-endurance budget (hard-fault model).  With fault.seed != 0 and
  /// fault.psram_endurance_median > 0, every bitcell gets a lognormally
  /// sampled limit on its switching events; a cell at its limit holds its
  /// last value forever (writes to it silently fail and cost no energy).
  FaultConfig fault{};
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

  /// Writes a full weight matrix (row-major, rows x words_per_row).
  /// All rows are written in parallel; returns the reload latency [s].
  double write_matrix(std::span<const std::uint32_t> values);

  std::uint32_t word(std::size_t row, std::size_t index) const;

  /// Every stored word, row-major (rows x words_per_row).
  std::span<const std::uint32_t> words() const { return words_; }

  /// Individual stored bit (bit b of word (row, index)); this is the line
  /// that drives a multiply ring.
  bool bit(std::size_t row, std::size_t index, unsigned b) const;

  /// Static hold power: per-cell optical bias at wall-plug efficiency [W].
  double hold_wall_power() const;

  /// Time to write one word (bits_per_word write slots) [s].
  double word_write_time() const;

  /// Cumulative write energy ledger.
  const circuit::EnergyLedger& ledger() const { return ledger_; }
  circuit::EnergyLedger& ledger() { return ledger_; }

  // --- write-endurance counters (fleet-health sensor channels) --------------
  /// Word writes performed since construction (including no-flip writes).
  std::uint64_t word_writes() const { return word_writes_; }
  /// Bitcell switching events since construction — the wear quantity an
  /// endurance budget is written against.
  std::uint64_t bit_flips() const { return bit_flips_; }
  /// Switching events of the most-worn bitcell — the wear-leveling view an
  /// endurance monitor alarms on.
  std::uint64_t max_cell_flips() const;

  // --- endurance hard faults -------------------------------------------------
  bool endurance_enabled() const { return !cell_limits_.empty(); }
  /// Bitcells worn past their sampled endurance limit (stuck at their last
  /// held value).  Always 0 when endurance is disabled.
  std::size_t failed_cells() const;
  /// Remaining endurance fraction of the *most-worn* cell, in [0, 1]; 1.0
  /// when endurance is disabled.  This is the sensor channel the fleet
  /// endurance alarm rides.
  double endurance_remaining() const;
  /// Requested bit toggles that a worn cell refused — the write-verify
  /// error count a BIST reads back.
  std::uint64_t write_errors() const { return write_errors_; }

 private:
  /// Stores checked words from flat word index `first` on, booking each
  /// word's energy into `energy` (the ledger's psram_write slot) in word
  /// order.  Returns the number of flipped bits.
  std::size_t store_words(std::size_t first,
                          std::span<const std::uint32_t> values,
                          double& energy);

  PsramArrayConfig config_;
  std::vector<std::uint32_t> words_;  // row-major
  circuit::EnergyLedger ledger_;
  std::uint64_t word_writes_ = 0;
  std::uint64_t bit_flips_ = 0;
  /// Per-bitcell switching counts, [word][bit] flattened like words_.
  std::vector<std::uint32_t> cell_flips_;
  /// Sampled per-cell endurance limits, same indexing as cell_flips_;
  /// empty when the endurance budget is disabled.
  std::vector<double> cell_limits_;
  std::uint64_t write_errors_ = 0;
};

}  // namespace ptc::core

#endif  // PTC_CORE_PSRAM_ARRAY_HPP
