#ifndef PTC_BASELINE_PCM_CROSSBAR_HPP
#define PTC_BASELINE_PCM_CROSSBAR_HPP

#include <cstdint>
#include <vector>

#include "common/linalg.hpp"

/// Phase-change-material photonic crossbar — a model of the weight writes of
/// the PCM-based in-memory photonic engines the paper compares against
/// (Sec. I, refs [28], [30], [31], [36]; Table I row [50]).
///
/// Weights are stored as the optical transmittance of a PCM patch on each
/// crossing (amorphous = transparent, crystalline = absorbing).  Reads are
/// fast and passive — the PCM holds its state with zero static power, the
/// architecture's genuine strength — but *writes* require melt-quench /
/// recrystallization pulse trains that are slow (~100 ns per multi-level
/// update here; the electrically-programmable variant of [50] reaches
/// ~1 GHz single-pulse writes) and energy-hungry, and endurance is finite.
/// This is the update-rate wall that motivates the paper's pSRAM approach
/// (20 GHz, unlimited endurance).
namespace ptc::baseline {

struct PcmCrossbarConfig {
  std::size_t rows = 16;
  std::size_t cols = 16;
  double t_min = 0.05;              ///< crystalline transmittance
  double t_max = 0.95;              ///< amorphous transmittance
  unsigned levels = 16;             ///< programmable transmittance levels
  double write_pulse_time = 100e-9; ///< per multi-level update [s]
  double write_energy = 18e-12;     ///< per update [J] (melt-quench class)
  std::uint64_t endurance = 100'000'000;  ///< updates before failure (~1e8)
};

class PcmCrossbar {
 public:
  explicit PcmCrossbar(const PcmCrossbarConfig& config = {});

  std::size_t rows() const { return config_.rows; }
  std::size_t cols() const { return config_.cols; }

  /// Programs normalized weights in [0, 1]; each changed cell consumes one
  /// write (energy, latency, endurance).  Returns the programming time [s].
  double program(const Matrix& weights);

  /// Total write energy consumed so far [J].
  double write_energy_consumed() const { return write_energy_consumed_; }

  /// Largest per-cell update count so far, against config().endurance.
  std::uint64_t max_cell_updates() const;

  const PcmCrossbarConfig& config() const { return config_; }

 private:
  PcmCrossbarConfig config_;
  std::vector<double> transmittances_;    // row-major
  std::vector<std::uint64_t> update_counts_;
  double write_energy_consumed_ = 0.0;
};

}  // namespace ptc::baseline

#endif  // PTC_BASELINE_PCM_CROSSBAR_HPP
