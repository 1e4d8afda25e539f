#include "baseline/pcm_crossbar.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace ptc::baseline {

PcmCrossbar::PcmCrossbar(const PcmCrossbarConfig& config) : config_(config) {
  expects(config.rows >= 1 && config.cols >= 1, "crossbar must be non-empty");
  expects(config.t_min >= 0.0 && config.t_max <= 1.0 &&
              config.t_min < config.t_max,
          "transmittance window must satisfy 0 <= t_min < t_max <= 1");
  expects(config.levels >= 2, "need at least two programmable levels");
  transmittances_.assign(config.rows * config.cols, config.t_max);
  update_counts_.assign(config.rows * config.cols, 0);
}

double PcmCrossbar::program(const Matrix& weights) {
  expects(weights.rows() == config_.rows && weights.cols() == config_.cols,
          "weight matrix shape mismatch");
  std::size_t changed = 0;
  const double level_step = 1.0 / static_cast<double>(config_.levels - 1);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      const double w = weights(r, c);
      expects(w >= 0.0 && w <= 1.0, "weights must be normalized to [0, 1]");
      const double quantized =
          std::round(w / level_step) * level_step;
      const double target =
          config_.t_min + (config_.t_max - config_.t_min) * quantized;
      double& cell = transmittances_[r * config_.cols + c];
      if (std::fabs(cell - target) > 1e-12) {
        cell = target;
        ++update_counts_[r * config_.cols + c];
        write_energy_consumed_ += config_.write_energy;
        ++changed;
      }
    }
  }
  // Cells within a row are written sequentially; rows in parallel.
  const double writes_per_row =
      std::ceil(static_cast<double>(changed) / static_cast<double>(config_.rows));
  return writes_per_row * config_.write_pulse_time;
}

std::uint64_t PcmCrossbar::max_cell_updates() const {
  return *std::max_element(update_counts_.begin(), update_counts_.end());
}

}  // namespace ptc::baseline
