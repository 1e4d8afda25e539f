#include "optics/splitter.hpp"

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::optics {

PowerSplitter::PowerSplitter(double ratio_to_port_a, double excess_loss_db)
    : ratio_a_(ratio_to_port_a), excess_loss_db_(excess_loss_db) {
  expects(ratio_to_port_a > 0.0 && ratio_to_port_a < 1.0,
          "split ratio must be in (0, 1)");
  expects(excess_loss_db >= 0.0, "excess loss must be >= 0 dB");
}

std::pair<WdmSignal, WdmSignal> PowerSplitter::split(const WdmSignal& in) const {
  const double survive = units::db_to_ratio(-excess_loss_db_);
  WdmSignal a = in;
  WdmSignal b = in;
  a.scale(survive * ratio_a_);
  b.scale(survive * (1.0 - ratio_a_));
  return {std::move(a), std::move(b)};
}

BinaryWeightedTaps::BinaryWeightedTaps(std::size_t n_taps,
                                       double excess_loss_db_per_stage)
    : n_taps_(n_taps), excess_loss_db_per_stage_(excess_loss_db_per_stage) {
  expects(n_taps >= 1, "need at least one tap");
  expects(excess_loss_db_per_stage >= 0.0, "excess loss must be >= 0 dB");
}

std::vector<WdmSignal> BinaryWeightedTaps::split(const WdmSignal& in) const {
  std::vector<WdmSignal> taps;
  taps.reserve(n_taps_);
  const PowerSplitter half(0.5, excess_loss_db_per_stage_);
  WdmSignal remainder = in;
  for (std::size_t k = 0; k < n_taps_; ++k) {
    auto [tap, rest] = half.split(remainder);
    taps.push_back(std::move(tap));
    remainder = std::move(rest);
  }
  // `remainder` (IN / 2^n) is terminated into a passive absorber.
  return taps;
}

}  // namespace ptc::optics
