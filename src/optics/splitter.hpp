#ifndef PTC_OPTICS_SPLITTER_HPP
#define PTC_OPTICS_SPLITTER_HPP

#include <utility>
#include <vector>

#include "optics/optical_signal.hpp"

/// Optical power splitters.  The compute macro uses a cascaded 50:50 chain to
/// produce the binary-scaled input copies IN/2, IN/4, ..., IN/2^n that give
/// each weight bit its significance (paper Sec. II-B / ref. [45]).
namespace ptc::optics {

/// 1x2 power splitter with configurable split ratio and excess loss.
class PowerSplitter {
 public:
  /// ratio_to_port_a in (0, 1): fraction of the (post-loss) power sent to the
  /// first output; excess_loss_db >= 0 is dissipated.
  explicit PowerSplitter(double ratio_to_port_a = 0.5, double excess_loss_db = 0.1);

  /// Splits a signal into the two output ports.
  std::pair<WdmSignal, WdmSignal> split(const WdmSignal& in) const;

  double ratio_to_port_a() const { return ratio_a_; }
  double excess_loss_db() const { return excess_loss_db_; }

 private:
  double ratio_a_;
  double excess_loss_db_;
};

/// Cascade of n 50:50 splitters producing binary-weighted taps:
/// tap k (k = 0 .. n-1) carries IN / 2^(k+1); the residual IN / 2^n after the
/// last stage is terminated into an absorber.  Tap 0 (IN/2) feeds the MSB row
/// of the multiply macro.
class BinaryWeightedTaps {
 public:
  explicit BinaryWeightedTaps(std::size_t n_taps, double excess_loss_db_per_stage = 0.1);

  /// Returns n_taps signals; taps[k] == in * 2^-(k+1) (ignoring excess loss).
  std::vector<WdmSignal> split(const WdmSignal& in) const;

  /// Power left in the terminated residual branch for a unit input, i.e.
  /// 2^-n ignoring excess loss.  Exposed for power-accounting tests.
  double residual_fraction() const;

  std::size_t n_taps() const { return n_taps_; }

 private:
  std::size_t n_taps_;
  double excess_loss_db_per_stage_;
};

}  // namespace ptc::optics

#endif  // PTC_OPTICS_SPLITTER_HPP
