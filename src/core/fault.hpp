#ifndef PTC_CORE_FAULT_HPP
#define PTC_CORE_FAULT_HPP

#include <cstdint>
#include <vector>

/// Hard-fault model for the photonic tensor core.
///
/// The variation model (core/variation.hpp) covers *parametric* spread —
/// every device works, just not identically.  This layer covers *hard*
/// faults: devices that stop responding to their control inputs entirely.
/// Four mechanisms, matching the failure surface of the paper's stack:
///
///  - dead multiply rings: the pSRAM drive line to one ring latches, so the
///    ring sits permanently on resonance (stuck-ON, always strips its
///    wavelength) or permanently off (stuck-OFF, always passes);
///  - stuck heater channels: the thermal tuner servo loses authority, the
///    detuning freezes at its current value, and recalibration cannot
///    re-lock the core;
///  - failed ADC ladders: one row's flash converter reads out all-zero
///    codes regardless of the photocurrent;
///  - pSRAM endurance: bitcells wear out after a sampled number of
///    switching events and hold their last value forever.
///
/// Everything is seeded and deterministic.  Faults are applied at the ring
/// *bias* level (see VectorComputeMacro::set_ring_fault): the physics walk
/// and the fast path's per-ring transmission table both derive each ring's
/// bias from (stored bit, drive-level offset, fault latch), so they stay
/// bit-identical under any fault set.
namespace ptc::core {

/// How a dead ring is stuck.  kStuckOn parks the ring on resonance (bias 0:
/// it always strips its channel, as if the weight bit were 1); kStuckOff
/// latches the drive at VDD (the ring always passes, weight bit reads 0).
enum class RingFaultKind : std::uint8_t {
  kNone = 0,
  kStuckOn,
  kStuckOff,
};

/// One faulted multiply ring, addressed the way TensorCore sees the array:
/// output row, input column, weight-bit row (0 = MSB).
struct RingFaultSite {
  std::size_t row = 0;
  std::size_t col = 0;
  unsigned bit = 0;
  RingFaultKind kind = RingFaultKind::kStuckOn;
};

/// Seeds and budgets for the sampled parts of the fault model.  seed = 0
/// disables endurance sampling entirely (cells never wear out), which is
/// the default: faults are opt-in.
struct FaultConfig {
  std::uint64_t seed = 0;
  /// Median bitcell switching events to failure; 0 = unlimited endurance
  /// even when seed != 0.
  double psram_endurance_median = 0.0;
  /// Lognormal spread of the per-cell endurance limit (sigma of ln-limit).
  double psram_endurance_spread = 0.25;
};

class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config = {});

  const FaultConfig& config() const { return config_; }
  bool endurance_enabled() const {
    return config_.seed != 0 && config_.psram_endurance_median > 0.0;
  }

  /// Per-cell endurance limits (switching events to failure), sampled
  /// lognormally around the median in a fixed cell order.  Empty when
  /// endurance is disabled.
  std::vector<double> cell_limits(std::size_t cells) const;

  /// Deterministically samples `count` distinct ring-fault sites for a
  /// rows x cols x bits array.  Alternates stuck-ON / stuck-OFF so a fault
  /// cluster corrupts in both directions.
  static std::vector<RingFaultSite> sample_ring_faults(std::size_t rows,
                                                       std::size_t cols,
                                                       unsigned bits,
                                                       std::size_t count,
                                                       std::uint64_t seed);

 private:
  FaultConfig config_;
};

}  // namespace ptc::core

#endif  // PTC_CORE_FAULT_HPP
