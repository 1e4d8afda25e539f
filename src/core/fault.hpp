#ifndef PTC_CORE_FAULT_HPP
#define PTC_CORE_FAULT_HPP

#include <cstdint>
#include <vector>

/// Hard-fault model for the photonic tensor core.
///
/// The variation model (core/variation.hpp) covers *parametric* spread —
/// every device works, just not identically.  This layer covers *hard*
/// faults: devices that stop responding to their control inputs entirely.
/// Three mechanisms, matching the failure surface of the paper's stack:
///
///  - dead multiply rings: the pSRAM drive line to one ring latches, so the
///    ring sits permanently on resonance (stuck-ON, always strips its
///    wavelength) or permanently off (stuck-OFF, always passes);
///  - stuck heater channels: the thermal tuner servo loses authority, the
///    detuning freezes at its current value, and recalibration cannot
///    re-lock the core;
///  - failed eoADC ladders: one row's eoADC ladder reads out all-zero
///    codes regardless of the photocurrent.
///
/// The pSRAM itself does not wear out: it is a volatile electro-optic latch
/// rewritten at 20 GHz, and its write endurance is unlimited.
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

/// Deterministically samples `count` distinct ring-fault sites for a
/// rows x cols x bits array.  Alternates stuck-ON / stuck-OFF so a fault
/// cluster corrupts in both directions.
std::vector<RingFaultSite> sample_ring_faults(std::size_t rows,
                                              std::size_t cols, unsigned bits,
                                              std::size_t count,
                                              std::uint64_t seed);

}  // namespace ptc::core

#endif  // PTC_CORE_FAULT_HPP
