#ifndef PTC_RUNTIME_FAULT_HPP
#define PTC_RUNTIME_FAULT_HPP

#include <cstdint>
#include <vector>

/// Fleet-level fault registry vocabulary.
///
/// The core layer (core/fault.hpp) models *devices* breaking; this layer
/// models the *fleet's* reaction: per-core health states fed by the
/// fault-triggered self-test, timed fault events a serving run replays on
/// modeled time, and the Poisson schedule generator the fault frontier
/// bench sweeps.
namespace ptc::runtime {

/// Per-core health as classified by the self-test (see
/// Accelerator::run_self_test).  DEGRADED cores still compute within the
/// serving accuracy budget; FAILED cores corrupt results or cannot re-lock
/// and are candidates for eviction.
enum class CoreHealth : std::uint8_t {
  kOk = 0,
  kDegraded,
  kFailed,
};

const char* to_string(CoreHealth health);

/// One timed hard-fault event, replayed on *modeled* time by
/// serve::Server::run (or applied immediately by Accelerator::inject /
/// the console FAULT:INJect command, which use time = 0).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kDeadRings,     ///< latch `count` seeded multiply rings on the core
    kStuckHeater,   ///< freeze the core's thermal tuner
    kAdcLadder,     ///< kill row `row`'s eoADC ladder
    kClear,         ///< field repair: clear injected faults + re-lock
  };
  double time = 0.0;      ///< modeled injection time [s]
  std::size_t core = 0;
  Kind kind = Kind::kDeadRings;
  std::size_t count = 24; ///< rings latched by kDeadRings
  std::size_t row = 0;    ///< row killed by kAdcLadder
  std::uint64_t seed = 1; ///< ring-site sampling stream (kDeadRings)
};

const char* to_string(FaultEvent::Kind kind);

/// Deterministic Poisson fault process: exponential inter-arrival gaps at
/// `rate` [faults/s] over [0, horizon), each event hitting a uniformly
/// drawn core.  Kinds are drawn 2:1:1 dead-rings : stuck-heater :
/// ADC-ladder — dead rings corrupt accuracy, the other two cost capacity
/// once the self-test fails the core.  ADC-ladder strikes kill a
/// uniformly drawn row in [0, rows) — every event consumes the same draw
/// count, so the stream stays aligned whatever kinds come up.  `rate` and
/// `horizon` must be finite and non-negative.  Pure function of the
/// arguments.
std::vector<FaultEvent> poisson_fault_schedule(double rate, double horizon,
                                               std::size_t cores,
                                               std::uint64_t seed,
                                               std::size_t rows = 16);

}  // namespace ptc::runtime

#endif  // PTC_RUNTIME_FAULT_HPP
