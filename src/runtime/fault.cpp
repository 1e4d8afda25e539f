#include "runtime/fault.hpp"

#include <cmath>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ptc::runtime {

const char* to_string(CoreHealth health) {
  switch (health) {
    case CoreHealth::kOk:
      return "OK";
    case CoreHealth::kDegraded:
      return "DEGRADED";
    case CoreHealth::kFailed:
      return "FAILED";
  }
  return "?";
}

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDeadRings:
      return "DEADRINGS";
    case FaultEvent::Kind::kStuckHeater:
      return "HEATER";
    case FaultEvent::Kind::kAdcLadder:
      return "ADC";
    case FaultEvent::Kind::kClear:
      return "CLEAR";
  }
  return "?";
}

std::vector<FaultEvent> poisson_fault_schedule(double rate, double horizon,
                                               std::size_t cores,
                                               std::uint64_t seed,
                                               std::size_t rows) {
  // An infinite rate makes every gap 0 and an infinite horizon is never
  // reached: either would grow the schedule until memory runs out.
  expects(std::isfinite(rate) && rate >= 0.0,
          "fault rate must be finite and non-negative");
  expects(std::isfinite(horizon) && horizon >= 0.0,
          "horizon must be finite and non-negative");
  expects(cores >= 1, "fleet must have at least one core");
  expects(rows >= 1, "cores must have at least one ADC row");
  std::vector<FaultEvent> schedule;
  if (rate == 0.0) return schedule;
  Rng rng(seed);
  double t = rng.exponential(rate);
  while (t < horizon) {
    FaultEvent event;
    event.time = t;
    event.core = rng.below(cores);
    const std::uint64_t pick = rng.below(4);
    event.kind = pick <= 1 ? FaultEvent::Kind::kDeadRings
                 : pick == 2 ? FaultEvent::Kind::kStuckHeater
                             : FaultEvent::Kind::kAdcLadder;
    // Drawn for every event (only ADC strikes read it) so each event
    // consumes a fixed draw count and the stream stays kind-independent.
    event.row = rng.below(rows);
    event.seed = rng.next_u64() | 1u;  // distinct nonzero ring-site stream
    schedule.push_back(event);
    t += rng.exponential(rate);
  }
  return schedule;
}

}  // namespace ptc::runtime
