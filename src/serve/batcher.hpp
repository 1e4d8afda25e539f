#ifndef PTC_SERVE_BATCHER_HPP
#define PTC_SERVE_BATCHER_HPP

#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "serve/request.hpp"

/// FIFO request queueing and the dynamic-batching policy: a batch closes
/// when it reaches max_batch requests or when its oldest request has waited
/// max_wait — whichever bound hits first.  This is the knob that trades
/// queueing delay against pSRAM-reload amortization: bigger batches stream
/// more samples per weight residency.
namespace ptc::serve {

/// When a batch closes, plus the serving loop's online-recalibration
/// policy.  Recalibration matters when the accelerator models thermal
/// drift (runtime::DriftConfig): cached fast-path gains follow the
/// drifting devices, so accuracy decays until the Server re-locks the
/// fleet — at the price of modeled downtime per recalibration.
struct BatchPolicy {
  /// Requests at which the batch closes immediately.
  std::size_t max_batch = 8;
  /// Longest the oldest queued request may wait for co-batching [s].
  /// 0 dispatches whatever is queued the moment the fleet frees up;
  /// kNoTimeout only closes full batches (fixed-batch serving).
  double max_wait = 0.0;
  /// Periodic recalibration: re-lock the fleet every `recalibration_period`
  /// modeled seconds of serving.  0 disables the periodic trigger.
  double recalibration_period = 0.0;
  /// Error-triggered recalibration: re-lock when the fleet's worst
  /// thermal-monitor detuning exceeds this threshold [K].  0 disables the
  /// drift trigger.  NOTE: this reads the simulator's oracle ground truth —
  /// no real deployment can; it exists as the upper bound the estimated
  /// trigger below is scored against (bench/serving_health).
  double drift_threshold = 0.0;

  // --- fleet health / oracle-free recalibration -----------------------------
  /// Sensor-sweep cadence [s] of modeled time: the serving loop runs one
  /// pilot-tone probe sweep (runtime::Accelerator::probe_cost) per period
  /// and feeds the fleet::FleetHealthMonitor.  Sweeps slot into fleet idle
  /// gaps when possible and otherwise delay the next dispatch by the probe
  /// latency.  0 disables probing (and the two triggers below with it).
  double probe_period = 0.0;
  /// Oracle-free drift trigger: re-lock when the health monitor's worst
  /// *estimated* |detuning| exceeds this threshold [K].  Uses only
  /// sensor-channel data (probe transmission inverted through the ring
  /// model) — the deployable counterpart of drift_threshold.  0 disables.
  double estimated_drift_threshold = 0.0;
  /// Re-lock when a health anomaly alert fired since the last
  /// recalibration (rising-edge change detection on the probe channels).
  bool recalibrate_on_anomaly = false;

  // --- hard-fault reaction (fault schedules / console injection) ------------
  /// Evict a core from the serving rotation when the fault-triggered
  /// self-test classifies it FAILED.  Surviving cores absorb its tile
  /// share (runtime::Accelerator remaps the schedule); a later CLEAR event
  /// repairs and readmits it.  Off, the scheduler keeps routing passes to
  /// the broken core — the no-mitigation baseline the fault bench
  /// collapses.
  bool evict_on_fault = false;
  /// Re-lock the fleet at the next dispatch after any fault injection
  /// (the self-test already ran; this repairs what recalibration can —
  /// e.g. collateral detuning — on the surviving cores).
  bool recalibrate_on_fault = false;
  /// Degraded-capacity load shedding: while >= 1 core is evicted, refuse
  /// new arrivals once the queue holds this many requests (they count as
  /// shed, not completed, and bill to their tenant's shed tally).  0 never
  /// sheds — queues grow unboundedly against the SLOs instead.
  std::size_t degraded_queue_limit = 0;

  static constexpr double kNoTimeout =
      std::numeric_limits<double>::infinity();
};

/// Per-model FIFO queues with arrival-order bookkeeping.
class RequestQueue {
 public:
  void push(Request request);
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t size(const std::string& model) const;

  /// Models with at least one queued request, in deterministic (sorted
  /// name) order.
  std::vector<std::string> models() const;

  /// Arrival time of the oldest queued request for `model` (which must
  /// have at least one).
  double oldest_arrival(const std::string& model) const;

  /// Arrival time of the request that completed a batch of `size` — the
  /// size-th oldest.  The model must have at least `size` queued.  A full
  /// batch cannot dispatch before this instant: its last member must have
  /// arrived.
  double fill_arrival(const std::string& model, std::size_t size) const;

  /// Pops up to `limit` requests of `model` in FIFO order.
  std::vector<Request> pop(const std::string& model, std::size_t limit);

 private:
  std::map<std::string, std::deque<Request>> queues_;
  std::size_t size_ = 0;
};

/// Decides when batches close and which model dispatches next.  Pure
/// policy over queue state: the Server owns the clock and asks (a) when
/// the next batch could be ready and (b) for the batch to launch now.
class DynamicBatcher {
 public:
  /// Rejects a policy with a non-positive max_batch or a negative (or NaN)
  /// time/threshold field — the check Server::run makes before any fleet
  /// state moves.
  explicit DynamicBatcher(const BatchPolicy& policy);

  const BatchPolicy& policy() const { return policy_; }
  void enqueue(Request request);
  bool has_pending() const { return !queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Earliest time >= `now` at which some model's batch closes (a full
  /// queue closes immediately; otherwise when the oldest request's
  /// max_wait expires).  Infinity when nothing is queued, or when nothing
  /// would ever close without more arrivals under a kNoTimeout policy.
  double next_ready_time(double now) const;

  /// Pops the batch to dispatch at time `now`, or empty when none is
  /// ready.  Among models whose batch closed, prefers `resident_model`
  /// (its weight tiles are already on the fleet — no reloads), then the
  /// oldest head-of-queue arrival, then the smallest name.  With `drain`
  /// set every non-empty queue counts as ready — the Server's flush once
  /// the arrival stream ends.
  std::vector<Request> pop_ready(double now,
                                 const std::string& resident_model,
                                 bool drain = false);

 private:
  /// Earliest instant `model`'s batch closes given what is queued now: the
  /// fill arrival once max_batch is reached, else the oldest request's
  /// max_wait expiry.
  double close_time(const std::string& model) const;
  bool ready(const std::string& model, double now, bool drain) const;

  BatchPolicy policy_;
  RequestQueue queue_;
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_BATCHER_HPP
