#ifndef PTC_SERVE_SERVER_HPP
#define PTC_SERVE_SERVER_HPP

#include <cmath>
#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "fleet/health.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/latency_stats.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"
#include "serve/token_server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

/// Discrete-event serving simulator: open-loop arrivals -> RequestQueue ->
/// DynamicBatcher -> accelerator fleet, all on modeled hardware time.  The
/// fleet serves one batch at a time (every tensor core participates in the
/// batch's tile schedule), which makes this the single-station queueing
/// model whose saturation the serving benches sweep.  The same object
/// serves token traffic (run's TokenRequest overload), so both loops share
/// one registry, fleet, tracer, metrics registry and tenant ledger.
///
/// Determinism contract: identical (requests, policy, registry contents,
/// accelerator config) produce an identical batch trace and identical
/// stats, bit for bit, on any host thread count — the event loop is
/// sequential, batch outputs inherit the Accelerator's canonical-order
/// reduction, and batch timing comes from Accelerator::batch_cost, never
/// from host wall time.
namespace ptc::serve {

class Server {
 public:
  /// Serves the registry's models on the registry's accelerator fleet.
  explicit Server(ModelRegistry& registry);

  /// Attaches a span tracer for the run's full lifecycle — request async
  /// spans (arrive -> complete), batch dispatch windows, per-core tile
  /// passes/reloads, per-step execution, recalibration downtime, and
  /// queue-depth counters; on token runs, decode-step spans, token_step /
  /// request_preempted / kv_evicted instants and KV-row counters — all on
  /// modeled hardware time.  Fans out to the accelerator; nullptr detaches.
  void set_tracer(telemetry::Tracer* tracer);
  telemetry::Tracer* tracer() const { return tracer_; }

  /// Attaches a metrics registry: serving counters (requests, batches,
  /// warm/cold splits, recalibrations), cumulative latency histograms, and
  /// the fleet-side tallies (passes, reloads, ADC samples, plan-cache
  /// hits).  Fans out to the accelerator; nullptr detaches.
  void set_metrics(telemetry::MetricsRegistry* metrics);
  telemetry::MetricsRegistry* metrics() const { return metrics_; }

  /// Registers a declarative SLO.  Monitors persist across runs (each run
  /// resets their window state), are fed every completion in event-loop
  /// order, and summarize into ServeReport::slos.
  void add_slo(const SloObjective& objective);
  const std::vector<SloMonitor>& slos() const { return slos_; }

  /// The fleet health monitor, created lazily by the first run whose
  /// policy probes (BatchPolicy::probe_period > 0) and reused across runs
  /// (characterization curves are device properties).  nullptr before any
  /// probing run; afterwards its estimators, alerts and per-core sensor
  /// readings reflect the most recent run's sweeps — the operator
  /// console's HEALth source.
  fleet::FleetHealthMonitor* health() { return health_.get(); }
  const fleet::FleetHealthMonitor* health() const { return health_.get(); }

  /// Deterministic hard-fault schedule the next runs replay on *modeled*
  /// time — one-shot runs only; the token overload neither replays nor
  /// resets it.  Each event injects at the first instant >= its time
  /// (after the fleet frees up), triggers the self-test on the struck core,
  /// and — under an evicting policy — drops FAILED cores from the
  /// rotation.  Events must be sorted by finite time and name a core of
  /// this fleet (and, for kAdcLadder, one of its rows); a bad schedule
  /// throws std::invalid_argument and the previous one stays attached.  A
  /// non-empty schedule makes a one-shot run reset the fleet's fault state
  /// at start, so every run replays the same schedule from a healthy
  /// fleet; an empty schedule (the default) leaves console-injected faults
  /// in place across runs.  Persists until replaced or cleared.
  void set_fault_schedule(std::vector<runtime::FaultEvent> schedule);

  /// Serves `requests` (finite arrivals, sorted — LoadGenerator output
  /// qualifies; each naming a registered batch model and carrying its
  /// input_width of finite, non-negative inputs) under `policy` and returns
  /// the full report.  Bad requests (including any billed to the reserved
  /// TenantCost::kFleetTenant) or a bad policy throw std::invalid_argument
  /// before any fleet state moves.  Arrivals at exactly the dispatch
  /// instant join the closing batch.  Once the arrival stream ends,
  /// leftover queued requests drain as partial batches.  Residency and
  /// drift state reset at the start of every run.
  ///
  /// When the fleet models thermal drift, the event loop advances the
  /// accelerator's drift clock to every dispatch instant and applies the
  /// policy's recalibration triggers (periodic and/or detuning-threshold)
  /// before launching the batch; recalibration downtime pushes the fleet's
  /// free time forward, so arrivals during a re-lock simply queue.
  ///
  /// A probing policy (probe_period > 0) additionally runs one sensor
  /// sweep per period through the fleet health monitor — pilot-tone probe
  /// readings, estimator updates, anomaly detection — billed through
  /// Accelerator::probe_cost to the fleet attribution row, and applies the
  /// oracle-free triggers (estimated_drift_threshold /
  /// recalibrate_on_anomaly) from the *estimates*, never from the
  /// simulator's ground-truth detuning.  Every
  /// batch is also scored against the float-reference logits, giving the
  /// report its accuracy / drift / recalibration accounting.
  ///
  /// Every latency summary (queue_wait / service / total / trigger_lag,
  /// and tenant_total) is exact nearest-rank over the run's records; the
  /// log-scale histograms are only for the metrics registry's export.
  ///
  /// Every batch's cost (passes, busy time, ledger energy, service
  /// latency) is attributed to the batch's tenants as it completes
  /// (ServeReport::tenant_costs), and the report's fleet totals are
  /// derived from those rows so the decomposition conserves them
  /// bit-exactly.  Registered SLO monitors observe every completion and
  /// summarize into ServeReport::slos.
  ServeReport run(const std::vector<Request>& requests,
                  const BatchPolicy& policy);

  /// Serves token `requests` (finite arrivals, sorted; all naming one
  /// registered transformer, prompt ids below its vocab) under `policy`
  /// (serve/token_server.hpp), billed per tenant like one-shot runs.  Bad
  /// requests, the reserved tenant included, throw std::invalid_argument
  /// before any fleet state moves.  It resets residency and drift at start
  /// and runs no fleet events: no drift advance, probes, fault replay, or
  /// SLO feed.  Deterministic in (requests, policy, fleet config) —
  /// byte-identical reports across host thread counts.
  TokenServeReport run(const std::vector<TokenRequest>& requests,
                       const TokenPolicy& policy);

 private:
  /// Both loops' input contract: finite arrival times in ascending order,
  /// and no request billed to the reserved fleet row.
  template <typename R>
  static void expect_request_stream(const std::vector<R>& requests) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expects(std::isfinite(requests[i].arrival),
              "request arrivals must be finite");
      expects(i == 0 || requests[i - 1].arrival <= requests[i].arrival,
              "requests must be sorted by arrival time");
      expects(requests[i].tenant != TenantCost::kFleetTenant,
              "the (fleet) tenant is reserved for fleet overhead");
    }
  }

  runtime::Accelerator& accelerator_;
  ModelRegistry& registry_;
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::vector<SloMonitor> slos_;
  std::unique_ptr<fleet::FleetHealthMonitor> health_;
  std::vector<runtime::FaultEvent> fault_schedule_;
};

/// The token engine's former class name: Server serves both request kinds.
using TokenServer = Server;

}  // namespace ptc::serve

#endif  // PTC_SERVE_SERVER_HPP
