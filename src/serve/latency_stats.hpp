#ifndef PTC_SERVE_LATENCY_STATS_HPP
#define PTC_SERVE_LATENCY_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/request.hpp"

/// Tail-latency summaries and the per-run reports the Server returns.
/// Every report statistic is exact nearest-rank over the run's records
/// (statistics::percentile), the convention serving SLOs quote; log-scale
/// histograms live only in the metrics registry's export.
namespace ptc::serve {

/// Summary of one latency sample [s].
struct LatencyStats {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  /// Nearest-rank summary of `xs`; an empty sample yields all zeros.
  static LatencyStats from(std::vector<double> xs);
};

/// Exact cost attribution of one run to one tenant — the billing row the
/// operator console's `TEN:COST?` answers from.  Batch costs are split
/// across the batch's tenants proportionally to request count (integer
/// quantities by largest remainder, so they stay exact); recalibration
/// downtime and its energy land on the reserved `kFleetTenant` row, since
/// no tenant caused them.
///
/// Conservation contract: the fleet totals in both reports (completed,
/// passes, warm_passes, busy, energy, and each report's own) are
/// *derived* from these rows — summed in sorted-tenant order — so
/// per-tenant costs sum to the fleet totals bit-exactly, by construction,
/// and a cost path that forgets to attribute breaks the conservation test.
struct TenantCost {
  /// Reserved row for fleet-side operations (recalibration, probes,
  /// faults); no request may carry this tenant name.
  static constexpr const char* kFleetTenant = "(fleet)";

  std::string tenant;
  std::size_t requests = 0;  ///< completed requests of this tenant
  std::size_t batches = 0;   ///< batches carrying >= 1 of its requests
  std::size_t passes = 0;       ///< weight-tile residency share
  std::size_t warm_passes = 0;  ///< reload-free residency share
  double service_seconds = 0.0;  ///< share of batch service latencies [s]
  double busy_seconds = 0.0;     ///< share of summed core-busy time [s]
  double energy_joules = 0.0;    ///< share of fleet execution energy [J]
  std::size_t recalibrations = 0;        ///< fleet row only
  double recalibration_seconds = 0.0;    ///< fleet row only [s]
  std::size_t probes = 0;                ///< fleet row only: health sweeps
  double probe_seconds = 0.0;            ///< fleet row only [s]
  std::size_t faults = 0;                ///< fleet row only: injections
  double fault_seconds = 0.0;  ///< fleet row only: self-test downtime [s]
  /// Requests refused by degraded-capacity load shedding (per-tenant —
  /// shedding is the one cost a tenant pays directly, in lost requests).
  std::size_t shed_requests = 0;

  // --- token serving (token runs only; zero for batch runs) ----------------
  /// Decoded tokens (prefill + generation — every decode step that fed one
  /// of this tenant's tokens through the fleet).
  std::size_t tokens = 0;
  /// KV-cache residency integral [row-seconds]: this tenant's cached K/V
  /// rows x the modeled time they occupied fleet memory.  The token-serving
  /// analogue of weight-tile residency, and what `TEN:COST?` bills a tenant
  /// whose long contexts crowd the KV budget.
  double kv_row_seconds = 0.0;
  /// KV rows dropped when the scheduler preempted this tenant's requests.
  std::size_t kv_evicted_rows = 0;
  /// Times one of this tenant's requests was preempted for KV budget.
  std::size_t preemptions = 0;
};

/// Per-objective summary of one run's SLO evaluation (serve/slo.hpp).
struct SloSummary {
  std::string name;
  std::uint64_t observed = 0;  ///< completions the objective scored
  std::uint64_t bad = 0;       ///< budget-consuming completions
  double short_burn = 0.0;     ///< burn rates at the last completion
  double long_burn = 0.0;
  std::size_t alerts = 0;      ///< multi-window breach firings
};

/// What both serving reports carry (ServeReport for one-shot requests,
/// TokenServeReport for token requests) over the run's per-request
/// `Record`; TenantBilling::close fills the totals and `total`.
template <typename Record>
struct RunReport {
  std::vector<Record> requests;  ///< one per completion, in that order

  std::size_t completed = 0;  ///< requests served
  LatencyStats total;         ///< arrival -> completion (the SLO number)

  double makespan = 0.0;  ///< last completion time [s]
  double busy = 0.0;      ///< summed core-busy time [s]
  /// Fleet ledger energy consumed executing the run [J].
  /// This is the full (cold) execution energy: warm passes shorten the
  /// modeled latency but are not credited here — the ledger still pays
  /// every reload, and it is dominated by static power over the fixed
  /// per-request sample count, so energy/request barely moves with policy.
  double energy = 0.0;
  std::size_t passes = 0;       ///< weight-tile residencies streamed
  std::size_t warm_passes = 0;  ///< residencies served without a reload

  /// Exact per-tenant costs, sorted by tenant name; the fleet totals are
  /// their sums in this order (TenantCost's conservation contract).
  std::vector<TenantCost> tenant_costs;

  /// Fraction of tile passes that skipped the pSRAM reload.
  double warm_fraction() const {
    return passes > 0 ? static_cast<double>(warm_passes) /
                            static_cast<double>(passes)
                      : 0.0;
  }

  /// LatencyStats::from over a latency of each record (of `tenant`, if set).
  LatencyStats summarize(double (Record::*latency)() const,
                         const std::string* tenant = nullptr) const {
    std::vector<double> xs;
    for (const Record& record : requests) {
      if (tenant == nullptr || record.tenant == *tenant) {
        xs.push_back((record.*latency)());
      }
    }
    return LatencyStats::from(std::move(xs));
  }

  /// Latency summary restricted to one tenant's requests (arrival ->
  /// completion); a tenant with no requests yields all zeros.
  LatencyStats tenant_total(const std::string& tenant) const {
    return summarize(&Record::total, &tenant);
  }
};

/// Everything one Server::run over one-shot requests produced: the
/// request/batch trace, the latency decomposition, and the fleet-level
/// serving metrics.
struct ServeReport : RunReport<RequestRecord> {
  /// Per-batch trace, in dispatch order.
  std::vector<BatchRecord> batches;

  std::size_t dispatched_batches = 0;  ///< batches.size(), set at close

  LatencyStats queue_wait;  ///< arrival -> dispatch
  LatencyStats service;     ///< dispatch -> completion

  /// Summed per-batch service latencies [s] (dispatch -> completion, over
  /// batches) — the quantity TenantCost::service_seconds decomposes.
  double service_time = 0.0;
  std::size_t cores = 0;  ///< fleet size the run used

  // --- drift / online recalibration ----------------------------------------
  /// True when the run scored batches against the float reference.  The
  /// Server only pays that extra reference execution on fleets where the
  /// answer is non-trivial — device variation or thermal drift enabled;
  /// on a pristine fleet scoring is skipped and accuracy() reads 0.
  bool accuracy_scored = false;
  /// Requests whose predicted class matched the float-reference argmax.
  std::size_t reference_matches = 0;
  /// Recalibrations the serving policy triggered during the run (from the
  /// fleet attribution row, like probes and faults).
  std::size_t recalibrations = 0;
  /// Modeled fleet downtime spent recalibrating [s] (included in makespan).
  double recalibration_time = 0.0;
  /// Worst per-batch fleet detuning seen during the run [K].
  double max_abs_detuning = 0.0;

  // --- fleet health (probing policies only) ---------------------------------
  /// Sensor sweeps the run performed and their summed modeled latency [s]
  /// (derived from the fleet attribution row, so probe accounting conserves
  /// bit-exactly like every other cost).
  std::size_t probes = 0;
  double probe_time = 0.0;
  /// Probe latency as a fraction of the run's makespan — the overhead the
  /// health bench budgets (<= 2% at the gated operating point).
  double probe_overhead() const {
    return makespan > 0.0 ? probe_time / makespan : 0.0;
  }
  /// Oracle-measured recalibration trigger lag: for each re-lock, the time
  /// from a core's |detuning| first crossing the policy threshold to the
  /// recalibration that cleared it.  Empty unless a threshold trigger
  /// (oracle or estimated) was active.  Measurement only — the trigger
  /// path itself never reads the oracle.
  LatencyStats trigger_lag;
  /// Health anomaly alerts fired during the run.
  std::size_t health_alerts = 0;

  // --- hard faults / graceful degradation -----------------------------------
  /// Fault events the run replayed (injections; CLEAR repairs excluded)
  /// and the modeled downtime their triggered self-tests cost [s] — both
  /// derived from the fleet attribution row, so fault accounting conserves
  /// bit-exactly like every other cost.
  std::size_t faults = 0;
  double fault_time = 0.0;
  /// Cores the run evicted from / readmitted to the serving rotation.
  std::size_t core_evictions = 0;
  std::size_t core_readmissions = 0;
  /// Requests refused by degraded-capacity load shedding (sum of the
  /// per-tenant shed tallies).
  std::size_t shed = 0;
  /// Fraction of offered requests the run completed: completed /
  /// (completed + shed).  1.0 when nothing shed; the fault frontier gates
  /// this >= 0.95 at the gated fault rate under the eviction policy.
  double availability() const;

  // --- SLOs -----------------------------------------------------------------
  /// Final state of every SLO monitor attached to the Server, in
  /// registration order.
  std::vector<SloSummary> slos;

  /// Completed requests per modeled second.
  double throughput() const;

  /// Fleet energy per completed request [J].
  double energy_per_request() const;

  /// Fraction of fleet capacity in use: busy / (cores * makespan).
  double utilization() const;

  /// Fraction of requests whose predicted class matched the float
  /// reference — the serving-level accuracy the drift/recalibration
  /// frontier trades against downtime.
  double accuracy() const;

  /// Mean dispatched batch size.
  double mean_batch() const;
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_LATENCY_STATS_HPP
