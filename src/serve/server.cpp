#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/expects.hpp"
#include "nn/layers.hpp"
#include "serve/attribution.hpp"

namespace ptc::serve {
namespace {

/// Exported histograms at ~7.5% bucket width: latencies over 1 ns .. 10 ks
/// of modeled time (generous for any policy sweep the benches run), batch
/// sizes over 1 .. 10^4 requests, so every size lands in a finite bucket.
constexpr telemetry::HistogramOptions kLatencyHistogram{
    .min = 1e-9, .max = 1e4, .buckets_per_decade = 32};
constexpr telemetry::HistogramOptions kBatchSizeHistogram{
    .min = 1.0, .max = 1e4, .buckets_per_decade = 32};

/// The one-shot loop's request contract: each request names a registered
/// batch model and carries exactly its input width of finite, non-negative
/// intensities.
void expect_servable(const ModelRegistry& registry,
                     const std::vector<Request>& requests) {
  std::map<std::string, std::size_t> widths;  // one lookup per model
  for (const Request& request : requests) {
    auto width = widths.find(request.model);
    if (width == widths.end()) {
      expects(registry.contains(request.model),
              "requests must name a registered batch model");
      width = widths
                  .emplace(request.model, registry.input_width(request.model))
                  .first;
    }
    expects(request.input.size() == width->second,
            "request input width does not match its model");
    for (const double v : request.input) {
      expects(std::isfinite(v) && v >= 0.0,
              "request inputs must be finite and non-negative");
    }
  }
}

}  // namespace

Server::Server(ModelRegistry& registry)
    : accelerator_(registry.accelerator()), registry_(registry) {}

void Server::set_tracer(telemetry::Tracer* tracer) {
  tracer_ = tracer;
  accelerator_.set_tracer(tracer);
  if (tracer_ == nullptr) return;
  tracer_->set_track_name(telemetry::track::kServe, "serving");
  tracer_->set_track_name(telemetry::track::kSteps, "graph steps");
  tracer_->set_track_name(telemetry::track::kQueue, "queue");
}

void Server::set_metrics(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
  accelerator_.set_metrics(metrics);
}

void Server::add_slo(const SloObjective& objective) {
  for (const SloMonitor& monitor : slos_) {
    expects(monitor.objective().name != objective.name,
            "SLO names must be unique per server");
  }
  slos_.emplace_back(objective);
}

void Server::set_fault_schedule(std::vector<runtime::FaultEvent> schedule) {
  // Reject here, not mid-run: Server::run resets residency, drift and
  // faults before it replays the first event.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const runtime::FaultEvent& event = schedule[i];
    expects(std::isfinite(event.time), "fault event time must be finite");
    expects(i == 0 || schedule[i - 1].time <= event.time,
            "fault events must be sorted by time");
    expects(event.core < accelerator_.core_count(),
            "fault event core out of range");
    expects(event.kind != runtime::FaultEvent::Kind::kAdcLadder ||
                event.row < accelerator_.core(event.core).rows(),
            "fault event row out of range");
  }
  fault_schedule_ = std::move(schedule);
}

ServeReport Server::run(const std::vector<Request>& requests,
                        const BatchPolicy& policy) {
  // Reject bad input before any fleet state moves: the batcher checks the
  // policy's own fields, the lines below how they combine.
  expect_request_stream(requests);
  expect_servable(registry_, requests);
  DynamicBatcher batcher(policy);
  // Probing policies sample the fleet health monitor on a modeled-time
  // cadence; the estimate/anomaly triggers read *it*, never the oracle.
  const bool probing = policy.probe_period > 0.0;
  expects(probing || (policy.estimated_drift_threshold == 0.0 &&
                      !policy.recalibrate_on_anomaly),
          "estimate/anomaly recalibration triggers need probe_period > 0");
  // A period shorter than the sweep's own modeled latency could never
  // keep up — and would starve dispatch during a drain flush.
  expects(!probing ||
              policy.probe_period >=
                  accelerator_
                      .probe_cost(fleet::FleetHealthMonitor::kProbeSamples)
                      .latency,
          "probe_period must cover the probe sweep latency");

  registry_.reset_residency();
  accelerator_.reset_drift();
  // A scheduled-fault run replays its schedule from a healthy fleet, so the
  // same schedule + requests reproduce byte-identically across runs.  An
  // empty schedule leaves console-injected faults (and their evictions) in
  // place — the operator's fleet state persists across SERVE:RUN?.
  if (!fault_schedule_.empty()) accelerator_.reset_faults();
  accelerator_.set_trace_time(0.0);
  // Every joule and second the run charges is billed to a tenant row as it
  // happens; fleet-side work (probes, faults, recalibration) lands on the
  // reserved TenantCost::kFleetTenant row.
  TenantBilling billing(accelerator_);

  if (probing) {
    if (health_ == nullptr) {
      // Characterization (probe response curves per core) happens once and
      // is reused across runs — it is a property of the devices, not of
      // any run's drift trajectory.
      health_ = std::make_unique<fleet::FleetHealthMonitor>(accelerator_);
    }
    health_->reset();
    health_->set_metrics(metrics_);
    health_->set_tracer(tracer_);
  }
  fleet::FleetHealthMonitor* health = probing ? health_.get() : nullptr;
  double next_probe =
      probing ? policy.probe_period : std::numeric_limits<double>::infinity();

  // Trigger-lag measurement (reporting only — the triggers themselves never
  // see these oracle reads): the instant each core's true |detuning| first
  // crossed the policy's threshold since the last re-lock.
  const double lag_threshold = policy.estimated_drift_threshold > 0.0
                                   ? policy.estimated_drift_threshold
                                   : policy.drift_threshold;
  std::vector<double> crossed_at(accelerator_.core_count(), -1.0);
  const auto note_crossings = [&](double t) {
    if (lag_threshold <= 0.0) return;
    for (std::size_t i = 0; i < accelerator_.core_count(); ++i) {
      if (crossed_at[i] < 0.0 &&
          std::abs(accelerator_.core(i).thermal_detuning()) > lag_threshold) {
        crossed_at[i] = t;
      }
    }
  };

  for (SloMonitor& monitor : slos_) monitor.reset();

  ServeReport report;
  report.cores = accelerator_.core_count();
  report.requests.reserve(requests.size());
  std::vector<double> lags;  // trigger lags, summarized at close

  std::size_t next = 0;
  double fleet_free = 0.0;
  double last_recalibration = 0.0;
  // Accuracy scoring costs one float-reference execution per batch; only
  // pay it where the comparison is non-trivial (varied or drifting fleet).
  report.accuracy_scored = accelerator_.drift_enabled() ||
                           accelerator_.config().variation.seed != 0;
  // At most one re-lock between dispatches, so a policy whose period is
  // shorter than the recalibration downtime still makes forward progress.
  bool recalibrated_since_dispatch = false;
  // Hard-fault replay cursor over the (time-sorted) schedule, and the
  // latch a fault injection sets when the policy re-locks on faults.
  std::size_t next_fault = 0;
  bool fault_recal_pending = false;

  // Request lifecycle spans are async events keyed by request id: queued
  // lifetimes overlap arbitrarily, which no single track could hold.
  const auto admit = [&](const Request& request) {
    // Degraded-capacity load shedding: while a core is evicted the fleet
    // runs below nameplate, so an admission-time queue cap keeps the
    // surviving cores' tail latency inside the SLOs at the price of
    // availability.  Shed requests never enqueue: they bill to their
    // tenant's shed tally and the run's availability() pays for them.
    if (policy.degraded_queue_limit > 0 && accelerator_.evicted_count() > 0 &&
        batcher.pending() >= policy.degraded_queue_limit) {
      ++billing.row(request.tenant).shed_requests;
      if (tracer_ != nullptr) {
        tracer_->instant(telemetry::track::kServe, "request_shed", "serve",
                         request.arrival,
                         {{"tenant", request.tenant.c_str()},
                          {"model", request.model.c_str()}});
      }
      if (metrics_ != nullptr) {
        metrics_
            ->counter("serve_shed_total", {{"tenant", request.tenant}},
                      "requests refused by degraded-capacity shedding")
            .inc();
      }
      return;
    }
    if (tracer_ != nullptr) {
      tracer_->async_begin("request", "request", request.id, request.arrival,
                           {{"tenant", request.tenant.c_str()},
                            {"model", request.model.c_str()}});
    }
    batcher.enqueue(request);
    if (tracer_ != nullptr) {
      tracer_->counter(telemetry::track::kQueue, "queue_depth",
                       request.arrival,
                       static_cast<double>(batcher.pending()));
    }
    if (metrics_ != nullptr) {
      metrics_->counter("serve_requests_total").inc();
      metrics_->gauge("serve_queue_depth").set(
          static_cast<double>(batcher.pending()));
    }
  };

  while (next < requests.size() || batcher.has_pending()) {
    if (!batcher.has_pending()) {
      admit(requests[next++]);
      continue;
    }

    double dispatch_at =
        std::max(fleet_free, batcher.next_ready_time(fleet_free));
    if (next < requests.size() && requests[next].arrival <= dispatch_at) {
      // This arrival lands before (or exactly when) the next batch would
      // launch: admit it first — it may fill the batch, or open one that
      // closes sooner.
      admit(requests[next++]);
      continue;
    }
    bool drain = false;
    if (std::isinf(dispatch_at)) {
      // Arrival stream ended and no bound will ever close the leftovers
      // (kNoTimeout partial batches): flush them now.
      expects(next >= requests.size(), "only a drained stream may flush");
      dispatch_at = fleet_free;
      drain = true;
    }

    // Scheduled hard faults due at or before the launch instant strike
    // first (in modeled-event order against the probe cadence): inject,
    // self-test the struck core, and apply the policy's eviction /
    // readmission reaction before any batch commits to the old rotation.
    if (next_fault < fault_schedule_.size() &&
        fault_schedule_[next_fault].time <= dispatch_at &&
        (health == nullptr || fault_schedule_[next_fault].time <= next_probe)) {
      const runtime::FaultEvent& event = fault_schedule_[next_fault++];
      const double fault_at = std::max(event.time, fleet_free);
      accelerator_.advance_to(fault_at);
      note_crossings(fault_at);
      accelerator_.set_trace_time(fault_at);
      accelerator_.inject(event);
      // The strike triggers the struck core's BIST: its verdict drives the
      // eviction decision and its modeled downtime stalls the fleet —
      // billed, like recalibration, to the reserved fleet row.
      const runtime::CoreHealth verdict =
          accelerator_.run_self_test(event.core);
      const runtime::BatchCost bist = accelerator_.self_test_cost();
      const bool repair = event.kind == runtime::FaultEvent::Kind::kClear;
      fleet_free = std::max(fleet_free, fault_at + bist.latency);
      {
        TenantCost& fleet_row = billing.row(TenantCost::kFleetTenant);
        if (!repair) ++fleet_row.faults;
        fleet_row.fault_seconds += bist.latency;
        fleet_row.energy_joules += billing.take_energy();
      }
      if (policy.recalibrate_on_fault) fault_recal_pending = true;
      if (tracer_ != nullptr) {
        tracer_->instant(telemetry::track::kServe,
                         repair ? "fault_cleared" : "fault_injected", "serve",
                         fault_at,
                         {{"kind", runtime::to_string(event.kind)},
                          {"core", event.core}});
        tracer_->complete(telemetry::track::kServe, "self_test", "serve",
                          fault_at, fault_at + bist.latency,
                          {{"core", event.core},
                           {"health", runtime::to_string(verdict)}});
      }
      if (metrics_ != nullptr && !repair) {
        metrics_->counter("serve_faults_total").inc();
        metrics_->counter("serve_fault_seconds_total").inc(bist.latency);
      }
      if (repair) {
        // Field repair: a cleared core that passes its BIST rejoins the
        // rotation (the next batch restreams against the larger fleet).
        if (accelerator_.core_evicted(event.core) &&
            verdict != runtime::CoreHealth::kFailed) {
          accelerator_.readmit_core(event.core);
          ++report.core_readmissions;
          if (tracer_ != nullptr) {
            tracer_->instant(telemetry::track::kServe, "core_readmitted",
                             "serve", fault_at, {{"core", event.core}});
          }
          if (metrics_ != nullptr) {
            metrics_->counter("serve_core_readmissions_total").inc();
          }
        }
      } else if (policy.evict_on_fault &&
                 verdict == runtime::CoreHealth::kFailed &&
                 !accelerator_.core_evicted(event.core) &&
                 accelerator_.active_core_count() > 1) {
        accelerator_.evict_core(event.core);
        ++report.core_evictions;
        if (tracer_ != nullptr) {
          tracer_->instant(telemetry::track::kServe, "core_evicted", "serve",
                           fault_at, {{"core", event.core}});
        }
        if (metrics_ != nullptr) {
          metrics_->counter("serve_core_evictions_total").inc();
        }
      }
      // Re-enter the loop: the dispatch instant may have moved past the
      // self-test downtime, and more events may be due before it.
      continue;
    }

    // Sensor sweeps due at or before the launch instant run first, in the
    // fleet's idle gap when there is one — feeding the health monitor the
    // estimates the oracle-free triggers below read.
    if (health != nullptr && next_probe <= dispatch_at) {
      const double probe_at = std::max(next_probe, fleet_free);
      accelerator_.advance_to(probe_at);
      note_crossings(probe_at);
      accelerator_.set_trace_time(probe_at);
      const runtime::BatchCost probe =
          accelerator_.probe_cost(fleet::FleetHealthMonitor::kProbeSamples);
      health->sample(probe_at);
      fleet_free = std::max(fleet_free, probe_at + probe.latency);
      // The next sweep falls due strictly after this one frees the fleet.
      // A period equal to the sweep latency, or one rounding to it, would
      // otherwise win the tie against a ready batch at every turn.
      next_probe =
          std::max(probe_at + policy.probe_period,
                   std::nextafter(fleet_free,
                                  std::numeric_limits<double>::infinity()));
      // Probing is fleet overhead no tenant caused: bill the reserved row,
      // so the report's probe totals conserve like every other cost.
      TenantCost& fleet_row = billing.row(TenantCost::kFleetTenant);
      ++fleet_row.probes;
      fleet_row.probe_seconds += probe.latency;
      if (tracer_ != nullptr) {
        tracer_->complete(
            telemetry::track::kServe, "probe", "serve", probe_at,
            probe_at + probe.latency,
            {{"samples", fleet::FleetHealthMonitor::kProbeSamples},
             {"estimate_kelvin", health->max_estimate()}});
      }
      if (metrics_ != nullptr) {
        metrics_->counter("serve_probes_total").inc();
        metrics_->counter("serve_probe_seconds_total").inc(probe.latency);
      }
      // Re-enter the loop: the dispatch instant may have moved past the
      // sweep, and more probes may be due before it.
      continue;
    }

    // The fleet drifts up to the launch instant; then the recalibration
    // policy gets a look before the batch commits.
    accelerator_.advance_to(dispatch_at);
    note_crossings(dispatch_at);
    if (!recalibrated_since_dispatch) {
      const bool periodic_due =
          policy.recalibration_period > 0.0 &&
          dispatch_at - last_recalibration >= policy.recalibration_period;
      const bool drift_due =
          policy.drift_threshold > 0.0 &&
          accelerator_.max_abs_detuning() > policy.drift_threshold;
      // The oracle-free triggers: both read only the health monitor's
      // sensor-derived state (probe transmission inverted through the ring
      // model), never the simulator's ground-truth detuning.
      const bool estimated_due =
          policy.estimated_drift_threshold > 0.0 && health != nullptr &&
          health->max_estimate() > policy.estimated_drift_threshold;
      const bool anomaly_due = policy.recalibrate_on_anomaly &&
                               health != nullptr &&
                               health->alerts_since_recalibration() > 0;
      // Fault-triggered re-lock: a strike (or repair) since the last
      // dispatch latched this; recalibration repairs what it can on the
      // surviving cores (collateral detuning — not the hard fault itself).
      const bool fault_due = fault_recal_pending;
      if (periodic_due || drift_due || estimated_due || anomaly_due ||
          fault_due) {
        // Pin the modeled-time cursor so the downtime spans sit exactly in
        // the window the event loop charges for them.
        accelerator_.set_trace_time(dispatch_at);
        const runtime::BatchCost downtime = accelerator_.recalibrate();
        last_recalibration = dispatch_at;
        // Trigger lag (oracle-measured, reporting only): time from each
        // core's true threshold crossing to the re-lock that cleared it.
        for (std::size_t i = 0; i < crossed_at.size(); ++i) {
          if (crossed_at[i] < 0.0) continue;
          const double lag = dispatch_at - crossed_at[i];
          lags.push_back(lag);
          if (metrics_ != nullptr) {
            metrics_
                ->histogram("serve_trigger_lag_seconds",
                            {{"core", std::to_string(i)}},
                            "threshold-crossing -> re-lock lag [s]",
                            kLatencyHistogram)
                .observe(lag);
          }
          crossed_at[i] = -1.0;
        }
        if (health != nullptr) health->on_recalibration(dispatch_at);
        // Recalibration is fleet overhead no tenant caused: its downtime
        // and ledger energy bill to the reserved fleet row.
        {
          const double recal_energy = billing.take_energy();
          TenantCost& fleet_row = billing.row(TenantCost::kFleetTenant);
          ++fleet_row.recalibrations;
          fleet_row.recalibration_seconds += downtime.latency;
          fleet_row.energy_joules += recal_energy;
          if (metrics_ != nullptr) {
            metrics_
                ->counter("serve_tenant_energy_joules_total",
                          {{"tenant", TenantCost::kFleetTenant},
                           {"model", "(recal)"}},
                          "attributed fleet ledger energy [J]")
                .inc(recal_energy);
          }
        }
        recalibrated_since_dispatch = true;
        fault_recal_pending = false;
        fleet_free = dispatch_at + downtime.latency;
        if (tracer_ != nullptr) {
          tracer_->complete(telemetry::track::kServe, "recalibrate", "serve",
                            dispatch_at, fleet_free,
                            {{"downtime_s", downtime.latency}});
        }
        if (metrics_ != nullptr) {
          metrics_->counter("serve_recalibrations_total").inc();
          metrics_->counter("serve_recalibration_seconds_total")
              .inc(downtime.latency);
        }
        // Re-enter the loop: arrivals during the re-lock join the queue
        // and the dispatch instant moves past the downtime.
        continue;
      }
    }

    std::vector<Request> batch =
        batcher.pop_ready(dispatch_at, registry_.resident_model(), drain);
    expects(!batch.empty(), "a ready batch must be non-empty");
    if (tracer_ != nullptr) {
      tracer_->counter(telemetry::track::kQueue, "queue_depth", dispatch_at,
                       static_cast<double>(batcher.pending()));
    }

    Matrix x(batch.size(), batch.front().input.size());
    for (std::size_t r = 0; r < batch.size(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        x(r, c) = batch[r].input[c];
      }
    }

    // Pin the hardware clock to the dispatch instant: the per-core pass
    // spans and per-step spans run_batch emits land inside this batch's
    // [dispatch, completion] window.
    accelerator_.set_trace_time(dispatch_at);
    const BatchDispatch result =
        registry_.run_batch(batch.front().model, x);
    // Bill the batch before the float-reference scoring below, so its
    // energy delta is exactly what its tile passes charged: weighted by
    // request count, every tenant's share of passes, time, and energy.
    {
      TenantShares shares;
      for (const Request& request : batch) ++shares[request.tenant];
      billing.charge(shares, &TenantCost::requests, result, metrics_,
                     batch.front().model);
    }
    const double completion = dispatch_at + result.latency;
    const std::vector<std::size_t> predicted =
        nn::argmax_rows(result.logits);
    // Accuracy scoring: the same batch through the exact float reference.
    std::vector<std::size_t> reference;
    if (report.accuracy_scored) {
      reference =
          nn::argmax_rows(registry_.reference_batch(batch.front().model, x));
    }

    BatchRecord batch_record;
    batch_record.id = report.batches.size();
    batch_record.model = batch.front().model;
    batch_record.size = batch.size();
    batch_record.passes = result.passes;
    batch_record.warm_passes = result.warm_passes;
    batch_record.dispatch = dispatch_at;
    batch_record.completion = completion;
    batch_record.busy = result.busy;
    batch_record.detuning = accelerator_.max_abs_detuning();
    batch_record.epoch = accelerator_.core(0).calibration_epoch();
    report.max_abs_detuning =
        std::max(report.max_abs_detuning, batch_record.detuning);
    recalibrated_since_dispatch = false;

    if (tracer_ != nullptr) {
      tracer_->complete(
          telemetry::track::kServe, "batch", "batch", dispatch_at, completion,
          {{"id", batch_record.id},
           {"model", batch_record.model.c_str()},
           {"size", batch_record.size},
           {"passes", batch_record.passes},
           {"warm_passes", batch_record.warm_passes},
           {"detuning_kelvin", batch_record.detuning},
           {"epoch", batch_record.epoch}});
    }
    if (metrics_ != nullptr) {
      metrics_->counter(result.warm ? "serve_warm_batches_total"
                                    : "serve_cold_batches_total")
          .inc();
      metrics_->counter("serve_batches_total").inc();
      metrics_
          ->histogram("serve_batch_size", "requests per dispatched batch",
                      kBatchSizeHistogram)
          .observe(static_cast<double>(batch.size()));
    }

    for (std::size_t r = 0; r < batch.size(); ++r) {
      const double total = completion - batch[r].arrival;
      if (metrics_ != nullptr) {
        metrics_
            ->histogram("serve_queue_wait_seconds",
                        "arrival -> dispatch latency [s]", kLatencyHistogram)
            .observe(dispatch_at - batch[r].arrival);
        metrics_
            ->histogram("serve_total_seconds",
                        "arrival -> completion latency [s]",
                        kLatencyHistogram)
            .observe(total);
      }
      const bool matches = !report.accuracy_scored || predicted[r] == reference[r];
      if (report.accuracy_scored && matches) ++report.reference_matches;
      // SLO monitors see every completion in event-loop order (before the
      // tenant string is moved into the record below).
      for (SloMonitor& monitor : slos_) {
        monitor.observe(completion, batch[r].tenant, total, !matches,
                        metrics_, tracer_);
      }
      if (tracer_ != nullptr) {
        tracer_->async_end("request", "request", batch[r].id, completion);
      }
      RequestRecord record;
      record.id = batch[r].id;
      record.tenant = std::move(batch[r].tenant);
      record.model = std::move(batch[r].model);
      record.batch = batch_record.id;
      record.predicted = predicted[r];
      record.matches_reference = matches;
      record.arrival = batch[r].arrival;
      record.dispatch = dispatch_at;
      record.completion = completion;
      report.requests.push_back(std::move(record));
    }
    report.batches.push_back(std::move(batch_record));
    report.passes += result.passes;
    report.warm_passes += result.warm_passes;
    // report.busy is derived from the attribution rows at finalize.
    fleet_free = completion;
  }

  report.makespan = fleet_free;
  report.dispatched_batches = report.batches.size();

  // The fleet totals are *derived* from the attribution rows (the
  // conservation contract), and every latency summary is exact over the
  // records.
  const TenantCost total = billing.close(report);
  report.queue_wait = report.summarize(&RequestRecord::queue_wait);
  report.service = report.summarize(&RequestRecord::service);
  report.service_time = total.service_seconds;
  report.recalibrations = total.recalibrations;
  report.recalibration_time = total.recalibration_seconds;
  report.probes = total.probes;
  report.probe_time = total.probe_seconds;
  report.faults = total.faults;
  report.fault_time = total.fault_seconds;
  report.shed = total.shed_requests;
  report.trigger_lag = LatencyStats::from(std::move(lags));
  report.health_alerts = health != nullptr ? health->alerts().size() : 0;

  report.slos.reserve(slos_.size());
  for (const SloMonitor& monitor : slos_) {
    SloSummary summary;
    summary.name = monitor.objective().name;
    summary.observed = monitor.observed();
    summary.bad = monitor.bad();
    summary.short_burn = monitor.short_burn();
    summary.long_burn = monitor.long_burn();
    summary.alerts = monitor.alerts().size();
    report.slos.push_back(std::move(summary));
  }
  return report;
}

}  // namespace ptc::serve
