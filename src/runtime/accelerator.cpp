#include "runtime/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "nn/tiling.hpp"

namespace ptc::runtime {
namespace {

/// Root of every core's OU drift stream (split per core).
constexpr std::uint64_t kDriftSeed = 77;

/// Fault-triggered built-in self-test: seeded probe vectors streamed
/// through one core and judged against the digital reference (see
/// core::TensorCore::self_test).  The BIST runs at the calibration lock
/// point (detuning pulled to 0 for the test, restored after), so thermal
/// drift cannot masquerade as a hard fault — a heater that cannot be
/// pulled to the lock point is caught by the heater_locked flag instead.
/// The thresholds classify core health: a core FAILS on gross analog
/// corruption, a stuck ADC ladder, or a heater that cannot re-lock; it is
/// DEGRADED on elevated-but-servable error.  The error bars sit well above
/// the healthy variation fleet's locked deviation (~0.003) and below a
/// 24-ring dead cluster's (~0.02-0.05).
constexpr std::size_t kSelfTestSamples = 8;
constexpr std::uint64_t kSelfTestSeed = 2026;
constexpr double kDegradedError = 0.008;  ///< max row |analog - reference| bar
constexpr double kFailError = 0.015;

}  // namespace

Accelerator::Accelerator(const AcceleratorConfig& config)
    : config_(config),
      pool_(config.threads != 0 ? config.threads
                                : std::max<std::size_t>(config.cores, 1)) {
  expects(config_.cores >= 1, "accelerator needs at least one core");

  expects(std::isfinite(config_.drift.sigma) && config_.drift.sigma >= 0.0,
          "drift.sigma must be finite and >= 0");
  expects(std::isfinite(config_.drift.tau) && config_.drift.tau > 0.0,
          "drift.tau must be finite and positive");

  const core::VariationModel fleet_variation(config_.variation);
  cores_.reserve(config_.cores);
  for (std::size_t i = 0; i < config_.cores; ++i) {
    core::TensorCoreConfig core_config = config_.core;
    if (fleet_variation.enabled()) {
      // Full per-die device variation: every core is a distinct die drawn
      // from an independent child stream of the fleet seed.
      core_config.variation = config_.variation;
      core_config.variation.seed = fleet_variation.child_seed(i);
    }
    cores_.push_back(std::make_unique<core::TensorCore>(core_config));
  }
  pass_buffers_.resize(cores_.size());
  health_.assign(cores_.size(), CoreHealth::kOk);
  evicted_.assign(cores_.size(), 0);
  rebuild_active();
  if (drift_enabled()) reset_drift();

  core::TensorCore& probe = *cores_.front();
  sample_rate_ = probe.adc(0).sample_rate();
  reload_latency_ = probe.psram().reload_time();

  stats_.cores = cores_.size();
  stats_.core_busy.assign(cores_.size(), 0.0);
}

core::TensorCore& Accelerator::core(std::size_t index) {
  expects(index < cores_.size(), "core index out of range");
  return *cores_[index];
}

const core::TensorCore& Accelerator::core(std::size_t index) const {
  expects(index < cores_.size(), "core index out of range");
  return *cores_[index];
}

PassCost Accelerator::pass_cost(std::size_t samples) const {
  PassCost cost;
  cost.reload_s = reload_latency_;
  cost.compute_s = static_cast<double>(samples) / sample_rate_;
  return cost;
}

BatchCost Accelerator::batch_cost(std::size_t passes, std::size_t warm_passes,
                                  std::size_t samples) const {
  const PassCost cost = pass_cost(samples);
  // Cold passes first: the greedy balances best when the expensive
  // (reload + compute) passes land before the compute-only warm ones.
  Schedule schedule;
  TileScheduler::assign(passes, warm_passes, cost, active_.size(), schedule);
  if (tracer_ != nullptr) {
    trace_batch_schedule(schedule, cost, passes - warm_passes, "pass");
  }
  if (metrics_ != nullptr) {
    // Per-core cost decomposition of the modeled schedule — the `core`
    // dimension of the attribution metrics (tenant x model come from the
    // serving layer).  Shards arrive in core order, so the label family
    // is created and updated deterministically.
    for (const CoreShard& shard : schedule.shards) {
      if (shard.pass_indices.empty()) continue;
      const telemetry::LabelSet labels = {
          {"core", std::to_string(active_[shard.core])}};
      metrics_
          ->counter("fleet_core_busy_seconds_total", labels,
                    "modeled busy time per core [s]")
          .inc(shard.busy_time);
      metrics_
          ->counter("fleet_core_passes_total", labels,
                    "weight-tile passes scheduled per core")
          .inc(static_cast<double>(shard.pass_indices.size()));
    }
  }
  BatchCost out;
  out.latency = schedule.makespan();
  out.busy = schedule.total_busy();
  out.reloads = passes - warm_passes;
  out.reload_time = static_cast<double>(out.reloads) * cost.reload_s;
  return out;
}

void Accelerator::trace_batch_schedule(const Schedule& schedule,
                                       const PassCost& cost,
                                       std::size_t cold_count,
                                       const char* label) const {
  // Canonical core order on the calling thread: the trace is a pure
  // function of the schedule, independent of host threading.
  const double start = trace_time_;
  for (const CoreShard& shard : schedule.shards) {
    double t = start;
    for (const std::size_t index : shard.pass_indices) {
      const double pass_s =
          index < cold_count ? cost.total() : cost.compute_s;
      const bool reload = index < cold_count && cost.reload_s > 0.0;
      // Shard cores are rotation slots; the track is the physical core.
      const int tid = telemetry::track::kCoreBase +
                      static_cast<int>(active_[shard.core]);
      tracer_->complete(tid, label, "fleet", t, t + pass_s,
                        {{"pass", index}, {"cold", reload}});
      if (reload) {
        tracer_->complete(tid, "reload", "fleet", t, t + cost.reload_s, {});
      }
      t += pass_s;
    }
  }
  trace_time_ = start + schedule.makespan();
}

void Accelerator::set_tracer(telemetry::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    tracer_->set_track_name(telemetry::track::kCoreBase + static_cast<int>(i),
                            "fleet core " + std::to_string(i));
  }
}

void Accelerator::set_metrics(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

void Accelerator::reset_drift() {
  drift_.clear();
  drift_rng_.clear();
  clock_ = 0.0;
  recalibrations_ = 0;
  if (!drift_enabled()) return;
  const Rng streams(kDriftSeed);
  drift_.reserve(cores_.size());
  drift_rng_.reserve(cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    // The OU state *is* the core's detuning from its heater-locked
    // operating point: it starts at 0 (freshly calibrated) and wanders
    // with stationary std sigma.
    drift_.emplace_back(0.0, config_.drift.tau, config_.drift.sigma);
    drift_.back().reset(0.0);
    drift_rng_.push_back(streams.split(i));
    if (cores_[i]->thermal_detuning() != 0.0) {
      cores_[i]->set_thermal_detuning(0.0);
    }
    cores_[i]->reset_calibration_epoch();
  }
}

void Accelerator::advance_to(double t) {
  if (!drift_enabled()) return;
  if (t <= clock_) return;
  const double dt = t - clock_;
  clock_ = t;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const double detuning = drift_[i].step(dt, drift_rng_[i]);
    cores_[i]->set_thermal_detuning(detuning);
  }
  if (metrics_ != nullptr) {
    metrics_
        ->gauge("fleet_max_abs_detuning_kelvin",
                "worst per-core |thermal detuning| across the fleet [K]")
        .set(max_abs_detuning());
  }
}

double Accelerator::max_abs_detuning() const {
  // Evicted cores are out of rotation: their (possibly frozen) detuning
  // must not keep pulling the fleet's recalibration triggers.
  double worst = 0.0;
  for (const std::size_t i : active_) {
    worst = std::max(worst, std::abs(cores_[i]->thermal_detuning()));
  }
  return worst;
}

BatchCost Accelerator::recalibrate() {
  // Re-lock only hardware that can re-lock: FAILED cores (stuck heaters,
  // gross corruption) are skipped — billing re-lock downtime for hardware
  // that cannot recover would charge tenants for nothing — and evicted
  // cores are out of rotation entirely.
  std::vector<std::size_t> relock;
  relock.reserve(active_.size());
  for (const std::size_t i : active_) {
    if (health_[i] != CoreHealth::kFailed) relock.push_back(i);
  }
  if (relock.empty()) return BatchCost{};
  for (const std::size_t i : relock) {
    if (i < drift_.size()) drift_[i].reset(0.0);
    cores_[i]->recalibrate();
  }
  ++recalibrations_;
  if (metrics_ != nullptr) {
    metrics_
        ->counter("fleet_recalibrations_total",
                  "heater re-locks performed across the fleet")
        .inc();
  }
  // Downtime: one probe residency per re-locked core, all in parallel —
  // costed exactly like a cold serving batch of probe vectors.  Suppress
  // the generic pass spans and emit labeled recalibration windows instead.
  telemetry::Tracer* tracer = tracer_;
  tracer_ = nullptr;
  const BatchCost downtime =
      batch_cost(relock.size(), 0, kRecalibrationSamples);
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    const double start = trace_time_;
    for (const std::size_t i : relock) {
      tracer_->complete(
          telemetry::track::kCoreBase + static_cast<int>(i), "recalibrate",
          "fleet", start, start + downtime.latency,
          {{"probe_samples", kRecalibrationSamples}});
    }
    trace_time_ = start + downtime.latency;
  }
  return downtime;
}

BatchCost Accelerator::probe_cost(std::size_t samples) const {
  expects(samples >= 1, "a probe sweep streams at least one vector");
  BatchCost out;
  out.latency = static_cast<double>(samples) / sample_rate_;
  out.busy = out.latency * static_cast<double>(active_.size());
  out.reloads = 0;
  out.reload_time = 0.0;
  return out;
}

Matrix Accelerator::matmul(const Matrix& x, const Matrix& w,
                           const nn::PhotonicBackendOptions& options) {
  return matmul(x, w, options, plan_cache_);
}

Matrix Accelerator::matmul(const Matrix& x, const Matrix& w,
                           const nn::PhotonicBackendOptions& options,
                           nn::WeightPlanCache& plan_cache) {
  core::TensorCore& front = *cores_.front();
  const std::size_t builds_before = plan_cache.builds();
  const nn::TilePlan plan = nn::plan_from_weights(
      plan_cache.get(w, front.rows(), front.cols(),
                     options.differential_weights),
      x, x_norm_);
  if (metrics_ != nullptr) {
    const bool miss = plan_cache.builds() > builds_before;
    metrics_
        ->counter(miss ? "fleet_plan_cache_misses_total"
                       : "fleet_plan_cache_hits_total",
                  miss ? "weight plans built (mapping + pass list + encode)"
                       : "weight plans served from cache")
        .inc();
  }

  const PassCost cost = pass_cost(plan.samples);
  TileScheduler::assign(plan.passes.size(), 0, cost, active_.size(),
                        schedule_);

  // Each shard runs its passes on its own core (shard.core is a rotation
  // slot, mapped through active_ to the physical core), gathering into
  // that core's buffers; results land in disjoint per-pass slots, so the
  // only synchronization needed is the parallel_for barrier.  Only shards
  // that received passes become indices: a small matmul on a large fleet
  // would otherwise wake a worker per idle core, and a one-shard matmul
  // runs on the calling thread without waking any.
  busy_.clear();
  for (const CoreShard& shard : schedule_.shards) {
    if (!shard.pass_indices.empty()) busy_.push_back(&shard);
  }
  if (results_.size() < plan.passes.size()) {
    results_.resize(plan.passes.size());
  }
  pool_.parallel_for(0, busy_.size(), [&](std::size_t s) {
    const CoreShard& shard = *busy_[s];
    const std::size_t physical = active_[shard.core];
    for (std::size_t index : shard.pass_indices) {
      nn::run_tile_pass(*cores_[physical], plan, index, x_norm_, options,
                        pass_buffers_[physical], results_[index]);
    }
  });

  // Canonical-order reduction: bit-identical to the sequential single-core
  // accumulation regardless of which core ran which pass.
  Matrix y(plan.samples, plan.m, 0.0);
  for (std::size_t i = 0; i < plan.passes.size(); ++i) {
    accumulate_pass(y, plan, plan.passes[i], results_[i].contribution);
    stats_.reload_time += results_[i].reload_time;
  }

  ++stats_.matmuls;
  stats_.tile_loads += plan.passes.size();
  stats_.samples += plan.passes.size() * plan.samples;
  stats_.ops += front.ops_per_sample() *
                static_cast<double>(plan.passes.size() * plan.samples);
  stats_.makespan += schedule_.makespan();
  stats_.busy_time += schedule_.total_busy();
  for (const CoreShard& shard : schedule_.shards) {
    stats_.core_busy[active_[shard.core]] += shard.busy_time;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("fleet_matmuls_total", "matmul dispatches served")
        .inc();
    metrics_
        ->counter("fleet_tile_passes_total",
                  "weight-tile passes executed across the fleet")
        .inc(static_cast<double>(plan.passes.size()));
    metrics_
        ->counter("fleet_adc_samples_total",
                  "ADC sample windows converted across the fleet")
        .inc(static_cast<double>(plan.passes.size() * plan.samples));
    metrics_
        ->counter("fleet_psram_reloads_total",
                  "full weight-tile pSRAM reloads paid")
        .inc(static_cast<double>(plan.passes.size()));
    metrics_
        ->counter("fleet_reload_seconds_total",
                  "modeled pSRAM reload latency paid [s]")
        .inc(static_cast<double>(plan.passes.size()) * cost.reload_s);
  }
  if (tracer_ != nullptr) {
    // Per-core pass spans at the modeled-time cursor — uniform cold costs,
    // exactly the shard timing stats_ recorded.
    trace_batch_schedule(schedule_, cost, plan.passes.size(), "pass");
  }
  return y;
}

circuit::EnergyLedger Accelerator::fleet_ledger() const {
  std::vector<const circuit::EnergyLedger*> ledgers;
  ledgers.reserve(cores_.size());
  for (const auto& c : cores_) ledgers.push_back(&c->ledger());
  return merge_ledgers(ledgers);
}

double Accelerator::power() const {
  double total = 0.0;
  for (const auto& c : cores_) total += c->power();
  return total;
}

AcceleratorStats Accelerator::stats() const {
  AcceleratorStats out = stats_;
  out.energy = fleet_ledger().total_energy();
  out.fleet_power = power();
  return out;
}

void Accelerator::reset_stats() {
  stats_ = AcceleratorStats{};
  stats_.cores = cores_.size();
  stats_.core_busy.assign(cores_.size(), 0.0);
}

void Accelerator::rebuild_active() {
  active_.clear();
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (evicted_[i] == 0) active_.push_back(i);
  }
  ++rotation_changes_;
  if (metrics_ != nullptr) {
    metrics_
        ->gauge("fleet_active_cores",
                "cores currently in the scheduling rotation")
        .set(static_cast<double>(active_.size()));
  }
}

void Accelerator::inject(const FaultEvent& event) {
  expects(event.core < cores_.size(), "fault event core out of range");
  core::TensorCore& target = *cores_[event.core];
  switch (event.kind) {
    case FaultEvent::Kind::kDeadRings:
      target.inject_ring_faults(core::sample_ring_faults(
          target.rows(), target.cols(), target.weight_bits(), event.count,
          event.seed));
      break;
    case FaultEvent::Kind::kStuckHeater:
      target.inject_stuck_heater();
      break;
    case FaultEvent::Kind::kAdcLadder:
      expects(event.row < target.rows(), "fault event row out of range");
      target.inject_adc_fault(event.row);
      break;
    case FaultEvent::Kind::kClear:
      target.clear_faults();
      // Field repair ends with a re-lock: detuning back to the calibrated
      // point on a fresh drift state for this core.
      if (event.core < drift_.size()) drift_[event.core].reset(0.0);
      target.set_thermal_detuning(0.0);
      break;
  }
  if (event.kind != FaultEvent::Kind::kClear) ++faults_injected_;
  if (metrics_ != nullptr) {
    metrics_
        ->counter("fleet_faults_total", {{"kind", to_string(event.kind)}},
                  "hard-fault events applied to the fleet")
        .inc();
  }
}

CoreHealth Accelerator::run_self_test(std::size_t index) {
  expects(index < cores_.size(), "core index out of range");
  core::TensorCore& target = *cores_[index];
  // BIST at the calibration lock point: drift-detuned-but-healthy cores
  // must not read as hard faults.  Both calls no-op on a stuck heater —
  // the test then runs at the frozen detuning and the heater_locked flag
  // fails the core regardless of the error it measures.
  const double detuning = target.thermal_detuning();
  if (detuning != 0.0) target.set_thermal_detuning(0.0);
  const core::TensorCore::SelfTestResult result =
      target.self_test(kSelfTestSamples, kSelfTestSeed);
  if (detuning != 0.0) target.set_thermal_detuning(detuning);
  CoreHealth health = CoreHealth::kOk;
  if (result.max_row_error >= kDegradedError) health = CoreHealth::kDegraded;
  if (result.max_row_error >= kFailError ||
      result.stuck_adc_rows > 0 || !result.heater_locked) {
    health = CoreHealth::kFailed;
  }
  health_[index] = health;
  if (metrics_ != nullptr) {
    metrics_
        ->gauge("fleet_core_health",
                {{"core", std::to_string(index)}},
                "self-test health per core (0 OK, 1 DEGRADED, 2 FAILED)")
        .set(static_cast<double>(health));
  }
  return health;
}

BatchCost Accelerator::self_test_cost() const {
  // The BIST streams its probe batch twice through one core: once through
  // the analog tap, once through the quantized path.
  BatchCost out;
  out.latency = 2.0 * static_cast<double>(kSelfTestSamples) / sample_rate_;
  out.busy = out.latency;
  return out;
}

CoreHealth Accelerator::core_health(std::size_t index) const {
  expects(index < cores_.size(), "core index out of range");
  return health_[index];
}

bool Accelerator::core_evicted(std::size_t index) const {
  expects(index < cores_.size(), "core index out of range");
  return evicted_[index] != 0;
}

void Accelerator::evict_core(std::size_t index) {
  expects(index < cores_.size(), "core index out of range");
  expects(evicted_[index] == 0, "core is already evicted");
  expects(active_.size() > 1, "cannot evict the last active core");
  evicted_[index] = 1;
  rebuild_active();
}

void Accelerator::readmit_core(std::size_t index) {
  expects(index < cores_.size(), "core index out of range");
  expects(evicted_[index] != 0, "core is not evicted");
  evicted_[index] = 0;
  rebuild_active();
}

void Accelerator::reset_faults() {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->clear_faults();
    if (cores_[i]->thermal_detuning() != 0.0) {
      cores_[i]->set_thermal_detuning(0.0);
    }
    health_[i] = CoreHealth::kOk;
    evicted_[i] = 0;
  }
  faults_injected_ = 0;
  rebuild_active();
}

}  // namespace ptc::runtime
