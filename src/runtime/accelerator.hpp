#ifndef PTC_RUNTIME_ACCELERATOR_HPP
#define PTC_RUNTIME_ACCELERATOR_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "core/variation.hpp"
#include "nn/backend.hpp"
#include "nn/tiling.hpp"
#include "optics/thermal.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/tile_scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

/// Multi-tile accelerator runtime: one controller orchestrating a pool of
/// photonic tensor cores, the scale-out counterpart of the paper's single
/// 16x16 core (4.10 TOPS) — N cores give N x the aggregate throughput as
/// long as the tile scheduler keeps them fed.
namespace ptc::runtime {

/// Slow thermal drift of the fleet's operating point, modeled per core as a
/// mean-reverting Ornstein-Uhlenbeck detuning process (optics::ThermalDrift)
/// on modeled serving time.  Every core drifts through an independent,
/// reproducible child stream of `seed`, and each core's rings respond
/// through their own (variation-spread) thermo-optic sensitivities.
struct DriftConfig {
  /// Stationary detuning standard deviation [K]; 0 disables drift.
  double sigma = 0.0;
  /// Mean-reversion time constant [s] of modeled serving time.  Thermal
  /// time constants are "slow" relative to the ns-scale batch service
  /// times, so the default is ~1000 batch latencies.
  double tau = 2e-6;
  std::uint64_t seed = 77;
  /// Probe vectors each core streams during a recalibration — sets the
  /// modeled downtime recalibrate() bills through batch_cost.
  std::size_t recalibration_samples = 64;
};

/// Fault-triggered built-in self-test: seeded probe vectors streamed
/// through one core and judged against the digital reference (see
/// core::TensorCore::self_test).  The BIST runs at the calibration lock
/// point (detuning pulled to 0 for the test, restored after), so thermal
/// drift cannot masquerade as a hard fault — a heater that cannot be
/// pulled to the lock point is caught by the heater_locked flag instead.
/// The thresholds classify core health: a core FAILS on gross analog
/// corruption, a stuck ADC ladder, or a heater that cannot re-lock; it is
/// DEGRADED on elevated-but-servable error, worn pSRAM cells, or a thin
/// endurance margin.  The error bars sit well above the healthy variation
/// fleet's locked deviation (~0.003) and below a 24-ring dead cluster's
/// (~0.02-0.05).
struct SelfTestConfig {
  std::size_t samples = 8;
  std::uint64_t seed = 2026;
  double degraded_error = 0.008;  ///< max row |analog - reference| bar
  double fail_error = 0.015;
  /// DEGRADED when the most-worn pSRAM cell's remaining endurance
  /// fraction drops below this.
  double degraded_endurance = 0.1;
};

struct AcceleratorConfig {
  /// Number of tensor cores in the pool.
  std::size_t cores = 4;
  /// Configuration shared by every core (geometry must be uniform so any
  /// core can execute any tile pass).
  core::TensorCoreConfig core{};
  /// Host worker threads; 0 = one thread per core.
  std::size_t threads = 0;
  /// When nonzero, models per-die fabrication spread: core i's eoADC ladder
  /// mismatch is seeded from Rng(variation_seed).split(i), giving each die
  /// an independent, reproducible variation stream.  Takes effect through
  /// core.adc.vref_mismatch_sigma.  When zero (default) all cores are
  /// identical devices and accelerator results are bit-identical to a
  /// single-core nn::PhotonicBackend.
  std::uint64_t variation_seed = 0;
  /// Full per-die device variation (core/variation.hpp): when
  /// variation.seed != 0 every core receives an independent child stream,
  /// so the pool is a realistically heterogeneous fabricated fleet.  The
  /// determinism contract still holds — results are a pure function of
  /// (config, inputs) — but fleet results are no longer bit-identical to a
  /// single-core backend, since different cores are different devices.
  core::VariationConfig variation{};
  /// Thermal drift of the fleet's operating point on modeled serving time.
  DriftConfig drift{};
  /// Hard-fault model (core/fault.hpp): when fault.seed != 0 every core
  /// receives an independent child stream for its pSRAM endurance sampler.
  /// Injected faults (inject()) work regardless of this seed.
  core::FaultConfig fault{};
  /// Health classification thresholds for run_self_test().
  SelfTestConfig self_test{};
};

/// Determinism contract: matmul results depend only on (config, inputs) —
/// the tile schedule is static and per-pass contributions are reduced in
/// canonical order on the calling thread, so host thread interleaving can
/// never change a single bit of the output.
class Accelerator {
 public:
  explicit Accelerator(const AcceleratorConfig& config = {});

  std::size_t core_count() const { return cores_.size(); }
  core::TensorCore& core(std::size_t index);
  const core::TensorCore& core(std::size_t index) const;
  ThreadPool& pool() { return pool_; }
  const AcceleratorConfig& config() const { return config_; }

  /// Sharded matmul with nn::PhotonicBackend semantics: x (s x k) times
  /// w (k x m), x non-negative, w signed.  Weight tiles are dispatched
  /// across the core pool by the TileScheduler; each shard streams the full
  /// input batch through every residency it owns (minimizing pSRAM
  /// reloads).  Weight-plan construction (mapping, pass list, encoded
  /// blocks) is cached per weight version — in the accelerator's own cache,
  /// or the caller's via the second overload.
  Matrix matmul(const Matrix& x, const Matrix& w,
                const nn::PhotonicBackendOptions& options = {});
  Matrix matmul(const Matrix& x, const Matrix& w,
                const nn::PhotonicBackendOptions& options,
                nn::WeightPlanCache& plan_cache);

  /// Modeled hardware cost of one tile pass for a batch of `samples`.
  PassCost pass_cost(std::size_t samples) const;

  /// Modeled cost of dispatching one serving batch: `passes` weight-tile
  /// residencies each streaming a `samples`-row batch, of which
  /// `warm_passes` are still resident on their cores from the previous
  /// dispatch and skip the pSRAM reload.  LPT-balanced across the pool
  /// exactly like matmul()'s schedule, so a fully cold batch costs the
  /// same modeled makespan matmul() records.  Pure function of (config,
  /// arguments) — the serve layer's timing hook, independent of host
  /// threading.
  BatchCost batch_cost(std::size_t passes, std::size_t warm_passes,
                       std::size_t samples) const;

  // --- thermal drift / online recalibration ---------------------------------
  /// True when config.drift.sigma > 0: the fleet's operating point drifts
  /// as modeled serving time advances.
  bool drift_enabled() const { return config_.drift.sigma > 0.0; }

  /// Advances the fleet clock to modeled time `t` [s]: steps every core's
  /// OU detuning process over the elapsed interval and applies the new
  /// detuning to the core (its fast-path gains follow at the core's next
  /// weight load or sample).  The
  /// serve layer calls this at every batch dispatch.  Monotonic; t at or
  /// before the current clock is a no-op.  No-op while drift is disabled.
  void advance_to(double t);

  /// Current fleet clock [s] (last advance_to target).
  double clock() const { return clock_; }

  /// Largest |detuning| across the pool [K] — the on-chip thermal monitors'
  /// view of how far the fleet has drifted from its calibration point.
  double max_abs_detuning() const;

  /// Online recalibration: re-locks every core's heaters to the calibrated
  /// operating point (detuning -> 0, a new calibration epoch per core) and
  /// re-freezes the fast-path gains there.  Cores recalibrate in parallel;
  /// the returned BatchCost is the modeled fleet downtime — one probe
  /// residency per core streaming drift.recalibration_samples vectors,
  /// costed through the same batch_cost model serving batches use.
  /// Resident weight tiles survive (recalibration re-freezes gains, it does
  /// not evict pSRAM state).
  BatchCost recalibrate();

  /// Recalibrations performed since construction (or reset_drift()).
  std::size_t recalibrations() const { return recalibrations_; }

  /// Modeled cost of one fleet-wide health probe sweep: every core streams
  /// `samples` pilot-tone vectors through its reserved calibration row, all
  /// cores in parallel.  The probe row's weights never change, so a sweep
  /// pays no pSRAM reload — just `samples` ADC windows of latency — which
  /// is what keeps the serving loop's sensor cadence cheap relative to a
  /// full recalibration.  Pure function of (config, samples), the serve
  /// layer's probe-cost accounting hook alongside batch_cost.
  BatchCost probe_cost(std::size_t samples) const;

  /// Rewinds the drift subsystem to its initial state: clock 0, every
  /// core's OU process and stream reseeded, detuning 0.  Server::run calls
  /// this so identical runs see identical drift trajectories.
  void reset_drift();

  // --- hard faults / per-core health registry -------------------------------
  /// Applies one fault event to its target core right now (the event's
  /// `time` field is the *serve* layer's replay key; the accelerator does
  /// not consult it).  kClear events clear the core's injected faults and
  /// re-lock it (fresh drift state, detuning 0).  Classification is a
  /// separate step — call run_self_test() afterwards.
  void inject(const FaultEvent& event);

  /// Runs the target core's BIST and classifies it against the self_test
  /// thresholds; records and returns the new health state.  The modeled
  /// downtime is self_test_cost() — billed by the serve layer.
  CoreHealth run_self_test(std::size_t index);

  /// Modeled downtime of one core's BIST: the probe batch streams through
  /// the analog tap and the quantized path (two passes over the samples).
  BatchCost self_test_cost() const;

  CoreHealth core_health(std::size_t index) const;
  bool core_evicted(std::size_t index) const;
  std::size_t evicted_count() const { return cores_.size() - active_.size(); }
  /// Cores currently in the scheduling rotation (ids ascending).  All tile
  /// passes — matmul(), batch_cost(), recalibrate() — schedule over these
  /// only; health state alone never changes routing (that separation is
  /// what lets a no-mitigation serving policy keep routing to FAILED
  /// hardware, and what the fault frontier bench measures).
  const std::vector<std::size_t>& active_cores() const { return active_; }
  std::size_t active_core_count() const { return active_.size(); }

  /// Takes a core out of the scheduling rotation / returns it.  The last
  /// active core cannot be evicted.  Scheduling over the survivors is
  /// bit-identical to a healthy fleet of the surviving size (uniform
  /// geometry + canonical-order reduction).
  void evict_core(std::size_t index);
  void readmit_core(std::size_t index);

  /// Clears every injected fault, readmits every core, heals all health
  /// states, and re-locks (detuning 0).  pSRAM endurance wear is physical
  /// damage and persists.  Server::run calls this when a fault schedule is
  /// attached so identical runs see identical fault trajectories.
  void reset_faults();

  /// Fault events injected since construction (or reset_faults()),
  /// excluding kClear repairs.
  std::size_t faults_injected() const { return faults_injected_; }

  // --- telemetry ------------------------------------------------------------
  /// Attaches a span tracer (nullptr detaches — the default, zero-overhead
  /// path).  While attached, matmul() and batch_cost() emit per-core tile
  /// pass / reload spans on the fleet tracks at the modeled-time cursor
  /// (set_trace_time), and recalibrate() emits per-core re-lock spans.
  /// Emission happens on the calling thread in canonical core order, so the
  /// trace is bit-identical across host thread counts.
  void set_tracer(telemetry::Tracer* tracer);
  telemetry::Tracer* tracer() const { return tracer_; }

  /// Modeled-time cursor for traced work: the instant the next traced
  /// matmul/batch starts.  The serve loop pins it to each batch's dispatch
  /// instant; traced calls advance it by their modeled makespan.
  void set_trace_time(double t) { trace_time_ = t; }
  double trace_time() const { return trace_time_; }

  /// Attaches a metrics registry (nullptr detaches).  The fleet publishes
  /// fleet_matmuls_total, fleet_tile_passes_total, fleet_adc_samples_total,
  /// fleet_psram_reloads_total, fleet_reload_seconds_total,
  /// fleet_plan_cache_{hits,misses}_total, fleet_recalibrations_total, and
  /// the fleet_max_abs_detuning_kelvin gauge.
  void set_metrics(telemetry::MetricsRegistry* metrics);
  telemetry::MetricsRegistry* metrics() const { return metrics_; }

  /// Fleet statistics accumulated since construction (or reset_stats()),
  /// with energy/power drawn from the live per-core ledgers.
  AcceleratorStats stats() const;

  /// Merged per-core energy ledger.
  circuit::EnergyLedger fleet_ledger() const;

  /// Total fleet power draw [W].
  double power() const;

  void reset_stats();

 private:
  /// Emits one batch's per-core pass/reload spans (pass_costs in the
  /// cold-first order batch_cost builds) starting at the cursor, and
  /// advances the cursor by the schedule makespan.
  void trace_batch_schedule(const Schedule& schedule,
                            const std::vector<double>& pass_costs,
                            double reload_s, std::size_t cold_count,
                            const char* label) const;

  void rebuild_active();

  AcceleratorConfig config_;
  std::vector<std::unique_ptr<core::TensorCore>> cores_;
  ThreadPool pool_;
  // Fault registry: health states, eviction set, and the active (scheduling)
  // rotation derived from it.
  std::vector<CoreHealth> health_;
  std::vector<std::uint8_t> evicted_;
  std::vector<std::size_t> active_;
  std::size_t faults_injected_ = 0;
  double sample_rate_ = 0.0;     ///< per-core ADC sample rate [Hz]
  double reload_latency_ = 0.0;  ///< modeled full-tile reload latency [s]
  AcceleratorStats stats_;
  nn::WeightPlanCache plan_cache_;  ///< weight plans for direct matmul calls
  // Drift state (empty / zero while drift is disabled).
  std::vector<optics::ThermalDrift> drift_;  ///< per-core OU detuning [K]
  std::vector<Rng> drift_rng_;               ///< per-core drift streams
  double clock_ = 0.0;                       ///< modeled fleet time [s]
  std::size_t recalibrations_ = 0;
  // Telemetry sinks (nullptr = the zero-overhead no-op path).  The cursor
  // is mutable because traced cost queries (batch_cost) stay const: they
  // mutate only the observer state, never the modeled device.
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  mutable double trace_time_ = 0.0;
};

}  // namespace ptc::runtime

#endif  // PTC_RUNTIME_ACCELERATOR_HPP
