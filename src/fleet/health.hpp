#ifndef PTC_FLEET_HEALTH_HPP
#define PTC_FLEET_HEALTH_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "optics/thermal.hpp"
#include "runtime/accelerator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

/// Fleet health monitoring: per-core sensor channels sampled on modeled
/// time, online estimators that reconstruct thermal drift from what a real
/// deployment can measure, and rising-edge anomaly alerting — the
/// observability half of fault-tolerant fleet operations.
///
/// The point of this layer is what it does NOT read: the simulator's oracle
/// detuning (`Accelerator::max_abs_detuning`).  Every input is a physical
/// measurable — pilot-tone probe transmission through each core's reserved
/// calibration row, calibration epochs, pSRAM bit-flip counters, ADC
/// saturation rates — and the serving loop's `estimated_drift_threshold`
/// trigger closes the recalibration loop on the *estimate* alone.  The
/// oracle stays available to benches and tests as ground truth to score the
/// estimator against.
///
/// Determinism contract: sampling happens from the Server's event loop at
/// modeled instants, estimator state is a pure function of the observed
/// (t, value) sequence, and per-core iteration is in core order — so
/// estimates, alerts, and exports are bit-identical across host thread
/// counts.
namespace ptc::fleet {

/// Maps probe-transmission ratios back to estimated |detuning| [K] through
/// a measured characterization curve (core::TensorCore::probe_response_curve
/// swept at build time), then EWMA-smooths and tracks the drift slope.
///
/// The curve is the *averaged* response of the two signed branches
/// (heating and cooling detune the rings in opposite spectral directions
/// but raise the probe transmission on both), reduced to its strictly
/// increasing envelope so inversion is unique; readings are clamped to the
/// characterized range.
class DriftEstimator {
 public:
  /// EWMA smoothing factor on the inverted kelvin estimate.
  static constexpr double kEwmaAlpha = 0.35;
  /// Trailing (t, estimate) samples the least-squares slope is fit over.
  static constexpr std::size_t kSlopeWindow = 8;

  /// `kelvin` ascending from 0; `ratio` the probe transmission at each
  /// point.  Points that do not strictly increase the ratio are dropped
  /// (monotone envelope).
  DriftEstimator(std::vector<double> kelvin, std::vector<double> ratio);

  /// Builds a core's estimator by sweeping its probe row over
  /// [-max_kelvin, +max_kelvin] in `points` steps per branch and averaging
  /// the branches.
  static DriftEstimator characterize(core::TensorCore& core,
                                     double max_kelvin, std::size_t points);

  /// Forgets the EWMA / slope state (post-recalibration re-lock).
  void reset();

  /// One probe reading at modeled time `t`.
  void observe(double t, double ratio);

  /// Raw curve inversion of a ratio — exposed for tests and the console.
  double invert(double ratio) const;

  /// EWMA-smoothed |detuning| estimate [K] (0 before any observation).
  double estimate() const { return estimate_; }
  /// Last un-smoothed inversion [K].
  double raw() const { return raw_; }
  /// Least-squares d|detuning|/dt over the slope window [K/s].
  double slope() const;
  std::uint64_t observations() const { return observations_; }

  const std::vector<double>& curve_kelvin() const { return kelvin_; }

 private:
  std::vector<double> kelvin_;  ///< strictly-increasing-ratio envelope
  std::vector<double> ratio_;
  double estimate_ = 0.0;
  double raw_ = 0.0;
  std::uint64_t observations_ = 0;
  std::deque<std::pair<double, double>> window_;  ///< (t, estimate)
};

/// Online change detection over one scalar channel: a rolling z-score,
/// |value - window mean| / window std.  observe() returns true only on the
/// *rising edge* of the anomaly condition — the alerting convention SLO
/// monitors use, so firings plug into the same plumbing.
class AnomalyDetector {
 public:
  /// Rolling-window length.
  static constexpr std::size_t kWindow = 32;
  /// Observations required before any detection fires.
  static constexpr std::size_t kMinSamples = 8;
  /// Detection threshold [window standard deviations].
  static constexpr double kThreshold = 4.0;
  /// Variance floor so a perfectly flat window cannot divide by zero.
  static constexpr double kMinSigma = 1e-12;

  void reset();

  /// One sample; returns true when this observation newly trips detection.
  bool observe(double t, double v);

  /// True while the detection condition held at the last observation.
  bool anomalous() const { return anomalous_; }
  /// Last |z| score [sigmas].
  double score() const { return score_; }
  std::uint64_t alarms() const { return alarms_; }
  std::uint64_t observations() const { return observations_; }

 private:
  std::deque<double> window_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double score_ = 0.0;
  bool anomalous_ = false;
  std::uint64_t alarms_ = 0;
  std::uint64_t observations_ = 0;
};

/// One rising-edge health alert.
struct HealthAlert {
  double time = 0.0;     ///< modeled sample instant
  std::size_t core = 0;  ///< core whose channel tripped
  std::string name;      ///< alert name (the `slo` label on exports)
  double value = 0.0;    ///< channel reading at the firing
  double score = 0.0;    ///< detector statistic [sigmas]
};

/// One core's readings from the last sensor sweep that probed it — what
/// FLEET:CORE<n>:HEALth? prints.  All zero before the first sweep and
/// after reset(); left as they were while the core is evicted.
struct SensorReading {
  double probe_transmission = 0.0;  ///< pilot-tone probe ratio
  double heater_duty = 0.0;  ///< re-lock servo duty for the estimate, [0, 1]
  std::uint64_t psram_bit_flips = 0;  ///< cumulative pSRAM bit flips
  double adc_saturation_rate = 0.0;
};

/// Owns the per-core sensor readings, estimators, and detectors; the
/// Server samples it at the policy's probe cadence and consults
/// max_estimate() for the oracle-free recalibration trigger.  The operator
/// console answers FLEET:CORE<n>:HEALth? / HEALth:ALERts? from it.
class FleetHealthMonitor {
 public:
  /// ADC sample windows each core's probe burns per sensor sweep — what
  /// the serving loop bills through runtime::Accelerator::probe_cost.
  static constexpr std::size_t kProbeSamples = 4;

  /// Characterizes every core's probe response curve (a device property,
  /// kept across reset()).
  explicit FleetHealthMonitor(runtime::Accelerator& accelerator);

  /// Telemetry sinks (nullptr detaches).  While attached, every sample
  /// publishes fleet_core_detuning_estimate{core} /
  /// fleet_core_probe_transmission{core} gauges and per-core trace counter
  /// tracks; alert firings emit `health_alert` instants and
  /// slo_alerts_total{slo} counters through the SLO plumbing.
  void set_metrics(telemetry::MetricsRegistry* metrics);
  void set_tracer(telemetry::Tracer* tracer);

  /// Forgets run state: estimators, detectors, readings, alerts.  The
  /// characterization curves persist — they are device properties.
  void reset();

  /// One sensor sweep across the fleet at modeled time `t`: takes each
  /// in-rotation core's reading (probe transmission, heater duty, pSRAM
  /// bit flips, ADC saturation rate), updates its estimator and detector,
  /// and publishes to the attached sinks.  Reads sensors only — never the
  /// oracle detuning.
  void sample(double t);

  /// The serving loop recalibrated at `t`: estimator and detector state
  /// resets (the probe re-locks to ratio 1), pending anomaly flags clear.
  void on_recalibration(double t);

  std::size_t core_count() const { return estimators_.size(); }
  const DriftEstimator& estimator(std::size_t core) const;
  const AnomalyDetector& detector(std::size_t core) const;
  const SensorReading& reading(std::size_t core) const;

  /// EWMA |detuning| estimate for one core / the worst across the fleet
  /// [K] — the Server's estimated_drift_threshold trigger input.  The max
  /// skips evicted cores: a core out of the serving rotation must not
  /// trigger fleet-wide recalibration downtime.
  double estimate(std::size_t core) const;
  double max_estimate() const;

  /// Sweeps performed since reset().
  std::uint64_t samples_taken() const { return samples_taken_; }
  /// Modeled time of the last sweep (0 before any).
  double last_sample_time() const { return last_sample_time_; }

  const std::vector<HealthAlert>& alerts() const { return alerts_; }
  std::uint64_t alerts_since_recalibration() const {
    return alerts_since_recalibration_;
  }

 private:
  runtime::Accelerator& accelerator_;
  std::vector<DriftEstimator> estimators_;
  std::vector<AnomalyDetector> detectors_;
  std::vector<SensorReading> readings_;
  std::vector<HealthAlert> alerts_;
  std::uint64_t alerts_since_recalibration_ = 0;
  std::uint64_t samples_taken_ = 0;
  double last_sample_time_ = 0.0;
  optics::ThermalTunerConfig heater_;  ///< duty model for heater_duty
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
};

}  // namespace ptc::fleet

#endif  // PTC_FLEET_HEALTH_HPP
