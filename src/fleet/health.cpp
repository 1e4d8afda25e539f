#include "fleet/health.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expects.hpp"

namespace ptc::fleet {

DriftEstimator::DriftEstimator(std::vector<double> kelvin,
                               std::vector<double> ratio) {
  expects(kelvin.size() == ratio.size() && kelvin.size() >= 2,
          "estimator curve needs >= 2 matched (kelvin, ratio) points");
  // Strictly increasing envelope: inversion must be unique, so points that
  // fail to raise the ratio (flat bottom of the resonance notch, sampling
  // noise near 0 K) collapse onto their predecessor.
  kelvin_.push_back(kelvin.front());
  ratio_.push_back(ratio.front());
  for (std::size_t i = 1; i < kelvin.size(); ++i) {
    expects(kelvin[i] > kelvin[i - 1],
            "estimator curve kelvin grid must be strictly increasing");
    if (ratio[i] > ratio_.back()) {
      kelvin_.push_back(kelvin[i]);
      ratio_.push_back(ratio[i]);
    }
  }
  expects(kelvin_.size() >= 2,
          "probe response curve is flat — probe row not detuning-sensitive");
}

DriftEstimator DriftEstimator::characterize(core::TensorCore& core,
                                            double max_kelvin,
                                            std::size_t points) {
  expects(max_kelvin > 0.0, "characterization range must be positive");
  expects(points >= 2, "characterization needs >= 2 points per branch");
  std::vector<double> grid(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid[i] = max_kelvin * static_cast<double>(i) /
              static_cast<double>(points - 1);
  }
  std::vector<double> mirrored(points);
  for (std::size_t i = 0; i < points; ++i) mirrored[i] = -grid[i];
  // Heating and cooling shift the rings in opposite spectral directions
  // but both walk the probe off resonance; the estimator reports |K|, so
  // the curve is the mean of the two signed branches.
  const std::vector<double> plus = core.probe_response_curve(grid);
  const std::vector<double> minus = core.probe_response_curve(mirrored);
  std::vector<double> ratio(points);
  for (std::size_t i = 0; i < points; ++i) {
    ratio[i] = 0.5 * (plus[i] + minus[i]);
  }
  return DriftEstimator(std::move(grid), std::move(ratio));
}

void DriftEstimator::reset() {
  estimate_ = 0.0;
  raw_ = 0.0;
  observations_ = 0;
  window_.clear();
}

double DriftEstimator::invert(double ratio) const {
  if (ratio <= ratio_.front()) return kelvin_.front();
  if (ratio >= ratio_.back()) return kelvin_.back();
  // First curve point at or above the reading; the envelope is strictly
  // increasing, so the bracketing segment interpolates uniquely.
  const auto it = std::lower_bound(ratio_.begin(), ratio_.end(), ratio);
  const std::size_t j = static_cast<std::size_t>(it - ratio_.begin());
  const double r0 = ratio_[j - 1];
  const double r1 = ratio_[j];
  const double f = (ratio - r0) / (r1 - r0);
  return kelvin_[j - 1] + f * (kelvin_[j] - kelvin_[j - 1]);
}

void DriftEstimator::observe(double t, double ratio) {
  raw_ = invert(ratio);
  estimate_ = observations_ == 0
                  ? raw_
                  : estimate_ + kEwmaAlpha * (raw_ - estimate_);
  ++observations_;
  window_.emplace_back(t, estimate_);
  while (window_.size() > kSlopeWindow) window_.pop_front();
}

double DriftEstimator::slope() const {
  if (window_.size() < 2) return 0.0;
  const double n = static_cast<double>(window_.size());
  double t_mean = 0.0;
  double y_mean = 0.0;
  for (const auto& [t, y] : window_) {
    t_mean += t;
    y_mean += y;
  }
  t_mean /= n;
  y_mean /= n;
  double num = 0.0;
  double den = 0.0;
  for (const auto& [t, y] : window_) {
    num += (t - t_mean) * (y - y_mean);
    den += (t - t_mean) * (t - t_mean);
  }
  return den > 0.0 ? num / den : 0.0;
}

void AnomalyDetector::reset() {
  window_.clear();
  sum_ = 0.0;
  sum_sq_ = 0.0;
  score_ = 0.0;
  anomalous_ = false;
  observations_ = 0;
  alarms_ = 0;
}

bool AnomalyDetector::observe(double /*t*/, double v) {
  ++observations_;
  bool detect = false;
  if (window_.size() >= kMinSamples) {
    // Score against the trailing window *before* this sample joins it, so
    // a step change cannot hide inside its own statistics.
    const double n = static_cast<double>(window_.size());
    const double mean = sum_ / n;
    const double var = std::max(0.0, sum_sq_ / n - mean * mean);
    const double sigma = std::max(std::sqrt(var), kMinSigma);
    score_ = std::abs(v - mean) / sigma;
    detect = score_ >= kThreshold;
  } else {
    score_ = 0.0;
  }
  window_.push_back(v);
  sum_ += v;
  sum_sq_ += v * v;
  if (window_.size() > kWindow) {
    const double old = window_.front();
    window_.pop_front();
    sum_ -= old;
    sum_sq_ -= old * old;
  }
  const bool rising = detect && !anomalous_;
  anomalous_ = detect;
  if (rising) ++alarms_;
  return rising;
}

namespace {

/// Characterization sweep range [K] and points per signed branch.
constexpr double kCurveMaxKelvin = 4.0;
constexpr std::size_t kCurvePoints = 33;

}  // namespace

FleetHealthMonitor::FleetHealthMonitor(runtime::Accelerator& accelerator)
    : accelerator_(accelerator) {
  estimators_.reserve(accelerator_.core_count());
  for (std::size_t i = 0; i < accelerator_.core_count(); ++i) {
    estimators_.push_back(DriftEstimator::characterize(
        accelerator_.core(i), kCurveMaxKelvin, kCurvePoints));
  }
  detectors_.resize(accelerator_.core_count());
  readings_.resize(accelerator_.core_count());
}

void FleetHealthMonitor::set_metrics(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

void FleetHealthMonitor::set_tracer(telemetry::Tracer* tracer) {
  tracer_ = tracer;
}

void FleetHealthMonitor::reset() {
  for (DriftEstimator& estimator : estimators_) estimator.reset();
  for (AnomalyDetector& detector : detectors_) detector.reset();
  readings_.assign(readings_.size(), SensorReading{});
  alerts_.clear();
  alerts_since_recalibration_ = 0;
  samples_taken_ = 0;
  last_sample_time_ = 0.0;
}

void FleetHealthMonitor::sample(double t) {
  ++samples_taken_;
  last_sample_time_ = t;
  for (std::size_t i = 0; i < estimators_.size(); ++i) {
    // An evicted core is out of the serving rotation: the sweep does not
    // probe it (its reading stays as it was), and its stale estimate cannot
    // drive fleet-wide recalibration.  Readmission resumes sampling where
    // it left off.
    if (accelerator_.core_evicted(i)) continue;
    core::TensorCore& core = accelerator_.core(i);
    const double ratio = core.probe_transmission();
    DriftEstimator& estimator = estimators_[i];
    estimator.observe(t, ratio);
    const double kelvin = estimator.estimate();
    // Heater duty the re-lock servo would command to cancel the estimated
    // detuning — the controller's own output, hence measurable.
    const double duty =
        std::min(1.0, heater_.heater_power_per_kelvin * kelvin /
                          heater_.max_heater_power);
    readings_[i] = {.probe_transmission = ratio,
                    .heater_duty = duty,
                    .psram_bit_flips = core.psram().bit_flips(),
                    .adc_saturation_rate = core.adc_saturation_rate()};

    if (metrics_ != nullptr) {
      const telemetry::LabelSet labels = {{"core", std::to_string(i)}};
      metrics_
          ->gauge("fleet_core_detuning_estimate", labels,
                  "sensor-derived |detuning| estimate per core [K]")
          .set(kelvin);
      metrics_
          ->gauge("fleet_core_probe_transmission", labels,
                  "pilot-tone probe transmission ratio per core")
          .set(ratio);
    }
    if (tracer_ != nullptr) {
      const int tid = telemetry::track::kCoreBase + static_cast<int>(i);
      tracer_->counter(tid, "probe_transmission", t, ratio);
      tracer_->counter(tid, "detuning_estimate_kelvin", t, kelvin);
    }

    AnomalyDetector& detector = detectors_[i];
    if (!detector.observe(t, ratio)) continue;
    HealthAlert alert;
    alert.time = t;
    alert.core = i;
    alert.name = "core" + std::to_string(i) + "-probe-anomaly";
    alert.value = ratio;
    alert.score = detector.score();
    ++alerts_since_recalibration_;
    if (tracer_ != nullptr) {
      tracer_->instant(telemetry::track::kServe, "health_alert", "slo", t,
                       {{"slo", alert.name.c_str()},
                        {"core", i},
                        {"value", ratio},
                        {"score", alert.score}});
    }
    if (metrics_ != nullptr) {
      metrics_
          ->counter("slo_alerts_total", {{"slo", alert.name}},
                    "multi-window burn-rate alert firings")
          .inc();
    }
    alerts_.push_back(std::move(alert));
  }
}

void FleetHealthMonitor::on_recalibration(double /*t*/) {
  // The re-lock pulls every probe back to ratio 1: estimator history and
  // anomaly baselines describe the pre-recalibration regime, so both
  // restart cleanly rather than chase a step change they caused.
  for (DriftEstimator& estimator : estimators_) estimator.reset();
  for (AnomalyDetector& detector : detectors_) detector.reset();
  alerts_since_recalibration_ = 0;
}

const DriftEstimator& FleetHealthMonitor::estimator(std::size_t core) const {
  expects(core < estimators_.size(), "core index out of range");
  return estimators_[core];
}

const AnomalyDetector& FleetHealthMonitor::detector(std::size_t core) const {
  expects(core < detectors_.size(), "core index out of range");
  return detectors_[core];
}

const SensorReading& FleetHealthMonitor::reading(std::size_t core) const {
  expects(core < readings_.size(), "core index out of range");
  return readings_[core];
}

double FleetHealthMonitor::estimate(std::size_t core) const {
  expects(core < estimators_.size(), "core index out of range");
  return estimators_[core].estimate();
}

double FleetHealthMonitor::max_estimate() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < estimators_.size(); ++i) {
    // Evicted cores keep their last estimate but are out of the rotation;
    // letting a stale reading trigger fleet-wide downtime would charge the
    // survivors for a core that is not even serving.
    if (accelerator_.core_evicted(i)) continue;
    worst = std::max(worst, estimators_[i].estimate());
  }
  return worst;
}

}  // namespace ptc::fleet
