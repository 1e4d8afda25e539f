#ifndef PTC_SIM_TRACE_HPP
#define PTC_SIM_TRACE_HPP

#include <map>
#include <optional>
#include <string>
#include <vector>

/// Waveform recording for transient simulations (pSRAM writes, eoADC
/// conversions) with the query helpers the verification figures need:
/// threshold crossings, settling checks, and CSV export.
namespace ptc::sim {

/// A single named waveform: (time, value) samples in non-decreasing time
/// order.
class Trace {
 public:
  void record(double t, double value);

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Linear interpolated value at time t (clamped to the record window).
  double value_at(double t) const;

  double final_value() const;
  double max_value() const;

  /// First time the waveform crosses `level` in the given direction at or
  /// after `t_after`; nullopt when it never does.
  std::optional<double> first_crossing(double level, bool rising,
                                       double t_after = 0.0) const;

  /// True when every sample at or after t_after stays within +-tol of level.
  bool settled_at(double level, double tol, double t_after) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// A bundle of named traces sharing a time axis (not enforced), with CSV
/// export for replotting the paper's transient figures.
class TraceSet {
 public:
  /// Returns the trace for `name`, creating it on first use.
  Trace& at(const std::string& name) { return traces_[name]; }

  /// Read-only lookup; throws std::invalid_argument for unknown names.
  const Trace& get(const std::string& name) const;

  bool contains(const std::string& name) const;

  /// Writes all traces resampled onto the union time axis as CSV columns.
  void write_csv(const std::string& path) const;

 private:
  std::map<std::string, Trace> traces_;
};

}  // namespace ptc::sim

#endif  // PTC_SIM_TRACE_HPP
