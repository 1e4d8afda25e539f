#ifndef PTC_SIM_TRACE_HPP
#define PTC_SIM_TRACE_HPP

#include <map>
#include <string>
#include <vector>

/// Waveform recording for transient simulations (pSRAM writes, eoADC
/// conversions), with interpolated lookup and the CSV export the
/// verification figures are replotted from.
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
