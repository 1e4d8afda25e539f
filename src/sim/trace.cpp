#include "sim/trace.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/expects.hpp"
#include "common/interp.hpp"

namespace ptc::sim {

void Trace::record(double t, double value) {
  expects(times_.empty() || t >= times_.back(),
          "trace samples must be recorded in time order");
  times_.push_back(t);
  values_.push_back(value);
}

double Trace::value_at(double t) const {
  expects(!times_.empty(), "trace is empty");
  if (times_.size() == 1 || t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  return interp_table(times_, values_, t);
}

double Trace::final_value() const {
  expects(!values_.empty(), "trace is empty");
  return values_.back();
}

double Trace::max_value() const {
  expects(!values_.empty(), "trace is empty");
  return *std::max_element(values_.begin(), values_.end());
}

const Trace& TraceSet::get(const std::string& name) const {
  const auto it = traces_.find(name);
  if (it == traces_.end())
    throw std::invalid_argument("unknown trace: " + name);
  return it->second;
}

bool TraceSet::contains(const std::string& name) const {
  return traces_.find(name) != traces_.end();
}

void TraceSet::write_csv(const std::string& path) const {
  expects(!traces_.empty(), "no traces to write");
  std::set<double> time_axis;
  for (const auto& [name, trace] : traces_) {
    time_axis.insert(trace.times().begin(), trace.times().end());
  }
  std::vector<std::string> columns{"time"};
  for (const auto& [name, trace] : traces_) columns.push_back(name);
  CsvWriter csv(columns);
  for (double t : time_axis) {
    std::vector<double> row{t};
    for (const auto& [name, trace] : traces_) row.push_back(trace.value_at(t));
    csv.add_row(row);
  }
  csv.write_file(path);
}

}  // namespace ptc::sim
