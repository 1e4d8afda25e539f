#ifndef PTC_TELEMETRY_METRICS_HPP
#define PTC_TELEMETRY_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

/// Uniform metrics spine for the simulator: counters, gauges, and
/// fixed-bucket log-scale histograms behind one registry, exported as
/// Prometheus-style text (the console's METR:PROM?).  Any layer can publish
/// into it.  It sits beside the exact tallies (AcceleratorStats, the
/// serving reports) rather than replacing them, and every quantile the
/// program prints is exact nearest-rank over those records
/// (statistics::percentile), never an estimate from these buckets.
///
/// Counters, gauges, and histograms also come in *labeled families*: the
/// same metric name fanned out across label sets
/// (`serve_tenant_energy_joules_total{tenant="mobile",model="cnn"}`,
/// `serve_trigger_lag_seconds{core="3"}`), which is what lets the serving
/// layer attribute cost per tenant x model and the fleet per core without
/// inventing one metric name per dimension value.
///
/// Determinism contract: metrics are only ever mutated from the simulation's
/// event-loop / calling thread (never from pool workers), values are modeled
/// quantities (hardware time, counts), and exposition iterates registry maps
/// in sorted-name order — so the exported text is bit-stable across runs and
/// across host thread counts.
namespace ptc::telemetry {

/// Monotonically increasing tally.
class Counter {
 public:
  void inc(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket log-scale histogram geometry: `buckets_per_decade` equal
/// log-width buckets per power of ten spanning [min, max), plus an
/// underflow bucket (v < min, where all zero samples land) and an overflow
/// bucket (v >= max).
struct HistogramOptions {
  double min = 1e-10;  ///< lower edge of the first finite bucket
  double max = 1.0;    ///< upper edge of the last finite bucket
  std::size_t buckets_per_decade = 32;  ///< ~7.5% bucket width
};

/// Log-scale histogram with O(buckets) memory regardless of sample count.
/// count and sum are exact; the buckets are what the exposition exports.
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options = {});

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  const HistogramOptions& options() const { return options_; }
  /// Finite buckets only (underflow/overflow excluded).
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  /// Upper edge of finite bucket i: min * 10^((i+1)/buckets_per_decade).
  double bucket_upper_edge(std::size_t i) const;

 private:
  HistogramOptions options_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One metric label set: key -> value pairs.  Accessor calls may pass keys
/// in any order; the registry canonicalizes (sorts by key) so
/// `{{"a","1"},{"b","2"}}` and `{{"b","2"},{"a","1"}}` address the same
/// child.  Duplicate keys are an error.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Renders a canonical (sorted) label set as the Prometheus selector
/// `{key="value",...}` with value escaping (`\\`, `\"`, `\n`) — also the
/// registry's internal child key, so exposition order is deterministic.
std::string render_labels(const LabelSet& labels);

/// Named metrics store.  Accessors create on first use and return stable
/// references (instruments never move once created); names should follow
/// Prometheus conventions (snake_case, `_total` suffix on counters).
///
/// A name has one kind (mixing kinds is an error) and holds a plain
/// instrument, labeled children, or both, as in the text-exposition data
/// model; the plain sample exports first.  A histogram name's geometry is
/// fixed by its first call.  A rejected call leaves the registry unchanged.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       const HistogramOptions& options = {});

  /// Labeled children: one instrument per distinct label set under `name`.
  Counter& counter(const std::string& name, const LabelSet& labels,
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const LabelSet& labels,
               const std::string& help = "");
  /// Labeled histogram family (e.g. per-core trigger-lag distributions).
  /// Options are fixed by the first call under `name`.
  Histogram& histogram(const std::string& name, const LabelSet& labels,
                       const std::string& help = "",
                       const HistogramOptions& options = {});

  /// True when `name` exists as any instrument kind.
  bool contains(const std::string& name) const;
  /// True when `name` has a child for exactly this label set.
  bool contains(const std::string& name, const LabelSet& labels) const;

  /// Prometheus text exposition format (sorted by name): counters and
  /// gauges as single samples (labeled children as `name{k="v",...}`
  /// series, escaped per the text-format spec), histograms as cumulative
  /// `_bucket{le=...}` series plus `_sum` and `_count`.
  std::string prometheus_text() const;

 private:
  /// Every child of one name holds the same alternative: the name's kind.
  using Instrument = std::variant<Counter, Gauge, Histogram>;
  struct Entry {
    std::size_t kind = 0;  ///< Instrument::index() of every child
    std::string help;
    HistogramOptions options;  ///< histogram geometry, fixed by the first call
    /// Keyed by render_labels() of the canonical set; the plain instrument
    /// is keyed "", so it sorts (and exports) before every selector.
    std::map<std::string, Instrument> children;
  };

  /// Finds or creates `name`'s child for `labels` (nullptr: the plain
  /// instrument).  A rejected call leaves the table unchanged.
  template <typename T>
  T& lookup(const std::string& name, const LabelSet* labels,
            const std::string& help, const HistogramOptions& options = {});

  std::map<std::string, Entry> entries_;
};

}  // namespace ptc::telemetry

#endif  // PTC_TELEMETRY_METRICS_HPP
