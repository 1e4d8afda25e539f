#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "common/expects.hpp"
#include "common/json.hpp"

namespace ptc::telemetry {

Histogram::Histogram(const HistogramOptions& options) : options_(options) {
  expects(options_.min > 0.0, "histogram min must be positive");
  expects(options_.max > options_.min, "histogram max must exceed min");
  expects(options_.buckets_per_decade >= 1,
          "histogram needs at least one bucket per decade");
  const double decades = std::log10(options_.max / options_.min);
  const std::size_t n = static_cast<std::size_t>(std::ceil(
      decades * static_cast<double>(options_.buckets_per_decade) - 1e-9));
  buckets_.assign(n, 0);
}

double Histogram::bucket_upper_edge(std::size_t i) const {
  return options_.min *
         std::pow(10.0, static_cast<double>(i + 1) /
                            static_cast<double>(options_.buckets_per_decade));
}

double Histogram::bucket_width_ratio() const {
  return std::pow(10.0,
                  1.0 / static_cast<double>(options_.buckets_per_decade));
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;

  if (v < options_.min) {
    ++underflow_;
    return;
  }
  // Log-position, then a fix-up pass against the exact edge formula so
  // values landing on (or within one ulp of) a bucket boundary bin
  // consistently: bucket i covers [edge(i-1), edge(i)).
  double idx = std::floor(std::log10(v / options_.min) *
                          static_cast<double>(options_.buckets_per_decade));
  if (idx < 0.0) idx = 0.0;
  std::size_t i = static_cast<std::size_t>(idx);
  if (i >= buckets_.size()) i = buckets_.size() - 1;
  while (i > 0 && v < bucket_upper_edge(i - 1)) --i;
  while (i < buckets_.size() && v >= bucket_upper_edge(i)) ++i;
  if (i >= buckets_.size()) {
    ++overflow_;
    return;
  }
  ++buckets_[i];
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  expects(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_) - 1e-9));

  const auto clamp = [this](double v) {
    if (v < min_) return min_;
    if (v > max_) return max_;
    return v;
  };

  std::uint64_t cumulative = underflow_;
  if (rank <= cumulative) return clamp(options_.min);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (rank <= cumulative) return clamp(bucket_upper_edge(i));
  }
  return max_;  // overflow bucket: the exact max is the best statement
}

namespace {

/// Prometheus text-format label value escaping: backslash, double quote,
/// and line feed must be escaped; everything else passes through.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Canonical form: sorted by key, duplicate keys rejected.
LabelSet canonicalize(const LabelSet& labels) {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    expects(sorted[i].first != sorted[i + 1].first,
            "duplicate label key in metric label set");
  }
  for (const auto& [key, value] : sorted) {
    expects(!key.empty(), "metric label key must be non-empty");
  }
  return sorted;
}

}  // namespace

std::string render_labels(const LabelSet& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first;
    out += "=\"";
    out += escape_label_value(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::entry_of_kind(const std::string& name,
                                                       const char* kind) {
  Entry& entry = entries_[name];
  const bool is_counter =
      entry.counter != nullptr || !entry.counter_children.empty();
  const bool is_gauge =
      entry.gauge != nullptr || !entry.gauge_children.empty();
  const bool is_histogram =
      entry.histogram != nullptr || !entry.histogram_children.empty();
  const std::string_view want(kind);
  expects((want == "counter" || !is_counter) &&
              (want == "gauge" || !is_gauge) &&
              (want == "histogram" || !is_histogram),
          "metric name already registered with a different kind");
  return entry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  Entry& entry = entry_of_kind(name, "counter");
  if (entry.counter == nullptr) {
    entry.counter = std::make_unique<Counter>();
    if (!help.empty() && entry.help.empty()) entry.help = help;
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  Entry& entry = entry_of_kind(name, "gauge");
  if (entry.gauge == nullptr) {
    entry.gauge = std::make_unique<Gauge>();
    if (!help.empty() && entry.help.empty()) entry.help = help;
  }
  return *entry.gauge;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels,
                                  const std::string& help) {
  Entry& entry = entry_of_kind(name, "counter");
  LabelSet canonical = canonicalize(labels);
  auto& child = entry.counter_children[render_labels(canonical)];
  if (child.instrument == nullptr) {
    child.labels = std::move(canonical);
    child.instrument = std::make_unique<Counter>();
    if (!help.empty() && entry.help.empty()) entry.help = help;
  }
  return *child.instrument;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels,
                              const std::string& help) {
  Entry& entry = entry_of_kind(name, "gauge");
  LabelSet canonical = canonicalize(labels);
  auto& child = entry.gauge_children[render_labels(canonical)];
  if (child.instrument == nullptr) {
    child.labels = std::move(canonical);
    child.instrument = std::make_unique<Gauge>();
    if (!help.empty() && entry.help.empty()) entry.help = help;
  }
  return *child.instrument;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const HistogramOptions& options) {
  Entry& entry = entry_of_kind(name, "histogram");
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(options);
    if (!help.empty() && entry.help.empty()) entry.help = help;
  }
  return *entry.histogram;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels,
                                      const std::string& help,
                                      const HistogramOptions& options) {
  Entry& entry = entry_of_kind(name, "histogram");
  LabelSet canonical = canonicalize(labels);
  auto& child = entry.histogram_children[render_labels(canonical)];
  if (child.instrument == nullptr) {
    child.labels = std::move(canonical);
    child.instrument = std::make_unique<Histogram>(options);
    if (!help.empty() && entry.help.empty()) entry.help = help;
  }
  return *child.instrument;
}

bool MetricsRegistry::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

bool MetricsRegistry::contains(const std::string& name,
                               const LabelSet& labels) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  const std::string key = render_labels(canonicalize(labels));
  return it->second.counter_children.count(key) > 0 ||
         it->second.gauge_children.count(key) > 0 ||
         it->second.histogram_children.count(key) > 0;
}

std::vector<LabelSet> MetricsRegistry::label_sets(
    const std::string& name) const {
  std::vector<LabelSet> out;
  const auto it = entries_.find(name);
  if (it == entries_.end()) return out;
  for (const auto& [key, child] : it->second.counter_children) {
    out.push_back(child.labels);
  }
  for (const auto& [key, child] : it->second.gauge_children) {
    out.push_back(child.labels);
  }
  for (const auto& [key, child] : it->second.histogram_children) {
    out.push_back(child.labels);
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) {
      out << "# HELP " << name << " " << entry.help << "\n";
    }
    if (entry.counter != nullptr || !entry.counter_children.empty()) {
      out << "# TYPE " << name << " counter\n";
      if (entry.counter != nullptr) {
        out << name << " " << json::format_number(entry.counter->value())
            << "\n";
      }
      for (const auto& [selector, child] : entry.counter_children) {
        out << name << selector << " "
            << json::format_number(child.instrument->value()) << "\n";
      }
    } else if (entry.gauge != nullptr || !entry.gauge_children.empty()) {
      out << "# TYPE " << name << " gauge\n";
      if (entry.gauge != nullptr) {
        out << name << " " << json::format_number(entry.gauge->value())
            << "\n";
      }
      for (const auto& [selector, child] : entry.gauge_children) {
        out << name << selector << " "
            << json::format_number(child.instrument->value()) << "\n";
      }
    } else if (entry.histogram != nullptr ||
               !entry.histogram_children.empty()) {
      out << "# TYPE " << name << " histogram\n";
      // Cumulative buckets, empty ones elided to keep the exposition small
      // (the +Inf series always carries the total).  `prefix` carries a
      // child's labels into every bucket selector (`{core="0",le="..."}`)
      // and onto its _sum/_count samples.
      const auto write_histogram = [&out, &name](const Histogram& h,
                                                 const std::string& prefix) {
        std::uint64_t cumulative = h.underflow();
        if (cumulative > 0) {
          out << name << "_bucket{" << prefix << "le=\""
              << json::format_number(h.options().min) << "\"} " << cumulative
              << "\n";
        }
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          if (h.bucket(i) == 0) continue;
          cumulative += h.bucket(i);
          out << name << "_bucket{" << prefix << "le=\""
              << json::format_number(h.bucket_upper_edge(i)) << "\"} "
              << cumulative << "\n";
        }
        out << name << "_bucket{" << prefix << "le=\"+Inf\"} " << h.count()
            << "\n";
        // `{` + prefix without its trailing comma + `}`, built by appends:
        // the equivalent operator+ chain trips GCC 12's -Wrestrict.
        std::string selector;
        if (!prefix.empty()) {
          selector += '{';
          selector.append(prefix, 0, prefix.size() - 1);
          selector += '}';
        }
        out << name << "_sum" << selector << " "
            << json::format_number(h.sum()) << "\n";
        out << name << "_count" << selector << " " << h.count() << "\n";
      };
      if (entry.histogram != nullptr) {
        write_histogram(*entry.histogram, "");
      }
      for (const auto& [selector, child] : entry.histogram_children) {
        // render_labels gives `{k="v",...}`; the bucket prefix is the
        // interior plus a trailing comma before the `le` label.
        std::string prefix = selector.substr(1, selector.size() - 2);
        if (!prefix.empty()) prefix += ",";
        write_histogram(*child.instrument, prefix);
      }
    }
  }
  return out.str();
}

namespace {

std::string labels_json(const LabelSet& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ", ";
    out += json::quote(labels[i].first);
    out += ": ";
    out += json::quote(labels[i].second);
  }
  out += "}";
  return out;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr || !entry.counter_children.empty()) {
      counters << (first_c ? "" : ", ") << json::quote(name) << ": {";
      bool wrote = false;
      if (entry.counter != nullptr) {
        counters << "\"value\": "
                 << json::format_number(entry.counter->value());
        wrote = true;
      }
      if (!entry.counter_children.empty()) {
        counters << (wrote ? ", " : "") << "\"series\": [";
        bool first_s = true;
        for (const auto& [selector, child] : entry.counter_children) {
          counters << (first_s ? "" : ", ") << "{\"labels\": "
                   << labels_json(child.labels) << ", \"value\": "
                   << json::format_number(child.instrument->value()) << "}";
          first_s = false;
        }
        counters << "]";
      }
      counters << "}";
      first_c = false;
    } else if (entry.gauge != nullptr || !entry.gauge_children.empty()) {
      gauges << (first_g ? "" : ", ") << json::quote(name) << ": {";
      bool wrote = false;
      if (entry.gauge != nullptr) {
        gauges << "\"value\": " << json::format_number(entry.gauge->value())
               << ", \"max\": " << json::format_number(entry.gauge->max());
        wrote = true;
      }
      if (!entry.gauge_children.empty()) {
        gauges << (wrote ? ", " : "") << "\"series\": [";
        bool first_s = true;
        for (const auto& [selector, child] : entry.gauge_children) {
          gauges << (first_s ? "" : ", ") << "{\"labels\": "
                 << labels_json(child.labels) << ", \"value\": "
                 << json::format_number(child.instrument->value())
                 << ", \"max\": "
                 << json::format_number(child.instrument->max()) << "}";
          first_s = false;
        }
        gauges << "]";
      }
      gauges << "}";
      first_g = false;
    } else if (entry.histogram != nullptr ||
               !entry.histogram_children.empty()) {
      const auto summary_json = [](const Histogram& h) {
        std::string out = "\"count\": " + std::to_string(h.count());
        out += ", \"sum\": " + json::format_number(h.sum());
        out += ", \"min\": " + json::format_number(h.min_value());
        out += ", \"max\": " + json::format_number(h.max_value());
        out += ", \"p50\": " + json::format_number(h.percentile(50.0));
        out += ", \"p95\": " + json::format_number(h.percentile(95.0));
        out += ", \"p99\": " + json::format_number(h.percentile(99.0));
        return out;
      };
      histograms << (first_h ? "" : ", ") << json::quote(name) << ": {";
      bool wrote = false;
      if (entry.histogram != nullptr) {
        histograms << summary_json(*entry.histogram);
        wrote = true;
      }
      if (!entry.histogram_children.empty()) {
        histograms << (wrote ? ", " : "") << "\"series\": [";
        bool first_s = true;
        for (const auto& [selector, child] : entry.histogram_children) {
          histograms << (first_s ? "" : ", ") << "{\"labels\": "
                     << labels_json(child.labels) << ", "
                     << summary_json(*child.instrument) << "}";
          first_s = false;
        }
        histograms << "]";
      }
      histograms << "}";
      first_h = false;
    }
  }
  std::ostringstream out;
  out << "{\n  \"counters\": {" << counters.str() << "},\n  \"gauges\": {"
      << gauges.str() << "},\n  \"histograms\": {" << histograms.str()
      << "}\n}\n";
  return out.str();
}

}  // namespace ptc::telemetry
