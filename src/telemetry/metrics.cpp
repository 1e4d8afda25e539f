#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <type_traits>

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

void Histogram::observe(double v) {
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

template <typename T>
constexpr std::size_t kKindIndex = std::is_same_v<T, Counter> ? 0
                                   : std::is_same_v<T, Gauge> ? 1
                                                               : 2;
constexpr const char* kKindNames[] = {"counter", "gauge", "histogram"};

template <typename T>
T make_instrument(const HistogramOptions& options) {
  if constexpr (std::is_same_v<T, Histogram>) return Histogram(options);
  else return T{};
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

/// One counter or gauge sample: `name{k="v",...} value`.
template <typename T>
void write_samples(std::ostream& out, const std::string& name,
                   const std::string& selector, const T& instrument) {
  out << name << selector << " " << json::format_number(instrument.value())
      << "\n";
}

/// Cumulative buckets, empty ones elided to keep the exposition small (the
/// +Inf series always carries the total).  A child's labels join every
/// bucket selector (`{core="0",le="..."}`) and label its _sum/_count; the
/// plain instrument and an empty label set both print them bare.
void write_samples(std::ostream& out, const std::string& name,
                   const std::string& selector, const Histogram& h) {
  const bool bare = selector.size() <= 2;  // "" or "{}"
  std::string bucket = name + "_bucket{";
  if (!bare) bucket.append(selector, 1, selector.size() - 2) += ',';
  bucket += "le=\"";
  std::uint64_t cumulative = h.underflow();
  if (cumulative > 0) {
    out << bucket << json::format_number(h.options().min) << "\"} "
        << cumulative << "\n";
  }
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) == 0) continue;
    cumulative += h.bucket(i);
    out << bucket << json::format_number(h.bucket_upper_edge(i)) << "\"} "
        << cumulative << "\n";
  }
  out << bucket << "+Inf\"} " << h.count() << "\n";
  const std::string tail = bare ? "" : selector;
  out << name << "_sum" << tail << " " << json::format_number(h.sum()) << "\n";
  out << name << "_count" << tail << " " << h.count() << "\n";
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

template <typename T>
T& MetricsRegistry::lookup(const std::string& name, const LabelSet* labels,
                           const std::string& help,
                           const HistogramOptions& options) {
  // Validate before touching the table, so a rejected call changes nothing.
  const std::string key =
      labels != nullptr ? render_labels(canonicalize(*labels)) : "";
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    expects(it->second.kind == kKindIndex<T>,
            "metric name already registered with a different kind");
    const auto found = it->second.children.find(key);
    if (found != it->second.children.end()) {
      return std::get<T>(found->second);
    }
  }
  // Build the instrument (a new name's geometry is checked here) before the
  // table changes; an existing name keeps the geometry its first call set.
  Instrument instrument = make_instrument<T>(
      it != entries_.end() ? it->second.options : options);
  if (it == entries_.end()) {
    it = entries_.emplace(name, Entry{kKindIndex<T>, "", options, {}}).first;
  }
  if (it->second.help.empty()) it->second.help = help;
  return std::get<T>(
      it->second.children.emplace(key, std::move(instrument)).first->second);
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  return lookup<Counter>(name, nullptr, help);
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  return lookup<Gauge>(name, nullptr, help);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const HistogramOptions& options) {
  return lookup<Histogram>(name, nullptr, help, options);
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels,
                                  const std::string& help) {
  return lookup<Counter>(name, &labels, help);
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels,
                              const std::string& help) {
  return lookup<Gauge>(name, &labels, help);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels,
                                      const std::string& help,
                                      const HistogramOptions& options) {
  return lookup<Histogram>(name, &labels, help, options);
}

bool MetricsRegistry::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

bool MetricsRegistry::contains(const std::string& name,
                               const LabelSet& labels) const {
  const auto it = entries_.find(name);
  return it != entries_.end() &&
         it->second.children.count(render_labels(canonicalize(labels))) > 0;
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) {
      out << "# HELP " << name << " " << entry.help << "\n";
    }
    out << "# TYPE " << name << " " << kKindNames[entry.kind] << "\n";
    for (const auto& [selector, instrument] : entry.children) {
      std::visit([&](const auto& m) { write_samples(out, name, selector, m); },
                 instrument);
    }
  }
  return out.str();
}

}  // namespace ptc::telemetry
