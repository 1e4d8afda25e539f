#ifndef PTC_COMMON_STATISTICS_HPP
#define PTC_COMMON_STATISTICS_HPP

#include <vector>

/// Descriptive statistics and least-squares fitting, used by the Fig. 7
/// linearity analysis, ADC DNL/INL extraction and the Monte-Carlo benches.
namespace ptc {

/// Arithmetic mean.  Requires a non-empty sample.
double mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator).  Requires size >= 2.
double stddev(const std::vector<double>& xs);

/// Minimum element.  Requires a non-empty sample.
double min_of(const std::vector<double>& xs);

/// Maximum element.  Requires a non-empty sample.
double max_of(const std::vector<double>& xs);

/// Root-mean-square of a sample.  Requires a non-empty sample.
double rms(const std::vector<double>& xs);

/// Nearest-rank percentile: the smallest element such that at least p% of
/// the sample is <= it (p in [0, 100]; p = 0 returns the minimum).  A
/// single-element sample returns that element for every p.  Requires a
/// non-empty sample.  Used for the serve-layer p50/p95/p99 reporting.
double percentile(const std::vector<double>& xs, double p);

/// percentile() for a sample already sorted ascending — lets callers that
/// extract several percentiles pay for one sort.
double percentile_sorted(const std::vector<double>& sorted_xs, double p);

/// Least-squares straight-line fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination in [0, 1]
};

/// Fits a line through (xs, ys); both vectors must have equal length >= 2.
LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace ptc

#endif  // PTC_COMMON_STATISTICS_HPP
