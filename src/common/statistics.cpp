#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/expects.hpp"

namespace ptc {

double mean(const std::vector<double>& xs) {
  expects(!xs.empty(), "mean of empty sample");
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  expects(xs.size() >= 2, "stddev requires at least two samples");
  const double mu = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - mu) * (x - mu);
  return std::sqrt(sum / static_cast<double>(xs.size() - 1));
}

double min_of(const std::vector<double>& xs) {
  expects(!xs.empty(), "min of empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  expects(!xs.empty(), "max of empty sample");
  return *std::max_element(xs.begin(), xs.end());
}

double rms(const std::vector<double>& xs) {
  expects(!xs.empty(), "rms of empty sample");
  double sum = 0.0;
  for (double x : xs) sum += x * x;
  return std::sqrt(sum / static_cast<double>(xs.size()));
}

double percentile(const std::vector<double>& xs, double p) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(const std::vector<double>& sorted_xs, double p) {
  expects(!sorted_xs.empty(), "percentile of empty sample");
  expects(p >= 0.0 && p <= 100.0, "percentile requires p in [0, 100]");
  // Nearest rank ceil(p/100 * n), with a slack that absorbs the binary
  // representation error of p * n / 100 (e.g. 7 * 100 / 100 must stay rank
  // 7, not round up to 8 via 7.000000000000001).
  const double h = p * static_cast<double>(sorted_xs.size()) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(h - 1e-9));
  return sorted_xs[std::clamp<std::size_t>(rank, 1, sorted_xs.size()) - 1];
}

LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys) {
  expects(xs.size() == ys.size(), "linear_fit requires equal-length samples");
  expects(xs.size() >= 2, "linear_fit requires at least two points");
  const double n = static_cast<double>(xs.size());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  expects(sxx > 0.0, "linear_fit requires non-degenerate x values");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy > 0.0) {
    fit.r_squared = (sxy * sxy) / (sxx * syy);
  } else {
    fit.r_squared = 1.0;  // all ys equal: the fit is exact
  }
  (void)n;
  return fit;
}

}  // namespace ptc
