#include "circuit/comparator.hpp"

#include "common/expects.hpp"

namespace ptc::circuit {

Comparator::Comparator(const ComparatorConfig& config, Rng& rng)
    : config_(config) {
  expects(config.offset_sigma >= 0.0, "offset sigma must be >= 0");
  offset_ = rng.normal(0.0, config.offset_sigma);
}

Comparator::Comparator(const ComparatorConfig& config) : config_(config) {
  expects(config.offset_sigma >= 0.0, "offset sigma must be >= 0");
}

bool Comparator::decide(double v_in, double v_ref) const {
  return v_in > v_ref + offset_;
}

bool Comparator::decide(double v_in, double v_ref, Rng& noise_rng) const {
  const double noise = noise_rng.normal(0.0, config_.noise_sigma);
  return v_in + noise > v_ref + offset_;
}

}  // namespace ptc::circuit
