#include "core/fault.hpp"

#include <unordered_set>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ptc::core {

std::vector<RingFaultSite> sample_ring_faults(std::size_t rows,
                                              std::size_t cols, unsigned bits,
                                              std::size_t count,
                                              std::uint64_t seed) {
  expects(rows >= 1 && cols >= 1 && bits >= 1, "array must be non-empty");
  const std::size_t total = rows * cols * bits;
  if (count > total) count = total;
  Rng rng(seed);
  std::unordered_set<std::size_t> used;
  std::vector<RingFaultSite> sites;
  sites.reserve(count);
  while (sites.size() < count) {
    const std::size_t flat = rng.below(total);
    if (!used.insert(flat).second) continue;
    RingFaultSite site;
    site.bit = static_cast<unsigned>(flat % bits);
    site.col = (flat / bits) % cols;
    site.row = flat / (bits * cols);
    site.kind = (sites.size() % 2 == 0) ? RingFaultKind::kStuckOn
                                        : RingFaultKind::kStuckOff;
    sites.push_back(site);
  }
  return sites;
}

}  // namespace ptc::core
